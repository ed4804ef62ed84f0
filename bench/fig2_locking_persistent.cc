/**
 * @file
 * Figure 2 reproduction: locking micro-benchmark with
 * persistent-request-only performance policies.
 *
 * Runtime (normalized to DirectoryCMP at 512 locks) as lock count
 * sweeps from 2 (high contention) to 512 (low contention) for
 * TokenCMP-arb0, DirectoryCMP, DirectoryCMP-zero and TokenCMP-dst0.
 * The paper's shape: the arbiter-based scheme degrades badly under
 * contention (indirect deactivate/activate handoffs through the
 * arbiter), while distributed activation is comparable to or better
 * than the directory baselines.
 */

#include "bench_util.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Figure 2 reproduction: locking micro-benchmark, persistent-request-only policies.");
    JsonReport report("fig2_locking_persistent");
    banner("Figure 2: locking micro-benchmark, persistent requests "
           "only",
           "TokenCMP-arb0 >> DirectoryCMP at high contention; "
           "TokenCMP-dst0 comparable or better than directory "
           "variants");

    return lockSweep({"arb0", "directory", "directory-zero", "dst0"});
}
