/**
 * @file
 * Figure 3 reproduction: locking micro-benchmark with both transient
 * and persistent requests.
 *
 * Runtime (normalized to DirectoryCMP at 512 locks) across the lock
 * sweep for DirectoryCMP, DirectoryCMP-zero, TokenCMP-dst4,
 * TokenCMP-dst1 and TokenCMP-dst1-pred. Paper shape: at low
 * contention every TokenCMP variant beats DirectoryCMP (sharing
 * misses avoid the directory indirection); as contention rises,
 * dst4 wastes retries and is the least robust token variant, dst1 is
 * comparable to the directory, and dst1-pred does best by skipping
 * straight to persistent requests on predicted-contended blocks.
 */

#include "bench_util.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Figure 3 reproduction: locking micro-benchmark, transient + persistent requests.");
    JsonReport report("fig3_locking_transient");
    banner("Figure 3: locking micro-benchmark, transient + persistent "
           "requests",
           "low contention: TokenCMP < DirectoryCMP; high contention: "
           "dst4 worst token variant, dst1 ~ directory, dst1-pred "
           "best");

    return lockSweep(
        {"directory", "directory-zero", "dst4", "dst1", "dst1-pred"});
}
