/**
 * @file
 * Ablation (DESIGN.md A1): the migratory-sharing optimization.
 *
 * Section 5 argues TokenCMP made migratory sharing nearly free to add
 * ("one additional state ... clearly correct, because they do not
 * affect the correctness substrate"). This harness quantifies what
 * the optimization is worth on the read-modify-write-heavy OLTP proxy
 * and on the locking micro-benchmark, for both protocol families.
 */

#include <tuple>

#include "bench_util.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

ExperimentResult
runWith(const std::string &name, bool migratory,
        const std::string &workload, const WorkloadParams &knobs,
        const std::string &wl_name)
{
    SystemConfig cfg = cellConfig(name, workload, knobs);
    cfg.machine.migratory = migratory;
    return runExperiment(cfg,
                         cfg.displayName() + "/" + wl_name +
                             (migratory ? "/migratory-on"
                                        : "/migratory-off"));
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Ablation A1: the migratory-sharing optimization on/off across protocol families.");
    JsonReport report("ablation_migratory");
    banner("Ablation: migratory-sharing optimization on/off",
           "read-modify-write sharing (OLTP-like) slows "
           "substantially without it; pure locking is less "
           "sensitive (atomics already take all tokens)");

    const std::vector<std::string> configs = {"directory", "dst1"};

    WorkloadParams locking;
    locking.keys = 32;
    locking.opsPerProc = 25;
    const std::vector<
        std::tuple<const char *, const char *, WorkloadParams>>
        workloads = {{"OLTP", "synthetic-oltp", {}},
                     {"locking", "locking", locking}};

    printHeaderRow({"on(ns)", "off(ns)", "off/on"});
    for (const std::string &config : configs) {
        for (const auto &[name, workload, knobs] : workloads) {
            const ExperimentResult on =
                runWith(config, true, workload, knobs, name);
            const ExperimentResult off =
                runWith(config, false, workload, knobs, name);
            if (!on.allCompleted || !off.allCompleted) {
                std::fprintf(stderr, "FAILED: %s\n",
                             on.protocol.c_str());
                return 1;
            }
            printRow(on.protocol + "/" + name,
                     {on.runtime.mean() / double(ticksPerNs),
                      off.runtime.mean() / double(ticksPerNs),
                      off.runtime.mean() / on.runtime.mean()},
                     {});
        }
    }
    return 0;
}
