/**
 * @file
 * Ablation (DESIGN.md A2): the robustness mechanisms of Section 3.2
 * under the high-contention locking micro-benchmark —
 *
 *  - the response-delay window (0 / 30 / 100 ns),
 *  - the timeout multiplier on the memory-latency EWMA,
 *  - the transient budget (the dst0, dst1 and dst4 rows: 0, 1 and 4
 *    transients before a persistent request),
 *  - persistent *read* requests (disabled -> reads use full
 *    persistent requests) is covered implicitly by the variants.
 */

#include "bench_util.hh"
#include "workload/locking.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

WorkloadFactory
lockFactory(unsigned locks)
{
    return [locks]() -> std::unique_ptr<Workload> {
        LockingParams p;
        p.numLocks = locks;
        p.acquiresPerProc = 25;
        return std::make_unique<LockingWorkload>(p);
    };
}

ExperimentResult
runCfg(const SystemConfig &cfg, unsigned locks,
       const std::string &label)
{
    return runExperiment(cfg, lockFactory(locks),
                         label + "@" + std::to_string(locks) +
                             "locks");
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Ablation A2: Section 3.2 robustness mechanisms under high-contention locking.");
    JsonReport report("ablation_robustness");
    banner("Ablation: robustness knobs (locking @2 and @64 locks, "
           "runtime in ns)",
           "short critical sections need the response-delay window "
           "under contention; oversized timeouts slow conflict "
           "resolution; larger retry budgets hurt at high contention");

    printHeaderRow({"2 locks", "64 locks"});

    std::printf("\nresponse-delay window:\n");
    for (Tick delay : {Tick(0), ns(30), ns(100)}) {
        SystemConfig cfg = SystemConfig::select("dst1");
        cfg.machine.responseDelay = delay;
        const std::string label =
            "delay=" + std::to_string(delay / ticksPerNs) + "ns";
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow("delay=" + std::to_string(delay / ticksPerNs) + "ns",
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\ntimeout multiplier (x EWMA of memory latency):\n");
    for (double mult : {1.0, 2.0, 4.0, 8.0}) {
        SystemConfig cfg = SystemConfig::select("dst1");
        cfg.token.timeoutMult = mult;
        char label[32];
        std::snprintf(label, sizeof(label), "timeout-x%.0f", mult);
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow(label,
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\ntransient-request budget before persistent:\n");
    for (unsigned budget : {0u, 1u, 4u}) {
        const SystemConfig cfg =
            SystemConfig::select("dst" + std::to_string(budget));
        const std::string label =
            "transients=" + std::to_string(budget);
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow("transients=" + std::to_string(budget),
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\npredictor (dst1-pred) table size:\n");
    for (unsigned locks : {2u, 64u}) {
        const ExperimentResult e =
            runCfg(SystemConfig::select("dst1-pred"), locks, "dst1-pred");
        if (!e.allCompleted)
            return 1;
        printRow("dst1-pred @" + std::to_string(locks),
                 {e.runtime.mean() / double(ticksPerNs)}, {});
    }
    return 0;
}
