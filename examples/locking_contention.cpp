/**
 * @file
 * Contention study: sweep the lock count of the Table 2 locking
 * micro-benchmark for one configuration through the ExperimentRunner
 * and print runtime (with 95% confidence bars), persistent request usage
 * and traffic — the raw material behind Figures 2/3. Per-seed progress
 * is streamed via the runner's onSeedDone callback.
 *
 *   $ ./locking_contention [configuration] [acquires] [seeds]
 *
 * The configuration is one of allProtocols()'s names ("directory",
 * "dst1-pred", "hier", ...) or any other registered policy; dst1 by
 * default.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "system/experiment.hh"
#include "workload/locking.hh"

using namespace tokencmp;

int
main(int argc, char **argv)
{
    const SystemConfig cfg =
        SystemConfig::select(argc > 1 ? argv[1] : "dst1");
    unsigned acquires = 25;
    if (argc > 2)
        acquires = unsigned(std::atoi(argv[2]));
    unsigned seeds = 3;
    if (argc > 3)
        seeds = unsigned(std::max(1, std::atoi(argv[3])));

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("protocol: %s, %u acquires per processor, %u seeds, "
                "parallelism %u\n\n",
                cfg.displayName().c_str(), acquires, seeds,
                hw ? hw : 1);
    std::printf("%8s %18s %10s %12s %12s %10s\n", "locks",
                "runtime(ns)", "L1 misses", "persistents",
                "inter bytes", "viol");

    for (unsigned locks : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                           512u}) {
        ExperimentResult e =
            Experiment::of(cfg)
                .workload([locks,
                           acquires]() -> std::unique_ptr<Workload> {
                    LockingParams p;
                    p.numLocks = locks;
                    p.acquiresPerProc = acquires;
                    return std::make_unique<LockingWorkload>(p);
                })
                .seeds(seeds)
                .parallelism(hw ? hw : 1)
                .onSeedDone([locks](const SeedProgress &p) {
                    std::fprintf(stderr,
                                 "  [%u locks] seed %llu done "
                                 "(%u/%u)%s\n",
                                 locks,
                                 (unsigned long long)p.seedValue,
                                 p.seedsDone, p.seedsTotal,
                                 p.completed ? "" : " TIMED OUT");
                })
                .run();
        if (!e.allCompleted) {
            std::printf("%8u DID NOT COMPLETE\n", locks);
            return 1;
        }
        std::printf("%8u %12.0f±%4.0f %10.0f %12.0f %12.0f %10llu\n",
                    locks, e.runtime.mean() / double(ticksPerNs),
                    e.runtime.errorBar() / double(ticksPerNs),
                    e.stats["l1.misses"].mean(),
                    e.stats["token.persistentIssued"].mean(),
                    e.interBytes.mean(),
                    (unsigned long long)e.violations);
    }
    return 0;
}
