/**
 * @file
 * Traffic anatomy: run one workload on two protocols and print the
 * full message-class breakdown per network level — the raw data
 * behind Figure 7, including the Section 8 observation that
 * DirectoryCMP spends extra control messages (unblocks, three-phase
 * writeback exchanges) while TokenCMP spends more on broadcast
 * requests.
 *
 *   $ ./traffic_study [workload]
 *
 * `workload` is any WorkloadRegistry name (default synthetic-apache;
 * the Figure 7 presets are synthetic-oltp, synthetic-apache and
 * synthetic-jbb).
 */

#include <cstdio>

#include "system/experiment.hh"

using namespace tokencmp;

int
main(int argc, char **argv)
{
    const char *workload = argc > 1 ? argv[1] : "synthetic-apache";
    std::printf("workload: %s\n", workload);

    for (const char *name : {"directory", "dst1"}) {
        SystemConfig cfg = SystemConfig::select(name);
        cfg.workloadName = workload;
        // One seed: we want the anatomy of a single run, not CIs.
        ExperimentResult e = Experiment::of(cfg).seeds(1).run();
        if (!e.allCompleted)
            return 1;
        const System::RunResult &res = e.perSeed.front();

        std::printf("\n%s (runtime %llu ns)\n", e.protocol.c_str(),
                    (unsigned long long)(res.runtime / ticksPerNs));
        std::printf("  %-20s %12s %12s %12s\n", "message class",
                    "intra", "inter", "memlink");
        for (unsigned c = 0; c < unsigned(TrafficClass::NumClasses);
             ++c) {
            const char *cls = trafficClassName(TrafficClass(c));
            std::printf("  %-20s", cls);
            for (const char *lvl : {"intra", "inter", "memlink"}) {
                const std::string key =
                    std::string("traffic.") + lvl + "." + cls;
                std::printf(" %12.0f", res.stats.get(key));
            }
            std::printf("\n");
        }
        std::printf("  %-20s %12.0f %12.0f %12.0f\n", "TOTAL",
                    res.stats.get("traffic.intra.total"),
                    res.stats.get("traffic.inter.total"),
                    res.stats.get("traffic.memlink.total"));
    }
    return 0;
}
