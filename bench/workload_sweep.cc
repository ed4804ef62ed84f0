/**
 * @file
 * Workload characterization sweep: protocol x policy x workload over
 * the WorkloadRegistry's two sharing patterns that rank the
 * configurations differently: oltp (Zipf-skewed transactions) and
 * prodcons (producer/consumer hand-off). Emits
 * BENCH_workload_sweep.json with per-miss traffic metrics per cell —
 * the table check_regression.py gates.
 *
 * Expectation: the `dst-group` extension earns its place only while
 * it sits on the (runtime, inter-CMP bytes/miss) Pareto front. The
 * exit code enforces the keep rule: a swept paper row (dst1, dst4 or
 * dst1-pred) may dominate `dst-group` — be no worse on both axes and
 * better on one — on at most half of the swept workloads.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/workload_registry.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

/** One workload cell of the sweep: a registry name plus its knobs. */
struct WlSpec
{
    const char *name;
    WorkloadParams knobs;
};

std::vector<WlSpec>
sweepWorkloads()
{
    std::vector<WlSpec> out;

    WlSpec oltp{"oltp", {}};
    oltp.knobs.opsPerProc = 45;  // transactions (6 record ops each)
    oltp.knobs.keys = 4096;
    oltp.knobs.theta = 0.9;
    out.push_back(oltp);

    WlSpec prodcons{"prodcons", {}};
    prodcons.knobs.opsPerProc = 180;
    out.push_back(prodcons);

    return out;
}

struct CellMetrics
{
    double msgsPerMiss = 0.0;
    double interPerMiss = 0.0;
    double intraPerMiss = 0.0;
    double runtimeNs = 0.0;
};

CellMetrics
record(JsonReport &report, const std::string &wname,
       const ExperimentResult &e)
{
    CellMetrics m;
    const double misses = e.stats.at("l1.misses").mean();
    m.msgsPerMiss = e.stats.at("net.messages").mean() / misses;
    m.interPerMiss = e.interBytes.mean() / misses;
    m.intraPerMiss = e.intraBytes.mean() / misses;
    m.runtimeNs = e.runtime.mean() / double(ticksPerNs);
    std::printf("%-22s %10.3f %12.1f %12.1f %12.0f\n",
                e.protocol.c_str(), m.msgsPerMiss, m.interPerMiss,
                m.intraPerMiss, m.runtimeNs);
    report.addRaw(
        "{\"label\": " +
        json::quote("workload_sweep/" + wname + "/" + e.protocol) +
        ", \"msgsPerMiss\": " + json::number(m.msgsPerMiss) +
        ", \"interBytesPerMiss\": " + json::number(m.interPerMiss) +
        ", \"intraBytesPerMiss\": " + json::number(m.intraPerMiss) +
        ", \"runtimeNs\": " + json::number(m.runtimeNs) + "}");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Workload characterization sweep: protocol x policy x workload generators.");
    JsonReport report("workload_sweep");
    banner("Workload sweep: protocol x policy x workload",
           "dst-group stays on the (runtime, inter-CMP bytes/miss) "
           "Pareto front: a paper row dominates it on at most half "
           "of the swept workloads");

    const std::vector<std::string> policies = {
        "dst1", "dst4", "dst1-pred", "dst-group"};
    std::vector<std::string> configs = {"directory", "hier"};
    configs.insert(configs.end(), policies.begin(), policies.end());

    unsigned workloads = 0;
    unsigned dominated = 0;
    for (const WlSpec &spec : sweepWorkloads()) {
        std::printf("\n===== workload %s =====\n", spec.name);
        std::printf("%-22s %10s %12s %12s %12s\n", "config",
                    "msgs/miss", "interB/miss", "intraB/miss",
                    "runtime(ns)");

        // The directory baseline and the hierarchical family
        // (directory between CMPs, tokens within: the protocol axis
        // the policy sweep can't reach), then the token policies.
        std::map<std::string, CellMetrics> cells;
        for (const std::string &name : configs) {
            const ExperimentResult e =
                Experiment::of(cellConfig(name, spec.name, spec.knobs))
                    .seeds(seedsPerPoint())
                    .parallelism(defaultParallelism())
                    .run();
            if (!e.allCompleted) {
                std::fprintf(stderr, "FAILED: %s on %s\n",
                             e.protocol.c_str(), spec.name);
                return 1;
            }
            cells[name] = record(report, spec.name, e);
        }

        const CellMetrics &g = cells.at("dst-group");
        std::string by;
        for (const std::string &policy : policies) {
            const CellMetrics &p = cells.at(policy);
            if (policy != "dst-group" && p.runtimeNs <= g.runtimeNs &&
                p.interPerMiss <= g.interPerMiss &&
                (p.runtimeNs < g.runtimeNs ||
                 p.interPerMiss < g.interPerMiss))
                by += (by.empty() ? "" : ", ") + policy;
        }
        ++workloads;
        if (!by.empty())
            ++dominated;
        std::printf("dst-group dominated by: %s\n",
                    by.empty() ? "none" : by.c_str());
    }

    const unsigned half = workloads / 2;
    const bool ok = dominated <= half;
    std::printf("\nkeep gate: dst-group dominated on %u of %u workloads "
                "(at most %u) -> %s\n",
                dominated, workloads, half, ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
