/**
 * @file
 * Figure 7 reproduction: interconnect traffic of the commercial
 * workloads, in bytes, broken down by message class and normalized to
 * DirectoryCMP — part (a) inter-CMP links, part (b) intra-CMP links.
 *
 * Paper shape: TokenCMP generates somewhat *less* inter-CMP traffic
 * than DirectoryCMP at 4 CMPs (the directory spends extra control
 * messages: unblocks and three-phase writeback exchanges; Section 8
 * works the 168-vs-176-byte example). Intra-CMP totals are similar:
 * token protocols spend more on (broadcast) requests, the directory
 * more on response data because L1 data responses route through the
 * L2. The dst1-filt filter trims intra-CMP traffic by a few percent.
 */

#include <algorithm>

#include "bench_util.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

const std::vector<TrafficClass> kClasses = {
    TrafficClass::ResponseData,    TrafficClass::WritebackData,
    TrafficClass::WritebackControl, TrafficClass::Request,
    TrafficClass::InvFwdAckTokens, TrafficClass::Unblock,
    TrafficClass::Persistent};

double
classBytes(const ExperimentResult &e, NetLevel level, TrafficClass c)
{
    const std::string key = std::string("traffic.") +
                            netLevelName(level) + "." +
                            trafficClassName(c);
    auto it = e.stats.find(key);
    return it == e.stats.end() ? 0.0 : it->second.mean();
}

void
printLevel(const char *title, NetLevel level,
           const std::vector<ExperimentResult> &cells, double base_total)
{
    std::printf("\n--- %s (normalized to DirectoryCMP total) ---\n",
                title);
    std::printf("%-22s", "");
    for (TrafficClass c : kClasses)
        std::printf(" %9.9s", trafficClassName(c));
    std::printf(" %9s\n", "TOTAL");
    for (const ExperimentResult &e : cells) {
        std::printf("%-22s", e.protocol.c_str());
        double total = 0.0;
        for (TrafficClass c : kClasses) {
            const double b = classBytes(e, level, c);
            total += b;
            std::printf(" %9.3f", b / base_total);
        }
        std::printf(" %9.3f\n", total / base_total);
    }
}

/**
 * Sweep the flat-token performance policies on the OLTP proxy and
 * record normalized traffic (messages and inter-CMP bytes per L1
 * miss) — the per-policy cells the CI regression gate tracks. The
 * metrics are simulation counts over fixed seeds, so they are exactly
 * reproducible across machines. Returns false if dst-group's
 * multicast fails to land between the dst4 and dst1 traffic brackets
 * at dst1's runtime.
 */
bool
policySweep(JsonReport &report)
{
    // Every registered flat-token policy, in name order; hier's
    // intra-CMP "arb4" is not a row.
    std::vector<std::string> names;
    std::vector<ExperimentResult> cells;
    for (const std::string &name : PolicyRegistry::instance().names()) {
        if (name == "arb4")
            continue;
        names.push_back(name);
        cells.push_back(
            Experiment::of(cellConfig(name, "synthetic-oltp"))
                .seeds(seedsPerPoint())
                .parallelism(defaultParallelism())
                .run());
    }

    std::printf("\n--- policy sweep (%s; per L1 miss) ---\n",
                cells.front().workload.c_str());
    std::printf("%-22s %10s %12s %12s %12s %10s\n", "policy",
                "msgs/miss", "interB/miss", "intraB/miss",
                "runtime(ns)", "narrowed");
    double dst1_inter = 0.0, dst1_rt = 0.0;
    double dst4_inter = 0.0;
    double group_inter = 0.0, group_rt = 0.0, group_narrowed = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentResult &e = cells[i];
        if (!e.allCompleted) {
            std::fprintf(stderr, "FAILED: policy %s\n",
                         names[i].c_str());
            return false;
        }
        const double misses = e.stats.at("l1.misses").mean();
        const double msgs =
            e.stats.at("net.messages").mean() / misses;
        const double inter = e.interBytes.mean() / misses;
        const double intra = e.intraBytes.mean() / misses;
        const double rt = e.runtime.mean() / double(ticksPerNs);
        auto ni = e.stats.find("policy.narrowedEscalations");
        const double narrowed =
            ni == e.stats.end() ? 0.0 : ni->second.mean();
        std::printf("%-22s %10.3f %12.1f %12.1f %12.0f %10.0f\n",
                    names[i].c_str(), msgs, inter, intra, rt,
                    narrowed);
        if (names[i] == "dst1") {
            dst1_inter = inter;
            dst1_rt = rt;
        } else if (names[i] == "dst4") {
            dst4_inter = inter;
        } else if (names[i] == "dst-group") {
            group_inter = inter;
            group_rt = rt;
            group_narrowed = narrowed;
        }
        report.addRaw("{\"label\": " +
                      json::quote("policy_sweep/" + names[i]) +
                      ", \"msgsPerMiss\": " + json::number(msgs) +
                      ", \"interBytesPerMiss\": " + json::number(inter) +
                      ", \"intraBytesPerMiss\": " + json::number(intra) +
                      ", \"runtimeNs\": " + json::number(rt) +
                      ", \"narrowedEscalations\": " +
                      json::number(narrowed) + "}");
    }

    // The decoupling's payoff: group multicast is the middle fan-out,
    // so its inter-CMP bytes per miss must land strictly between the
    // narrow and broadcast endpoints of the same retry budget (dst1
    // and dst4 brackets) without costing runtime vs dst1 (2% slack
    // absorbs seed noise) — and the group path must actually have
    // fired, or a broken mask would degenerate it to a plain retry
    // budget and still "pass".
    const double lo = std::min(dst1_inter, dst4_inter);
    const double hi = std::max(dst1_inter, dst4_inter);
    const bool ok = group_inter > lo && group_inter < hi &&
                    group_rt <= dst1_rt * 1.02 && group_narrowed > 0.0;
    std::printf("\ndst-group between brackets: %.1f in (%.1f, %.1f) "
                "inter bytes/miss, %.0f vs dst1 %.0f ns runtime, %.0f "
                "grouped escalations -> %s\n",
                group_inter, lo, hi, group_rt, dst1_rt, group_narrowed,
                ok ? "PASS" : "FAIL");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Figure 7 reproduction: interconnect traffic by message class, inter- and intra-CMP.");
    JsonReport report("fig7_traffic");
    banner("Figure 7: traffic by message class (a: inter-CMP, "
           "b: intra-CMP)",
           "TokenCMP inter-CMP bytes <= DirectoryCMP at 4 CMPs; "
           "intra-CMP totals similar with more request bytes (token "
           "broadcast) vs more response-data bytes (directory L2 "
           "indirection); dst1-filt trims intra-CMP traffic");

    const std::vector<std::string> configs = {
        "directory", "dst4", "dst1", "dst1-pred", "dst1-filt", "hier"};

    for (const char *wl :
         {"synthetic-oltp", "synthetic-apache", "synthetic-jbb"}) {
        std::vector<ExperimentResult> cells;
        for (const std::string &name : configs)
            cells.push_back(runCell(name, wl));
        std::printf("\n===== workload %s =====\n",
                    cells.front().workload.c_str());
        for (const ExperimentResult &e : cells) {
            if (!e.allCompleted) {
                std::fprintf(stderr, "FAILED: %s\n", e.protocol.c_str());
                return 1;
            }
        }
        const double base_inter = cells.front().interBytes.mean();
        const double base_intra = cells.front().intraBytes.mean();
        printLevel("(a) inter-CMP traffic", NetLevel::Inter, cells,
                   base_inter);
        printLevel("(b) intra-CMP traffic", NetLevel::Intra, cells,
                   base_intra);
    }
    return policySweep(report) ? 0 : 1;
}
