/**
 * @file
 * Table 4 reproduction: barrier micro-benchmark runtime, normalized
 * to DirectoryCMP, for all eight protocols, with fixed 3000 ns work
 * and with 3000 +/- U(-1000,+1000) ns work.
 *
 * Paper values (normalized): arb0 1.40/1.29 and dst4 1.15/1.01 stand
 * out as non-robust (bold in the paper); dst0 0.94/0.91,
 * DirectoryCMP-zero 0.95/0.93, dst1 0.99/0.95, dst1-pred 0.96/0.93,
 * dst1-filt 0.99/0.95.
 */

#include "bench_util.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Table 4 reproduction: barrier micro-benchmark runtime across all eight protocols.");
    JsonReport report("table4_barrier");
    banner("Table 4: barrier micro-benchmark runtime "
           "(normalized to DirectoryCMP)",
           "arb0 and dst4 notably worse than DirectoryCMP (the "
           "paper bolds 1.40/1.29 and 1.15/1.01); other TokenCMP "
           "variants at or below 1.0");

    const std::vector<std::string> configs = {
        "arb0", "dst0", "directory", "directory-zero",
        "dst4", "dst1", "dst1-pred", "dst1-filt"};

    // 40 phases of 3000 ns work, fixed and +/- U(1000 ns).
    auto barrier = [](Tick jitter) {
        WorkloadParams wp;
        wp.opsPerProc = 40;
        wp.thinkMean = ns(3000);
        wp.thinkJitter = jitter;
        return wp;
    };

    // Run every row first: the table normalizes to the directory row.
    std::vector<std::pair<ExperimentResult, ExperimentResult>> rows;
    double base_fixed = 0.0, base_var = 0.0;
    for (const std::string &name : configs) {
        const std::string label = SystemConfig::select(name).displayName();
        const ExperimentResult f =
            runCell(name, "barrier", barrier(0), label + "/fixed");
        const ExperimentResult v =
            runCell(name, "barrier", barrier(ns(1000)), label + "/jitter");
        if (!f.allCompleted || !v.allCompleted ||
            f.violations + v.violations != 0) {
            std::fprintf(stderr, "FAILED: %s\n", label.c_str());
            return 1;
        }
        if (name == "directory") {
            base_fixed = f.runtime.mean();
            base_var = v.runtime.mean();
        }
        rows.emplace_back(f, v);
    }

    printHeaderRow({"3000ns", "3000±U(1000)"});
    for (const auto &[f, v] : rows) {
        printRow(f.protocol,
                 {f.runtime.mean() / base_fixed,
                  v.runtime.mean() / base_var},
                 {f.runtime.errorBar() / base_fixed,
                  v.runtime.errorBar() / base_var});
    }
    return 0;
}
