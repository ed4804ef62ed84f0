/**
 * @file
 * Shared helpers for the paper-reproduction benchmark harnesses:
 * experiment runners, plain-text table printers, and a JSON report
 * sink so every target leaves a machine-readable BENCH_<name>.json
 * next to its stdout tables (the perf trajectory record).
 */

#ifndef TOKENCMP_BENCH_BENCH_UTIL_HH
#define TOKENCMP_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "system/experiment.hh"

namespace tokencmp::bench {

/** One environment variable a bench target honors. This table is the
 *  single source of truth for every harness's --help text (and the
 *  table in docs/sweeps.md mirrors it). */
struct EnvKnob
{
    const char *name;
    const char *what;
};

inline const std::vector<EnvKnob> &
envKnobs()
{
    static const std::vector<EnvKnob> knobs = {
        {"TOKENCMP_SEEDS",
         "seeds per data point (default 3; CI's ablation smoke uses 1)"},
        {"TOKENCMP_PARALLEL",
         "worker threads per experiment (default: hardware threads)"},
    };
    return knobs;
}

/**
 * Uniform bench CLI: every harness calls this first. The targets are
 * configured by environment, not flags, so the only options are
 * --help/-h (print what the bench does, its output file, and the env
 * knob table, then exit 0); anything else is an error. `what` is the
 * one-line purpose shown in the help text.
 */
inline void
cli(int argc, char **argv, const char *what)
{
    auto usage = [&](std::FILE *to) {
        std::fprintf(to, "usage: %s [--help]\n\n%s\n\n", argv[0],
                     what);
        std::fprintf(
            to,
            "Writes a machine-readable BENCH_<name>.json next to the\n"
            "stdout tables (bench/check_regression.py consumes it).\n"
            "Configuration is by environment variable:\n\n");
        for (const EnvKnob &k : envKnobs())
            std::fprintf(to, "  %-30s %s\n", k.name, k.what);
        std::fprintf(to,
                     "\nGrid sweeps over policies / workloads / knob "
                     "overrides live in\nthe `sweep` tool instead "
                     "(tools/sweep.cc, docs/sweeps.md).\n");
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(stdout);
            std::exit(0);
        }
        std::fprintf(stderr, "%s: unknown option %s\n\n", argv[0],
                     a.c_str());
        usage(stderr);
        std::exit(1);
    }
}

/** Seeds per data point (Alameldeen-style error bars). */
inline unsigned
seedsPerPoint()
{
    if (const char *env = std::getenv("TOKENCMP_SEEDS"))
        return parseCount(env, "TOKENCMP_SEEDS", 1);
    return 3;
}

/** Worker threads per experiment (TOKENCMP_PARALLEL, default #cores). */
inline unsigned
defaultParallelism()
{
    if (const char *env = std::getenv("TOKENCMP_PARALLEL"))
        return parseCount(env, "TOKENCMP_PARALLEL", 1);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Collects every experiment a bench target runs and writes them as
 * BENCH_<name>.json on destruction (one file per target). While an
 * instance is alive, runExperiment() records into it automatically.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name) : _name(std::move(name))
    {
        active() = this;
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    ~JsonReport()
    {
        active() = nullptr;
        write();
    }

    void
    add(const std::string &label, const ExperimentResult &e)
    {
        _cells.push_back(e.toJson(label));
    }

    /** Append a raw JSON object (for non-Experiment rows). */
    void addRaw(const std::string &json) { _cells.push_back(json); }

    /**
     * Build-provenance block stamped into every report: the commit
     * that produced the numbers (configure-time; "-dirty" when the
     * tree had uncommitted changes), the compiler and flags that
     * built it, and the host's hardware-thread count — the three
     * things needed to judge whether two perf datapoints are
     * comparable at all.
     */
    static std::string
    metaJson()
    {
#ifndef TOKENCMP_GIT_SHA
#define TOKENCMP_GIT_SHA "unknown"
#endif
#ifndef TOKENCMP_COMPILER
#define TOKENCMP_COMPILER "unknown"
#endif
#ifndef TOKENCMP_BUILD_FLAGS
#define TOKENCMP_BUILD_FLAGS ""
#endif
        return std::string("{\"gitSha\": ") +
               json::quote(TOKENCMP_GIT_SHA) +
               ", \"compiler\": " + json::quote(TOKENCMP_COMPILER) +
               ", \"flags\": " + json::quote(TOKENCMP_BUILD_FLAGS) +
               ", \"hwThreads\": " +
               std::to_string(std::thread::hardware_concurrency()) +
               "}";
    }

    void
    write() const
    {
        const std::string path = "BENCH_" + _name + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "warn: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "{\"bench\": %s, \"meta\": %s, \"cells\": [",
                     json::quote(_name).c_str(), metaJson().c_str());
        for (std::size_t i = 0; i < _cells.size(); ++i)
            std::fprintf(f, "%s%s", i ? ",\n  " : "\n  ",
                         _cells[i].c_str());
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
        std::printf("\nwrote %s (%zu cells)\n", path.c_str(),
                    _cells.size());
    }

    static JsonReport *&
    active()
    {
        static JsonReport *current = nullptr;
        return current;
    }

  private:
    std::string _name;
    std::vector<std::string> _cells;
};

/**
 * Run one experiment cell from an explicit config (which names its
 * workload); records it in the active JsonReport under `label`
 * (defaulting to protocol/workload).
 */
inline ExperimentResult
runExperiment(const SystemConfig &cfg, std::string label = "")
{
    ExperimentResult e = Experiment::of(cfg)
                             .seeds(seedsPerPoint())
                             .parallelism(defaultParallelism())
                             .run();
    if (JsonReport *rep = JsonReport::active()) {
        if (label.empty())
            label = e.protocol + "/" + e.workload;
        rep->add(label, e);
    }
    return e;
}

/** A named configuration (SystemConfig::select) with the default
 *  Table 3 parameters, running registry workload `workload`. */
inline SystemConfig
cellConfig(const std::string &name, const std::string &workload,
           const WorkloadParams &knobs = {})
{
    SystemConfig cfg = SystemConfig::select(name);
    cfg.workloadName = workload;
    cfg.workloadParams = knobs;
    return cfg;
}

inline void
banner(const char *title, const char *expectation)
{
    std::printf("\n=== %s ===\n", title);
    std::printf("paper expectation: %s\n\n", expectation);
}

inline void
printRow(const std::string &label, const std::vector<double> &vals,
         const std::vector<double> &errs)
{
    std::printf("%-22s", label.c_str());
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (errs.empty() || errs[i] <= 0.0)
            std::printf(" %10.3f", vals[i]);
        else
            std::printf(" %7.3f±%.2f", vals[i], errs[i]);
    }
    std::printf("\n");
}

inline void
printHeaderRow(const std::vector<std::string> &cols)
{
    std::printf("%-22s", "");
    for (const auto &c : cols)
        std::printf(" %10s", c.c_str());
    std::printf("\n");
}

} // namespace tokencmp::bench

#endif // TOKENCMP_BENCH_BENCH_UTIL_HH
