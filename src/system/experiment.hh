/**
 * @file
 * Multi-seed experiment driver: a fluent, parallel runner.
 *
 *   SystemConfig cfg = SystemConfig::select("dst1");
 *   cfg.workloadName = "locking";   // a WorkloadRegistry name
 *   cfg.workloadParams.keys = 16;   // and its knobs
 *   auto result = Experiment::of(cfg)
 *                     .seeds(20)
 *                     .parallelism(4)
 *                     .onSeedDone([](const SeedProgress &p) { ... })
 *                     .run();
 *
 * The workload comes only from the config: each seed creates a fresh
 * instance of `cfg.workloadName` from the WorkloadRegistry. A custom
 * workload plugs in through a WorkloadRegistrar (see
 * examples/workload_tour.cpp); `System::run(Workload &)` is the
 * single-run primitive.
 *
 * Seeds run on a std::thread pool (each on a fresh System and
 * workload, so nothing is shared between workers); results are
 * aggregated in seed order, so any parallelism level produces
 * bit-identical `ExperimentResult`s to serial execution (Alameldeen &
 * Wood perturbation methodology, HPCA 2003).
 * `ExperimentResult::toJson()` exports machine-readable results for
 * the bench harnesses.
 */

#ifndef TOKENCMP_SYSTEM_EXPERIMENT_HH
#define TOKENCMP_SYSTEM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "system/system.hh"

namespace tokencmp {

namespace json {

/** Format a double for JSON (round-trippable precision). */
std::string number(double v);

/** Escape and double-quote a string for JSON. */
std::string quote(const std::string &s);

} // namespace json

/** Progress report delivered after each seed finishes. */
struct SeedProgress
{
    unsigned seedIndex = 0;       //!< 0-based index into the batch
    std::uint64_t seedValue = 0;  //!< RNG seed the run used
    unsigned seedsDone = 0;       //!< completed so far (including this)
    unsigned seedsTotal = 0;
    bool completed = false;       //!< finished within the horizon
    Tick runtime = 0;
};

/** Aggregated multi-seed experiment results (mean +/- 95% CI). */
struct ExperimentResult
{
    /** displayName() of the configuration, suffixed with "@<hash>"
     *  when any tuning knob differs from its default (see
     *  system/knobs.hh) — two runs of the same policy under
     *  different knob overrides must not collide in reports. */
    std::string protocol;
    std::string knobHash;  //!< knobOverrideHash(); "" at defaults
    std::string workload;  //!< Workload::name() of the runs
    unsigned seedsRequested = 0;  //!< batch size (>= completed count)

    SeedSamples runtime;
    SeedSamples interBytes;
    SeedSamples intraBytes;
    std::uint64_t violations = 0;
    std::map<std::string, SeedSamples> stats;
    bool allCompleted = true;

    /** Per-seed raw results, in seed order (completed seeds only). */
    std::vector<System::RunResult> perSeed;

    /** Machine-readable export of the aggregate and per-seed runtimes. */
    std::string toJson(const std::string &label = "") const;
};

/** Fluent multi-seed experiment runner. */
class Experiment
{
  public:
    using ProgressFn = std::function<void(const SeedProgress &)>;

    /** Start describing an experiment over `cfg`. */
    static Experiment of(const SystemConfig &cfg);

    Experiment &seeds(unsigned n);
    /** Worker threads; 1 (default) runs serially on this thread. */
    Experiment &parallelism(unsigned n);
    Experiment &horizon(Tick t);
    /** First seed value (default 1; seeds run first..first+n-1). */
    Experiment &firstSeed(std::uint64_t s);
    /**
     * Per-seed completion callback. Invoked serialized (never
     * concurrently) but, with parallelism > 1, from worker threads and
     * not necessarily in seed order.
     */
    Experiment &onSeedDone(ProgressFn fn);

    /** Execute all seeds and aggregate. The workload is the base
     *  config's workloadName, created through the WorkloadRegistry;
     *  fatal if it names none. To sweep policies or workloads, loop
     *  over names and run() each config; ParamGrid crosses axes. */
    ExperimentResult run() const;

  private:
    explicit Experiment(const SystemConfig &cfg) : _cfg(cfg) {}

    SystemConfig _cfg;
    unsigned _seeds = 1;
    unsigned _parallelism = 1;
    Tick _horizon = ns(500000000);
    std::uint64_t _firstSeed = 1;
    ProgressFn _progress;
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_EXPERIMENT_HH
