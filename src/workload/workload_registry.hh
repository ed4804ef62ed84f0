/**
 * @file
 * Self-registering workload registry: the third first-class registry
 * alongside ProtocolRegistry (enum-keyed protocol families) and
 * PolicyRegistry (string-keyed performance policies).
 *
 * Workloads register a name → factory mapping at static-initialization
 * time (see WorkloadRegistrar); `SystemConfig::workloadName` plus a
 * `WorkloadParams` knob table then selects and parameterizes one by
 * string, so sweep drivers (`Experiment::workloads({...})`,
 * bench/workload_sweep.cc) can cross workloads with protocols and
 * policies without compile-time knowledge of the concrete types.
 *
 * Determinism contract for registered workloads: all per-thread
 * randomness must derive from the seeded per-thread RNG (the
 * `ThreadContext::_rng` reseeded by System::run), and any shared
 * checker state must use the opt-in locking pattern (mutex-guarded,
 * values independent of interleaving) — the sharded kernel requires
 * every workload to be bit-identical across worker counts for a fixed
 * kernel.
 */

#ifndef TOKENCMP_WORKLOAD_WORKLOAD_REGISTRY_HH
#define TOKENCMP_WORKLOAD_WORKLOAD_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"
#include "workload/workload_params.hh"

namespace tokencmp {

/**
 * Process-wide map from workload names to factories. Like the other
 * registries the map is effectively immutable once `main` begins, so
 * concurrent experiment workers may create workload instances without
 * locking.
 */
class WorkloadRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<Workload>(const WorkloadParams &)>;

    static WorkloadRegistry &instance();

    /** Register `factory` under `name`; fatal on duplicates. */
    void registerWorkload(const std::string &name, Factory factory);

    /** Instantiate `name` with `params`; fatal (listing every
     *  registered name) if unknown. Validates `params` as a backstop
     *  for callers that bypass SystemConfig::finalize(). */
    std::unique_ptr<Workload>
    create(const std::string &name, const WorkloadParams &params) const;

    bool known(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    WorkloadRegistry() = default;
    std::map<std::string, Factory> _factories;
};

/** Static self-registration helper for workload translation units. */
struct WorkloadRegistrar
{
    WorkloadRegistrar(const char *name, WorkloadRegistry::Factory factory)
    {
        WorkloadRegistry::instance().registerWorkload(
            name, std::move(factory));
    }
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_WORKLOAD_REGISTRY_HH
