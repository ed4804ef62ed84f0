/**
 * @file
 * Time-varying load wrapper ("phased" in the registry): composes any
 * registered inner workload with a cyclic burst/ramp/idle schedule by
 * installing a per-thread LoadShaper that scales every think() the
 * inner workload issues. A multiplier below 1 compresses think time
 * (a burst: the machine sees a higher request rate), above 1 dilates
 * it (a trough), and a `from..to` phase ramps linearly between the
 * two — the diurnal ramp / flash-crowd shapes of production traffic.
 *
 * Schedules are deterministic functions of (tick, per-thread offset):
 * the offset derives from the thread's seed, so runs are bit-identical
 * across sharded worker counts like every other workload, and threads
 * do not burst in lockstep unless the schedule says so.
 */

#ifndef TOKENCMP_WORKLOAD_PHASED_HH
#define TOKENCMP_WORKLOAD_PHASED_HH

#include <vector>

#include "workload/workload.hh"
#include "workload/workload_params.hh"

namespace tokencmp {

/** One phase of a load schedule: think-time multiplier ramping
 *  linearly from `mult0` to `mult1` over `dur` ticks. */
struct PhasePoint
{
    double mult0;
    double mult1;
    Tick dur;
};

/**
 * Parse a schedule spec: comma-separated phases, each
 * `<mult>x<duration-ns>` (constant) or `<from>..<to>x<duration-ns>`
 * (linear ramp), e.g. "1x4000,0.25x2000,0.25..1x2000". Panics with a
 * grammar reminder on malformed input (checked by
 * SystemConfig::validate()).
 */
std::vector<PhasePoint> parsePhaseSchedule(const std::string &spec);

/** Parameters of the phased wrapper. */
struct PhasedParams
{
    std::string inner = "synthetic";   //!< registry name to wrap
    std::string schedule = "1x4000,0.25x2000,0.25..1x2000";
    /** Knobs forwarded to the inner workload (inner/schedule unused). */
    WorkloadParams innerKnobs;
};

/** Burst/ramp/idle wrapper over any registered workload. */
class PhasedWorkload : public Workload
{
  public:
    explicit PhasedWorkload(const PhasedParams &p);

    /** Construct from the registry knob table (`inner`, `schedule`;
     *  the remaining knobs forward to the inner workload). */
    explicit PhasedWorkload(const WorkloadParams &wp);

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq,
                     unsigned num_procs, std::uint64_t seed) override;

    void reset() override;
    std::uint64_t violations() const override;
    Tick measureStart() const override;

    std::string name() const override { return "phased-" + _p.inner; }

    const std::vector<PhasePoint> &schedule() const { return _sched; }

  private:
    PhasedParams _p;
    std::vector<PhasePoint> _sched;
    Tick _cycle = 0;                       //!< schedule period
    std::unique_ptr<Workload> _inner;
    /** Shapers live as long as the threads they are installed on;
     *  cleared on reset() (threads from the prior run are gone). */
    std::vector<std::unique_ptr<LoadShaper>> _shapers;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_PHASED_HH
