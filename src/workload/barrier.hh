/**
 * @file
 * The paper's barrier micro-benchmark (Table 2): processors perform
 * local work (3000 ns, optionally +/- U(-1000,+1000) ns), then pass a
 * sense-reversing barrier built from a test-and-test-and-set lock, a
 * shared counter, and a spin flag; 100 phases total.
 *
 * As a checker, the workload verifies that no processor ever observes
 * a phase skew greater than one barrier.
 */

#ifndef TOKENCMP_WORKLOAD_BARRIER_HH
#define TOKENCMP_WORKLOAD_BARRIER_HH

#include <mutex>
#include <vector>

#include "workload/workload.hh"

namespace tokencmp {

/** Parameters of the barrier micro-benchmark. */
struct BarrierParams
{
    unsigned phases = 100;
    Tick workTime = ns(3000);
    Tick workJitter = 0;        //!< uniform +/- jitter, <= workTime
    Tick spinDelay = ns(4);
    Addr base = 0x40000;        //!< lock, count, flag blocks
};

/** Table 2 sense-reversing barrier micro-benchmark. */
class BarrierWorkload : public Workload
{
  public:
    explicit BarrierWorkload(const BarrierParams &p = {}) : _p(p) {}

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    void
    reset() override
    {
        _violations = 0;
        _minPhase = 0;
        _phaseOf.clear();
    }

    std::uint64_t violations() const override { return _violations; }
    std::string name() const override { return "barrier"; }

    // The three barrier blocks are spaced four blocks apart so they
    // map to different home memory controllers (and thus different
    // arbiters) — the paper's default; it separately notes arb0 gets
    // even worse when contended blocks share one arbiter.
    Addr lockAddr() const { return _p.base; }
    Addr countAddr() const { return _p.base + 4 * blockBytes; }
    Addr flagAddr() const { return _p.base + 8 * blockBytes; }

    /** Phase-skew checker hook. */
    void notePhase(unsigned proc, unsigned phase);

    const BarrierParams &params() const { return _p; }

  private:
    BarrierParams _p;
    /** Guards the checker state against concurrent shard domains. */
    std::mutex _mu;
    std::vector<unsigned> _phaseOf;
    unsigned _minPhase = 0;
    std::uint64_t _violations = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_BARRIER_HH
