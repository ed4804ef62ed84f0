/**
 * @file
 * Producer/consumer queue workload ("prodcons" in the registry):
 * processor p < P/2 produces into a bounded single-producer /
 * single-consumer ring consumed by processor p + P/2 — with the
 * default four-CMP topology the pairs always straddle chips, so every
 * queue slot, head and tail block migrates CMP-to-CMP in a strict
 * hand-off pattern: steady-state migratory traffic, sustained rather
 * than the one-shot hand-offs of `ablation_migratory`.
 *
 * The consumer checks that items arrive in sequence order, turning
 * the workload into an end-to-end store-visibility checker.
 */

#ifndef TOKENCMP_WORKLOAD_PRODCONS_HH
#define TOKENCMP_WORKLOAD_PRODCONS_HH

#include <mutex>

#include "workload/workload.hh"
#include "workload/workload_params.hh"

namespace tokencmp {

/** Parameters of the producer/consumer workload. */
struct ProdConsParams
{
    unsigned itemsPerPair = 200;  //!< items each producer enqueues
    unsigned queueSlots = 8;      //!< ring capacity in blocks
    Tick thinkMean = ns(30);      //!< compute between queue ops
    Tick spinDelay = ns(6);       //!< backoff when full/empty
    bool warmup = true;           //!< pre-touch the queue blocks
    Addr base = 0x50000000;       //!< per-pair regions from here
};

/** Cross-CMP SPSC queues with migratory hand-off. */
class ProdConsWorkload : public Workload
{
  public:
    explicit ProdConsWorkload(const ProdConsParams &p = {}) : _p(p) {}

    /** Construct from the registry knob table. */
    explicit ProdConsWorkload(const WorkloadParams &wp);

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq,
                     unsigned num_procs, std::uint64_t seed) override;

    void
    reset() override
    {
        _violations = 0;
        _totalConsumed = 0;
    }

    std::uint64_t violations() const override { return _violations; }
    std::uint64_t totalConsumed() const { return _totalConsumed; }
    std::string name() const override { return "prodcons"; }

    // Per-pair layout: head, tail, then the ring slots, padded so
    // neighbouring pairs never share a home controller stride.
    Addr
    headAddr(unsigned pair) const
    {
        return _p.base + Addr(pair) * pairStride();
    }
    Addr tailAddr(unsigned pair) const
    {
        return headAddr(pair) + blockBytes;
    }
    Addr
    slotAddr(unsigned pair, unsigned slot) const
    {
        return headAddr(pair) + Addr(2 + slot) * blockBytes;
    }

    /** Consumer checker hook: item `value` arrived where sequence
     *  number `expected` was due. */
    void noteConsumed(std::uint64_t expected, std::uint64_t value);

    const ProdConsParams &params() const { return _p; }

  private:
    Addr
    pairStride() const
    {
        return Addr(_p.queueSlots + 8) * blockBytes;
    }

    ProdConsParams _p;
    /** Guards the checker counters against concurrent shard domains. */
    std::mutex _mu;
    std::uint64_t _violations = 0;
    std::uint64_t _totalConsumed = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_PRODCONS_HH
