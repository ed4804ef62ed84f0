/**
 * @file
 * PerfectL2: the paper's unimplementable lower bound (Section 6).
 *
 * Every L1 miss hits in an infinite L2 cache shared across all CMPs at
 * on-chip L2 latency; coherence is maintained by magic (instantaneous,
 * free invalidation of remote L1 copies on writes), which preserves
 * program semantics — locks still serialize — without charging any
 * coherence traffic or latency.
 */

#ifndef TOKENCMP_DIRECTORY_PERFECT_L2_HH
#define TOKENCMP_DIRECTORY_PERFECT_L2_HH

#include <cstdint>
#include <vector>

#include "cpu/sequencer.hh"
#include "mem/backing_store.hh"
#include "mem/block_table.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"

namespace tokencmp {

class PerfectL1;

/** Shared state of the PerfectL2 pseudo-protocol. */
struct PerfectGlobals
{
    PerfectGlobals(const MachineParams &m, Tick link_latency)
        : machine(m), linkLatency(link_latency)
    {}

    MachineParams machine;
    Tick linkLatency;

    BackingStore store;
    /** Which L1s (by global controller index) hold each block. */
    BlockTable<std::uint64_t> holders;
    std::vector<PerfectL1 *> l1s;
};

/** An L1 whose misses always hit the infinite magic L2. */
class PerfectL1 : public Controller, public L1CacheIF
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    PerfectL1(SimContext &ctx, MachineID id, PerfectGlobals &g,
              std::uint64_t size_bytes, unsigned assoc);

    void cpuRequest(const MemRequest &req) override;
    void handleMsg(const Msg &msg) override;

    /** Drop any local copy (magic invalidation). */
    void magicInvalidate(Addr addr);

    Stats stats;

  private:
    struct PerfectSt
    {
    };
    using Array = CacheArray<PerfectSt>;

    Array _array;
    PerfectGlobals &g;
    std::uint64_t _selfBit;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_PERFECT_L2_HH
