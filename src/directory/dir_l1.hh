/**
 * @file
 * DirectoryCMP L1 cache controller (MESI).
 *
 * L1 misses send GetS/GetX to the local L2 bank (the intra-CMP
 * directory). Forwarded requests and invalidations are answered
 * immediately (never deferred, except for the bounded response-delay
 * window) and data responses route *through* the L2 — the indirection
 * the paper's Section 8 identifies in DirectoryCMP. Dirty and
 * clean-exclusive evictions use three-phase writebacks
 * (WbRequest / WbGrant / WbData-or-WbCancel).
 */

#ifndef TOKENCMP_DIRECTORY_DIR_L1_HH
#define TOKENCMP_DIRECTORY_DIR_L1_HH

#include <cstdint>
#include <vector>

#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "cpu/sequencer.hh"
#include "mem/block_table.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"

namespace tokencmp {

/** L1 cache controller for DirectoryCMP. */
class DirL1 : public Controller, public L1CacheIF
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t getS = 0;
        std::uint64_t getX = 0;
        std::uint64_t fwdsServed = 0;
        std::uint64_t invsServed = 0;
        std::uint64_t migratorySends = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t wbCancels = 0;
    };

    DirL1(SimContext &ctx, MachineID id, DirGlobals &g,
          std::uint64_t size_bytes, unsigned assoc);

    void cpuRequest(const MemRequest &req) override;
    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Line state inspection for tests. */
    L1State peekState(Addr addr) const;

    /** No miss, writeback window or waiting request in flight. */
    bool
    quiescent() const
    {
        return _txns.size() == 0 && _wb.size() == 0 &&
               _wbWaiters.size() == 0;
    }

  private:
    using Array = CacheArray<DirL1St>;
    using Line = Array::Line;

    struct Txn
    {
        MemRequest req;
        bool isWrite = false;
    };

    bool isWriteOp(MemOp op) const
    {
        return op == MemOp::Store || op == MemOp::Atomic;
    }

    MachineID
    myL2(Addr addr) const
    {
        return ctx.topo.l2BankFor(_id.cmp, addr);
    }

    Line *allocLine(Addr addr);
    void evictLine(Line *line);
    void startMiss(const MemRequest &req);
    void complete(Addr addr, std::uint64_t value);
    void applyWrite(Line *line, const MemRequest &req,
                    std::uint64_t &old);

    void onData(const Msg &m, bool exclusive);
    void onInv(const Msg &m);
    void onFwd(const Msg &m, bool force);
    void onWbGrant(const Msg &m);

    Array _array;
    BlockTable<Txn> _txns;
    BlockTable<PendingWb> _wb;  //!< M/E evictions awaiting WbGrant
    BlockTable<std::vector<MemRequest>> _wbWaiters;

    DirGlobals &g;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_L1_HH
