/**
 * @file
 * DirectoryCMP L2 bank: the intra-CMP directory.
 *
 * Each bank tracks local L1 sharers/owner per line, the chip's
 * inter-CMP rights, and serializes transactions with per-block busy
 * states plus deferred-request queues (paper Section 2). It is both
 * the requester toward the inter-CMP directory (home) and the servant
 * of forwarded requests/invalidations from other chips. All data
 * responses route through this controller — the intra-CMP indirection
 * the paper contrasts with TokenCMP's direct responses.
 *
 * Deadlock discipline: locally-initiated work (toward home) may be
 * deferred; home-forwarded work (FwdGetS/FwdGetX/Inv) is never
 * deferred behind home-dependent work — it is served immediately from
 * current state, or behind strictly-local work that completes without
 * home involvement (bounded), keeping the wait-for graph acyclic.
 */

#ifndef TOKENCMP_DIRECTORY_DIR_L2_HH
#define TOKENCMP_DIRECTORY_DIR_L2_HH

#include <cstdint>
#include <vector>

#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "mem/block_table.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"

namespace tokencmp {

/** L2 bank controller for DirectoryCMP. */
class DirL2 : public Controller
{
  public:
    struct Stats
    {
        std::uint64_t localGetS = 0;
        std::uint64_t localGetX = 0;
        std::uint64_t homeGetS = 0;
        std::uint64_t homeGetX = 0;
        std::uint64_t fwdsIn = 0;
        std::uint64_t invsIn = 0;
        std::uint64_t grants = 0;
        std::uint64_t migratoryChip = 0;
        std::uint64_t deferrals = 0;
        std::uint64_t wbHomeOut = 0;
        std::uint64_t wbLocalIn = 0;
    };

    DirL2(SimContext &ctx, MachineID id, DirGlobals &g,
          std::uint64_t size_bytes, unsigned assoc);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Chip-level state of a block (tests). */
    ChipState peekChip(Addr addr) const;

    /** No transaction, writeback window or deferred request. */
    bool
    quiescent() const
    {
        return _home.size() == 0 && _local.size() == 0 &&
               _ext.size() == 0 && _wbLocal.size() == 0 &&
               _wbHome.size() == 0 && _recall.size() == 0 &&
               _deferred.size() == 0;
    }

  private:
    using Array = CacheArray<DirL2St>;
    using Line = Array::Line;

    /** Requester-side transaction toward the home directory. */
    struct HomeTxn
    {
        bool isWrite = false;
        MachineID l1Req;
        HomeFetch fetch;  //!< the home's data and remote acks
        int localAcksNeeded = 0;
        int localAcksGot = 0;
        MsgSeq svcId = 0;
    };

    /** Local transaction (forward to a local owner / local invs). */
    struct LocalTxn
    {
        bool isWrite = false;
        MachineID l1Req;
        MsgSeq svcId = 0;
        int acksNeeded = 0;
        int acksGot = 0;
        bool waitingData = false;
    };

    /** Service of a home-forwarded request or invalidation. */
    struct ExtSvc
    {
        bool isWrite = false;   //!< FwdGetX
        bool isInv = false;
        bool migratory = false;
        MachineID remote;       //!< requesting chip's L2 bank
        int fwdAcks = 0;        //!< ack count to embed in the response
        MsgSeq svcId = 0;
        int acksNeeded = 0;
        int acksGot = 0;
        bool waitingData = false;
        std::uint64_t value = 0;
        bool dirty = false;
    };

    /** Local L1 writeback in its grant window. */
    struct WbLocal
    {
        MachineID l1;
    };

    /** Inclusion-victim recall: pulling a line back from its L1. */
    struct RecallSvc
    {
        MsgSeq svcId = 0;
    };

    unsigned l1Slot(const MachineID &id) const;
    MachineID l1OfSlot(unsigned slot) const;

    bool
    busyAny(Addr a) const
    {
        return _home.find(a) || _local.find(a) || _wbLocal.find(a) ||
               _wbHome.find(a) || _recall.find(a);
    }
    bool
    busyForLocal(Addr a) const
    {
        return busyAny(a) || _ext.find(a);
    }

    Line *allocLine(Addr addr);
    void evictLine(Line *line);
    void startRecall(Line *victim);
    void startHomeWb(Addr addr, std::uint64_t value, bool dirty);
    void invalidateL1s(Addr addr, std::uint8_t slots, MsgSeq svc_id);
    void invalidateChipLine(Addr addr, Line *line);
    void defer(const Msg &m);
    void pump(Addr addr);

    void dispatchLocal(const Msg &m);
    void startHomeTxn(const Msg &m, Line *line);
    void grantExclusiveLocal(Line *line, const MachineID &l1,
                             bool for_write);
    void checkHomeComplete(Addr addr);

    void startExtSvc(const Msg &m);
    void finishExtSvc(Addr addr);

    void onHomeData(const Msg &m);
    void onL1Data(const Msg &m);
    void onInvAck(const Msg &m);
    void onWbRequest(const Msg &m);
    void onWbDataOrCancel(const Msg &m);
    void onWbGrantFromHome(const Msg &m);

    Array _array;
    BlockTable<HomeTxn> _home;
    BlockTable<LocalTxn> _local;
    BlockTable<ExtSvc> _ext;
    BlockTable<WbLocal> _wbLocal;
    BlockTable<PendingWb> _wbHome;  //!< our writebacks to the home
    BlockTable<RecallSvc> _recall;
    BlockTable<std::vector<Msg>> _deferred;  //!< FIFO per block
    MsgSeq _svcSeq = 0;

    DirGlobals &g;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_L2_HH
