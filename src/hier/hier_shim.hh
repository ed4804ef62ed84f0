/**
 * @file
 * Per-CMP shim between the intra-CMP token space and the inter-CMP
 * MOESI directory (the hier family's tentpole controller).
 *
 * One shim sits at each L2 bank slot and plays three roles for its
 * address slice:
 *
 *  1. *Intra-CMP token home*: the CMP's T tokens for every block are
 *     materialized here (the per-CMP analogue of TokenMem), including
 *     a PersistentArbiter — local L1s arbitrate at the shim, never
 *     off-chip, and its broadcasts span only this CMP's L1s.
 *  2. *Chip agent*: towards the home directory the shim is the whole
 *     CMP — it issues GetS/GetX, collects remote invalidation acks,
 *     unblocks the home, and runs the three-phase writeback (the DirL2
 *     role, re-expressed over token state).
 *  3. *Translator*: external directory messages become intra-CMP token
 *     recalls; local token counts become directory unblocks/acks.
 *
 * The load-bearing safety rule is the **anchor invariant**: while the
 * chip is not in M, the shim retains the intra-CMP *owner* token. A
 * local write needs all T tokens (hence the owner token, hence chip
 * M), so no L1 can ever write beyond the chip's directory rights; and
 * chip S data is always clean, so an external invalidation can never
 * destroy dirty data. The owner token leaves the shim only at chip M.
 *
 * Derived invariants relied on below:
 *  - chip == I  =>  the shim holds all T tokens (and no local L1 holds
 *    any permission); established at block init, by full recalls, and
 *    by the tokens==T eviction gate.
 *  - chip in {S,O}  =>  the shim holds the owner token *and* valid
 *    data (it never gives the owner away below M, and data arrived
 *    with the grant or with a recalled owner token).
 *  - home busy/defer serialization  =>  fetch responses never
 *    interleave with external forwards for the same block; externals
 *    that *race* an in-flight fetch were dispatched before it and are
 *    processed against the current chip state (the completion handler
 *    keys off message type — Data/DataEx vs AckCount — not off the
 *    state the fetch was issued from).
 *
 * Races handled (the paper's Section 6 multi-CMP corner cases):
 *  - external invalidation vs in-flight local persistent request: the
 *    recall is a direct Inv broadcast *outside* the arbiter (using the
 *    arbiter would deadlock behind the very request being invalidated)
 *    and the shim is a pure token sink while recalling; periodic
 *    deterministic re-broadcast sweeps tokens that persistent-table
 *    forwarding keeps routing to the local initiator, so the recall
 *    converges even against an activated local write.
 *  - writeback vs forward: a racing Fwd-GetX/GetS/Inv is served from
 *    the writeback buffer (Fwd-GetX cancels the writeback) by the
 *    directory substrate's PendingWb, as at a DirL2 bank.
 *  - upgrade losing its data: a Fwd-GetX arriving before an owner
 *    upgrade's AckCount clears the preset data; the home later answers
 *    the demoted GetX with a full DataEx.
 */

#ifndef TOKENCMP_HIER_HIER_SHIM_HH
#define TOKENCMP_HIER_HIER_SHIM_HH

#include <cstdint>
#include <deque>

#include "core/token_common.hh"
#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "mem/block_table.hh"

namespace tokencmp {

/** Two-level shim: intra-CMP token home + inter-CMP directory agent. */
class HierShim : public TokenController
{
  public:
    struct Stats
    {
        std::uint64_t localServes = 0;
        std::uint64_t fetches = 0;
        std::uint64_t fetchUpgrades = 0;
        std::uint64_t extInvs = 0;
        std::uint64_t extFwdGetS = 0;
        std::uint64_t extFwdGetX = 0;
        std::uint64_t migratoryChip = 0;
        std::uint64_t recallsFull = 0;
        std::uint64_t recallsDown = 0;
        std::uint64_t recallRebroadcasts = 0;
        std::uint64_t writebacksOut = 0;
        std::uint64_t writebacksCancelled = 0;
        std::uint64_t silentDrops = 0;
    };

    /**
     * @param tg  this CMP's token globals (auditor tracks the CMP's
     *            private T-token space)
     * @param residency_cap soft cap on blocks held by this shim with
     *            chip rights (0 = unbounded); exceeding it starts
     *            chip-level evictions/writebacks FIFO-ish.
     */
    HierShim(SimContext &ctx, MachineID id, TokenGlobals &tg,
             unsigned residency_cap);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Test hooks: intra tokens held at the shim / chip-level state. */
    int tokensHeld(Addr addr) const;
    bool ownerHeld(Addr addr) const;
    ChipState peekChip(Addr addr) const;

    /** No home fetch, external service or writeback in flight. */
    bool quiescent() const;

    /** The intra-CMP persistent-request arbiter. */
    const PersistentArbiter &arbiter() const { return _arbiter; }

  protected:
    void onPersistentTableChange(Addr addr) override;

  private:
    enum class Recall : std::uint8_t { None, Down, Full };

    /** Per-block two-level state. */
    struct Blk
    {
        // Intra half: the CMP's token-space home (TokenMem analogue).
        int tokens = 0;
        bool owner = false;
        bool validData = false;
        bool dirty = false;        //!< value differs from home store
        std::uint64_t value = 0;

        // Inter half: chip rights and migratory hint.
        ChipState chip = ChipState::I;
        bool chipStored = false;   //!< a local write happened at M

        // One outstanding home fetch per block (a GetX iff the demand
        // is a write).
        bool fetching = false;
        HomeFetch fetch;
        MachineID fetchFor;        //!< demand L1 to serve on completion
        bool fetchForWrite = false;
        bool fetchForValid = false;

        // External service in progress (recall of intra tokens).
        Recall recall = Recall::None;
        std::uint64_t recallGen = 0;  //!< invalidates stale retry events
        bool extPending = false;
        Msg ext{};                 //!< the Fwd/Inv being serviced

        // Persistent data-only dedup (chip S/O read with no spare
        // tokens must still supply data — exactly once per entry).
        std::uint8_t prServedPrio = 0xff;
        MsgSeq prServedSeq = 0;

        bool inLru = false;        //!< residency-queue membership
    };

    Blk &ensureBlock(Addr addr);

    // Intra half.
    void onLocalTransient(const Msg &m);
    bool serveLocal(Addr addr, Blk &b, const MachineID &requestor,
                    bool is_write);
    void onTokensIn(const Msg &m);

    // Inter half.
    void startFetch(Addr addr, Blk &b, const MachineID &demand,
                    bool is_write);
    void onHomeData(const Msg &m);
    void onInvAck(const Msg &m);
    void checkFetchComplete(Addr addr, Blk &b);
    void startExternal(const Msg &m);
    void tryFinishExternal(Addr addr, Blk &b);
    void startRecall(Addr addr, Blk &b, Recall kind);
    void broadcastRecall(Addr addr, Recall kind);
    void scheduleRecallRetry(Addr addr, std::uint64_t gen);
    void checkRecallDone(Addr addr, Blk &b);
    void onWbGrant(const Msg &m);

    // Residency management.
    void becomeResident(Addr addr, Blk &b);
    void leaveResident(Blk &b);
    void maybeEvict(Addr just_fetched);
    void startWb(Addr addr, Blk &b);

    unsigned _residencyCap;

    BlockTable<Blk> _blocks;
    BlockTable<PendingWb> _wb;  //!< chip writebacks awaiting WbGrant
    PersistentArbiter _arbiter;

    std::deque<Addr> _lru;     //!< FIFO residency queue (lazy entries)
    unsigned _resident = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_HIER_HIER_SHIM_HH
