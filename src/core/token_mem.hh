/**
 * @file
 * Token coherence memory controller.
 *
 * Memory is the source of every block's T tokens: an untouched block
 * conceptually holds all its tokens (and the owner token) at its home
 * controller, materialized lazily on first reference. The memory
 * controller also hosts the arbiter of the original arbiter-based
 * persistent request scheme (one activated request per arbiter, fair
 * FIFO queueing — Section 3.2).
 */

#ifndef TOKENCMP_CORE_TOKEN_MEM_HH
#define TOKENCMP_CORE_TOKEN_MEM_HH

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/token_common.hh"

namespace tokencmp {

/** Home memory controller for the token protocol. */
class TokenMem : public TokenController
{
  public:
    struct Stats
    {
        std::uint64_t dataResponses = 0;
        std::uint64_t tokenOnlyResponses = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t dramAccesses = 0;
        std::uint64_t arbActivations = 0;
        std::uint64_t arbQueueMax = 0;
    };

    TokenMem(SimContext &ctx, MachineID id, TokenGlobals &g);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Tokens currently held at memory for a block (tests). */
    int tokensHeld(Addr addr) const;
    bool ownerHeld(Addr addr) const;

  protected:
    void onPersistentTableChange(Addr addr) override;

  private:
    /** Memory-side token state; data validity == owner presence. */
    struct MemBlock
    {
        int tokens = 0;
        bool owner = false;
    };

    /** One queued arbiter request. */
    struct ArbReq
    {
        Addr addr = 0;
        bool isRead = false;
        std::uint8_t prio = 0;
        MsgSeq seq = 0;
        MachineID initiator;
    };

    MemBlock &ensureBlock(Addr addr);

    void onTransientReq(const Msg &m);
    void onWriteback(const Msg &m);
    void onArbRequest(const Msg &m);
    void onArbDone(const Msg &m);
    void activateArb(const ArbReq &req);
    void forwardPersistentTokens(Addr addr);

    std::unordered_map<Addr, MemBlock> _blocks;

    bool _arbBusy = false;
    ArbReq _arbActive;
    std::deque<ArbReq> _arbQueue;
    /**
     * Dones that overtook their own requests (possible on unordered
     * networks): the matching stale request is discarded on arrival
     * instead of being activated forever. Found by the Section 5
     * model checker; our point-to-point links happen to be FIFO, but
     * the substrate must not depend on that.
     */
    std::set<std::pair<std::uint8_t, MsgSeq>> _arbOrphans;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_MEM_HH
