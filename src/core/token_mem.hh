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

#include "core/token_common.hh"
#include "mem/backing_store.hh"
#include "mem/block_table.hh"

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
    };

    TokenMem(SimContext &ctx, MachineID id, TokenGlobals &g);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Tokens currently held at memory for a block (tests). */
    int tokensHeld(Addr addr) const;
    bool ownerHeld(Addr addr) const;

    /** The arbiter of arbiter-activated persistent requests. */
    const PersistentArbiter &arbiter() const { return _arbiter; }

  protected:
    void onPersistentTableChange(Addr addr) override;

  private:
    /** Memory-side token state; data validity == owner presence. */
    struct MemBlock
    {
        int tokens = 0;
        bool owner = false;
    };

    MemBlock &ensureBlock(Addr addr);

    void onTransientReq(const Msg &m);
    void onWriteback(const Msg &m);
    /** giveTokens from `b`, with the data read from `_store`. */
    void give(MemBlock &b, Addr addr, const MachineID &dst, int tokens,
              bool owner, bool data);

    BlockTable<MemBlock> _blocks;
    /** Functional memory of the blocks this controller homes. */
    BackingStore _store;
    PersistentArbiter _arbiter;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_MEM_HH
