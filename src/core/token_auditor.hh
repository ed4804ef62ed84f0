/**
 * @file
 * Runtime verification of the token-counting safety argument.
 *
 * The auditor shadows every token movement in the system: tokens held
 * at controllers, tokens in flight, and owner-token multiplicity. It
 * asserts the paper's safety invariants on every transfer:
 *
 *   1. conservation: held + in-flight == T for every initialized block;
 *   2. owner uniqueness: exactly one owner token per block;
 *   3. owner-data rule: messages carrying the owner token carry data.
 *
 * This turns the flat correctness substrate's model-checked invariants
 * into always-on dynamic checks during simulation.
 */

#ifndef TOKENCMP_CORE_TOKEN_AUDITOR_HH
#define TOKENCMP_CORE_TOKEN_AUDITOR_HH

#include <array>
#include <cstdint>

#include "mem/block_table.hh"
#include "sim/optional_mutex.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Tracks global token conservation; one instance per token system. */
class TokenAuditor
{
  public:
    /** Shadow-table stripes, chosen by block number. */
    static constexpr unsigned numStripes = 64;

    explicit TokenAuditor(int total_tokens) : _total(total_tokens) {}

    /**
     * Guard every stripe with its own mutex so controllers on
     * concurrent shard domains may audit transfers. A transfer touches
     * one block, hence one stripe, so each check stays exact; every
     * operation is a commutative transfer between the held/in-flight
     * columns, so the invariants (and any violation) are independent
     * of the locking order. Serial runs leave this off and pay nothing.
     */
    void setThreadSafe(bool on);

    /** Memory lazily creates a block's tokens (all T, owner, at mem). */
    void initBlock(Addr addr);

    /** A controller put `tokens` (owner if `owner`) on the wire. */
    void onSend(Addr addr, int tokens, bool owner, bool has_data);

    /** A controller absorbed a message's tokens. */
    void onReceive(Addr addr, int tokens, bool owner);

    /** Verify invariants for one block (no-op when uninitialized). */
    void check(Addr addr) const;

    /** Verify every tracked block; `expect_quiescent` additionally
     *  requires zero in-flight tokens. */
    void checkAll(bool expect_quiescent = false) const;

    /** Number of blocks being tracked. */
    std::size_t trackedBlocks() const;

    std::uint64_t transfers() const;

  private:
    struct BlockInfo
    {
        int held = 0;          //!< tokens at controllers
        int inFlight = 0;      //!< tokens on the wire
        int ownerHeld = 0;     //!< owner tokens at controllers
        int ownerInFlight = 0; //!< owner tokens on the wire
    };

    /** One slice of the shadow table, on cache lines of its own so
     *  domains auditing different stripes share nothing. */
    struct alignas(64) Stripe
    {
        /** Engaged only after setThreadSafe(true). */
        OptionalMutex mu;
        std::uint64_t transfers = 0;
        BlockTable<BlockInfo> blocks;
    };

    Stripe &
    stripe(Addr addr)
    {
        return _stripes[blockNumber(addr) % numStripes];
    }

    const Stripe &
    stripe(Addr addr) const
    {
        return _stripes[blockNumber(addr) % numStripes];
    }

    /** Check one block of `s`; the caller holds s.mu. */
    void checkLocked(const Stripe &s, Addr addr) const;

    int _total;
    std::array<Stripe, numStripes> _stripes;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_AUDITOR_HH
