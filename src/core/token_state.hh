/**
 * @file
 * Per-line token state (Section 3.1).
 *
 * A cache line's permissions derive entirely from its token count:
 * >= 1 token + valid data => readable; all T tokens + valid data =>
 * writable. The owner token additionally obliges its holder to supply
 * data (owner-token messages must carry data).
 */

#ifndef TOKENCMP_CORE_TOKEN_STATE_HH
#define TOKENCMP_CORE_TOKEN_STATE_HH

#include <cstdint>

#include "sim/types.hh"

namespace tokencmp {

/** Token-protocol per-line state. */
struct TokenSt
{
    int tokens = 0;           //!< tokens held (0 = no permissions)
    bool owner = false;       //!< holds the distinguished owner token
    bool validData = false;   //!< value is usable for loads
    bool dirty = false;       //!< value differs from the memory image
    /**
     * The holder itself stored to this block (drives the migratory-
     * sharing heuristic; inherited-dirty data does not re-migrate).
     */
    bool locallyModified = false;
    std::uint64_t value = 0;  //!< functional value
    Tick holdUntil = 0;       //!< response-delay window end
    /** A token-forwarding recheck is scheduled for the hold window. */
    bool recheckScheduled = false;

    /** Something a full recall would take: a token or valid data. */
    bool holds() const { return tokens > 0 || validData; }
    bool readable() const { return tokens >= 1 && validData; }
    bool
    writable(int total_tokens) const
    {
        return tokens == total_tokens && validData;
    }
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_STATE_HH
