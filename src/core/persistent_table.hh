/**
 * @file
 * Persistent-request tables (Section 3.2).
 *
 * Every cache and memory controller keeps one table with one entry per
 * processor. The entry with the highest fixed priority (lowest
 * processor number; processor numbering places a CMP's processors in
 * adjacent slots, so handoff exhibits intra-CMP affinity) among valid
 * entries for a block is *active*: the table's owner must forward all
 * present and future tokens for that block to the active initiator.
 *
 * The *marking* (FutureBus-style wave) mechanism: when a processor
 * deactivates its own request it marks all remaining valid entries for
 * the block in its local table, and may not issue a new persistent
 * request for that block until the marked entries have been cleared by
 * their own deactivations — preventing a fast requester from starving
 * the rest of the wave.
 *
 * The same structure serves the arbiter-based scheme, where the home
 * arbiter guarantees at most one activated request per arbiter.
 */

#ifndef TOKENCMP_CORE_PERSISTENT_TABLE_HH
#define TOKENCMP_CORE_PERSISTENT_TABLE_HH

#include <cstdint>
#include <vector>

#include "net/machine.hh"
#include "net/message.hh"
#include "sim/types.hh"

namespace tokencmp {

/** One controller's view of all outstanding persistent requests. */
class PersistentTable
{
  public:
    struct Entry
    {
        bool valid = false;
        bool marked = false;
        bool isRead = false;     //!< persistent *read* request
        Addr addr = 0;
        MachineID initiator;     //!< cache to forward tokens to
        MsgSeq seq = 0;          //!< issue sequence number
    };

    explicit PersistentTable(unsigned num_procs)
        : _entries(num_procs)
    {}

    /** Record processor `proc`'s persistent request. */
    void insert(unsigned proc, Addr addr, bool is_read,
                const MachineID &initiator, MsgSeq seq);

    /** Clear processor `proc`'s entry (deactivation). */
    void erase(unsigned proc);

    /**
     * The active request for `addr`: valid entry with the lowest
     * processor number. Returns -1 when none.
     */
    int activeFor(Addr addr) const;

    const Entry &entry(unsigned proc) const { return _entries.at(proc); }
    bool valid(unsigned proc) const { return _entries.at(proc).valid; }

    /** Mark all valid entries for `addr` (wave gating). */
    void markAllFor(Addr addr);

    /** Any marked entry for `addr` still present? */
    bool anyMarkedFor(Addr addr) const;

    /** Number of valid entries: O(1), kept by insert() and erase(). */
    unsigned numValid() const { return _numValid; }

  private:
    std::vector<Entry> _entries;
    unsigned _numValid = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_PERSISTENT_TABLE_HH
