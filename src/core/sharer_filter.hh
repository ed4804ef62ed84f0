/**
 * @file
 * TokenCMP-dst1-filt approximate L1-sharer directory (Section 4).
 *
 * Each L2 bank remembers which local L1 caches recently held tokens
 * for a block and forwards *external transient requests* only to
 * those caches, saving intra-CMP request bandwidth. The filter may be
 * arbitrarily wrong without affecting correctness: the substrate's
 * token counting provides safety and persistent requests (which are
 * never filtered) provide starvation freedom — unlike conventional
 * coherence filters, which break the protocol if they over-filter.
 *
 * Organized as a SetAssocTable with per-set LRU replacement:
 * inserting into a full set evicts only that set's victim, so running
 * near capacity costs one stale entry per insert instead of the
 * whole-filter thrash a global flush would cause. The lru stamp is
 * refreshed on every addSharer (allocation itself does not stamp —
 * the insert that follows it does), matching the pre-refactor counter
 * stream pinned by fixed-seed dst1-filt figures.
 */

#ifndef TOKENCMP_CORE_SHARER_FILTER_HH
#define TOKENCMP_CORE_SHARER_FILTER_HH

#include <cstdint>

#include "core/set_assoc_table.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Approximate per-block bitmask of local L1 token holders. */
class SharerFilter
{
  public:
    explicit SharerFilter(std::size_t max_entries = 8192,
                          unsigned ways = 4)
        : _table("SharerFilter", max_entries, ways)
    {}

    /** Note that local L1 slot `slot` may now hold tokens. */
    void
    addSharer(Addr addr, unsigned slot)
    {
        Table::Entry *e = _table.find(addr);
        if (e == nullptr) {
            bool evicted = false;
            e = _table.allocate(addr, &evicted);
            if (!evicted)
                ++_size;
        }
        e->data.mask |= (1u << slot);
        _table.touch(*e);
    }

    /** Note that local L1 slot `slot` gave up its tokens. */
    void
    removeSharer(Addr addr, unsigned slot)
    {
        Table::Entry *e = _table.find(addr);
        if (e == nullptr)
            return;
        e->data.mask &= ~(1u << slot);
        if (e->data.mask == 0) {
            _table.invalidate(*e);
            --_size;
        }
    }

    /**
     * Bitmask of local L1 slots an external transient request should
     * be forwarded to. Unknown blocks return 0 (forward to nobody):
     * if the block were on chip, the L2 would have seen its fills.
     */
    std::uint32_t
    sharers(Addr addr) const
    {
        const Table::Entry *e = _table.find(addr);
        return e == nullptr ? 0u : e->data.mask;
    }

    /** Blocks currently tracked (valid entries). */
    std::size_t size() const { return _size; }

  private:
    struct Sharers
    {
        std::uint32_t mask = 0; //!< one bit per local L1 slot
    };
    using Table = SetAssocTable<Sharers>;

    Table _table;
    std::size_t _size = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_SHARER_FILTER_HH
