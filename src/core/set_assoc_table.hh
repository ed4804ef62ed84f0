/**
 * @file
 * Generic set-associative LRU table.
 *
 * One implementation of the organization ContentionPredictor and
 * SharerFilter hand-rolled independently, also backing dst-group's
 * sharer-group table: `entries` slots split into `entries / ways` sets, block-aligned tags,
 * and per-set LRU replacement driven by a strictly monotone use
 * counter.
 *
 * The replacement order is pinned by fixed-seed figures (dst1-pred /
 * dst1-filt fig7 rows), so the semantics below are contractual, not
 * incidental:
 *
 *  - find() scans the set in way order and returns the valid matching
 *    entry (tags are unique within a set, so at most one matches).
 *  - allocate() takes the first invalid way; if the set is full it
 *    evicts the way with the smallest lru stamp, scanning in way order
 *    with a strict '<' so the first minimum wins. Stamps are distinct
 *    (monotone counter), so no real tie exists — but the scan order is
 *    still part of the contract.
 *  - allocate() resets the payload and does NOT stamp the entry;
 *    callers touch() exactly where their pre-refactor code bumped the
 *    use counter, keeping the counter stream identical.
 *
 * tests/test_set_assoc_table.cc holds the two pre-refactor
 * implementations verbatim and drives them lock-step against the
 * rebased predictors on fixed seeds.
 */

#ifndef TOKENCMP_CORE_SET_ASSOC_TABLE_HH
#define TOKENCMP_CORE_SET_ASSOC_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Set-associative LRU table of `Payload`s keyed by block address. */
template <typename Payload>
class SetAssocTable
{
  public:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;            //!< block-aligned address
        std::uint64_t lru = 0;   //!< last touch() stamp
        Payload data{};
    };

    /**
     * @param name    owner name for geometry panic messages
     * @param entries total slots; must be a nonzero multiple of ways
     * @param ways    set associativity
     */
    SetAssocTable(const char *name, std::size_t entries, unsigned ways)
        : _ways(ways), _sets(checkedSets(name, entries, ways)),
          _entries(entries)
    {}

    /** Valid entry holding `addr`'s block, or nullptr. */
    const Entry *
    find(Addr addr) const
    {
        const Addr blk = blockAlign(addr);
        const std::size_t base = setIndex(addr) * _ways;
        for (unsigned w = 0; w < _ways; ++w) {
            const Entry &e = _entries[base + w];
            if (e.valid && e.tag == blk)
                return &e;
        }
        return nullptr;
    }

    Entry *
    find(Addr addr)
    {
        return const_cast<Entry *>(
            static_cast<const SetAssocTable *>(this)->find(addr));
    }

    /**
     * Claim an entry for `addr`'s block in its set: the first invalid
     * way, or the LRU victim of a full set. The payload is
     * value-reset; valid and tag are set; the lru stamp is left to the
     * caller (see file comment). When `evicted_valid` is non-null it
     * reports whether a live entry was evicted (capacity accounting).
     */
    Entry *
    allocate(Addr addr, bool *evicted_valid = nullptr)
    {
        const std::size_t base = setIndex(addr) * _ways;
        Entry *victim = &_entries[base];
        for (unsigned w = 0; w < _ways; ++w) {
            Entry &e = _entries[base + w];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lru < victim->lru)
                victim = &e;
        }
        if (evicted_valid != nullptr)
            *evicted_valid = victim->valid;
        victim->valid = true;
        victim->tag = blockAlign(addr);
        victim->data = Payload{};
        return victim;
    }

    /** Stamp an entry most-recently-used. */
    void touch(Entry &e) { e.lru = ++_useCounter; }

    /** Drop an entry (its slot becomes allocatable). */
    void invalidate(Entry &e) { e.valid = false; }

    /** Total slots (valid or not). */
    std::size_t capacity() const { return _entries.size(); }

    /** Slot `i` in storage order, e.g. for randomized decay sweeps. */
    Entry &entryAt(std::size_t i) { return _entries[i]; }
    const Entry &entryAt(std::size_t i) const { return _entries[i]; }

    unsigned ways() const { return _ways; }
    std::size_t sets() const { return _sets; }

  private:
    /** Validate geometry *before* any division can fault. */
    static std::size_t
    checkedSets(const char *name, std::size_t entries, unsigned ways)
    {
        if (ways == 0 || entries == 0 || entries % ways != 0)
            panic("%s: entries (%zu) must be a nonzero multiple of "
                  "ways (%u)", name, entries, ways);
        return entries / ways;
    }

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(blockNumber(addr)) % _sets;
    }

    unsigned _ways;
    std::size_t _sets;
    std::vector<Entry> _entries;
    std::uint64_t _useCounter = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_SET_ASSOC_TABLE_HH
