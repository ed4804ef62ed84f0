/**
 * @file
 * Generic set-associative cache array with LRU replacement.
 *
 * The array is templated on the per-line protocol state so the token
 * substrate and DirectoryCMP reuse the same structure. Geometry follows
 * the paper's Table 3 (L1: 128 kB 4-way; L2 bank: 2 MB 4-way; 64 B
 * blocks).
 *
 * A set gets storage on first use. Each set has a 4 B slot (0 while
 * the set is untouched); the first victim() in a set appends its tag
 * words and lines to dense arrays, in first-use order. Capacity for
 * every set is reserved at construction but never written, so a run
 * pays in memory and page faults only for the sets it touches, and
 * storage never moves: every Line * stays valid for the array's life.
 */

#ifndef TOKENCMP_MEM_CACHE_ARRAY_HH
#define TOKENCMP_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/**
 * One cache line's payload: LRU bookkeeping plus protocol state. The
 * block tag and validity live in the owning CacheArray's dense tag
 * array; read them through CacheArray::tagOf() and isValid().
 */
template <typename StateT>
struct CacheLine
{
    std::uint64_t lruStamp = 0; //!< monotone use counter for LRU
    StateT st{};                //!< protocol-specific state
};

/**
 * Set-associative array of CacheLine<StateT> with strict-LRU victims.
 *
 * Tags are stored apart from the lines, one 8 B word per way:
 * `blockAlign(addr) | 1` for a valid way, 0 for an invalid one (block
 * addresses are 64 B aligned, so bit 0 is free). A lookup reads the
 * set's slot and then only the set's tag words, so the broadcast
 * probes that miss in most L1s never touch line state (nor, for an
 * untouched set, any tag); victim selection reads line LRU stamps
 * only when the set is full.
 */
template <typename StateT>
class CacheArray
{
  public:
    using Line = CacheLine<StateT>;

    /**
     * @param size_bytes total capacity
     * @param assoc      associativity (ways)
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc)
        : _assoc(assoc)
    {
        if (assoc == 0 || size_bytes % (assoc * blockBytes) != 0)
            fatal("CacheArray: bad geometry (%llu bytes, %u-way)",
                  static_cast<unsigned long long>(size_bytes), assoc);
        _numSets = size_bytes / (assoc * blockBytes);
        if ((_numSets & (_numSets - 1)) != 0)
            fatal("CacheArray: set count must be a power of two");
        if (_numSets > UINT32_MAX)
            fatal("CacheArray: too many sets");
        _slot.assign(_numSets, 0);
        // Reserved, not written: useSet() appends within this capacity,
        // so the arrays never reallocate.
        _tags.reserve(_numSets * _assoc);
        _lines.reserve(_numSets * _assoc);
    }

    // A copy would not carry the reserved capacity, so its lines
    // could move.
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Sets that have storage: those a victim() has touched. */
    std::size_t setsInUse() const { return _lines.size() / _assoc; }

    /** Way `way` of set `set`, or nullptr while the set is untouched
     *  (for tests that inspect the array way by way). */
    Line *
    lineAt(std::size_t set, unsigned way)
    {
        const std::uint32_t s = _slot[set];
        return s == 0 ? nullptr
                      : &_lines[(s - 1) * std::size_t(_assoc) + way];
    }

    /** Find the valid line holding `addr`'s block, or nullptr. */
    Line *
    probe(Addr addr)
    {
        const std::size_t i = find(addr);
        return i == npos ? nullptr : &_lines[i];
    }

    const Line *
    probe(Addr addr) const
    {
        const std::size_t i = find(addr);
        return i == npos ? nullptr : &_lines[i];
    }

    /** Block address `line` holds (0 if the line is invalid). */
    Addr
    tagOf(const Line &line) const
    {
        return _tags[indexOf(line)] & ~Addr(1);
    }

    /** True if `line` holds protocol state for a block. */
    bool
    isValid(const Line &line) const
    {
        return _tags[indexOf(line)] != 0;
    }

    /**
     * Choose a victim way in `addr`'s set: an invalid line if one
     * exists, otherwise the least-recently-used valid line. The caller
     * must evict a valid victim's contents before reusing it. Gives
     * the set storage if it has none yet.
     */
    Line *
    victim(Addr addr)
    {
        return victimWhere(addr, [](const Line &) { return true; });
    }

    /**
     * Like victim(), but a valid line is only eligible when
     * `ok(line)` holds (e.g., not pinned by an outstanding miss).
     * Returns nullptr if every way is valid and ineligible.
     */
    template <typename Pred>
    Line *
    victimWhere(Addr addr, Pred ok)
    {
        const std::size_t base = useSet(setIndex(blockAlign(addr)));
        for (std::size_t i = base; i < base + _assoc; ++i) {
            if (_tags[i] == 0)
                return &_lines[i];
        }
        std::size_t best = npos;
        for (std::size_t i = base; i < base + _assoc; ++i) {
            const Line &l = _lines[i];
            if (ok(l) && (best == npos ||
                          l.lruStamp < _lines[best].lruStamp)) {
                best = i;
            }
        }
        return best == npos ? nullptr : &_lines[best];
    }

    /** Mark a line most-recently-used. */
    void
    touch(Line *line)
    {
        line->lruStamp = ++_useCounter;
    }

    /** Bind a (victim) line to a new block and mark it used. */
    void
    install(Line *line, Addr addr)
    {
        Addr &tag = _tags[indexOf(*line)];
        _numValid += tag == 0 ? 1 : 0;
        tag = blockAlign(addr) | 1;
        line->st = StateT{};
        touch(line);
    }

    /** Invalidate a line. */
    void
    invalidate(Line *line)
    {
        Addr &tag = _tags[indexOf(*line)];
        _numValid -= tag != 0 ? 1 : 0;
        tag = 0;
        line->st = StateT{};
    }

    /** Apply `fn(blockAddr, line)` to every valid line, in the order
     *  the sets were first used. */
    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_tags[i] != 0)
                fn(_tags[i] & ~Addr(1), _lines[i]);
        }
    }

    /** Number of valid lines: O(1), kept by install() and
     *  invalidate(), the only tag writers. */
    std::size_t numValid() const { return _numValid; }

  private:
    static constexpr std::size_t npos = ~std::size_t(0);

    std::size_t
    setIndex(Addr blk) const
    {
        return static_cast<std::size_t>(blockNumber(blk)) & (_numSets - 1);
    }

    /** Dense index of `set`'s way 0, appending the set's ways first if
     *  it has none. */
    std::size_t
    useSet(std::size_t set)
    {
        std::uint32_t &s = _slot[set];
        if (s == 0) {
            s = static_cast<std::uint32_t>(setsInUse() + 1);
            _tags.resize(_tags.size() + _assoc, 0);
            _lines.resize(_lines.size() + _assoc);
        }
        return (s - 1) * std::size_t(_assoc);
    }

    /** Dense index of `addr`'s block, or npos. */
    std::size_t
    find(Addr addr) const
    {
        const Addr blk = blockAlign(addr);
        const Addr key = blk | 1;
        const std::uint32_t s = _slot[setIndex(blk)];
        if (s == 0)
            return npos;
        const std::size_t base = (s - 1) * std::size_t(_assoc);
        for (std::size_t i = base; i < base + _assoc; ++i) {
            if (_tags[i] == key)
                return i;
        }
        return npos;
    }

    std::size_t
    indexOf(const Line &line) const
    {
        return static_cast<std::size_t>(&line - _lines.data());
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::uint64_t _useCounter = 0;
    std::size_t _numValid = 0;
    /** Per set: 1 + its dense set index, or 0 while untouched. */
    std::vector<std::uint32_t> _slot;
    std::vector<Addr> _tags;  //!< per used way: blockAlign(addr) | 1, or 0
    std::vector<Line> _lines; //!< per used way, sets in first-use order
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_CACHE_ARRAY_HH
