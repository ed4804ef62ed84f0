/**
 * @file
 * Generic set-associative cache array with LRU replacement.
 *
 * The array is templated on the per-line protocol state so the token
 * substrate and DirectoryCMP reuse the same structure. Geometry follows
 * the paper's Table 3 (L1: 128 kB 4-way; L2 bank: 2 MB 4-way; 64 B
 * blocks).
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
 * addresses are 64 B aligned, so bit 0 is free). A lookup scans only
 * the set's tag words, so the broadcast probes that miss in most L1s
 * never touch line state; victim selection reads line LRU stamps only
 * when the set is full.
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
        // Written eagerly: first-touch page faults belong in set-up,
        // not in the measured run.
        _tags.assign(_numSets * _assoc, 0);
        _lines.assign(_numSets * _assoc, Line{});
    }

    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

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
     * must evict a valid victim's contents before reusing it.
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
        const std::size_t base = setBase(blockAlign(addr));
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

    /** Apply `fn(line)` to every valid line. */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_tags[i] != 0)
                fn(_lines[i]);
        }
    }

    /** Number of valid lines: O(1), kept by install() and
     *  invalidate(), the only tag writers. */
    std::size_t numValid() const { return _numValid; }

  private:
    static constexpr std::size_t npos = ~std::size_t(0);

    std::size_t
    setBase(Addr blk) const
    {
        const std::size_t set =
            static_cast<std::size_t>(blockNumber(blk)) & (_numSets - 1);
        return set * _assoc;
    }

    /** Way index of `addr`'s block, or npos. */
    std::size_t
    find(Addr addr) const
    {
        const Addr blk = blockAlign(addr);
        const Addr key = blk | 1;
        const std::size_t base = setBase(blk);
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
    std::vector<Addr> _tags;  //!< per way: blockAlign(addr) | 1, or 0
    std::vector<Line> _lines;
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_CACHE_ARRAY_HH
