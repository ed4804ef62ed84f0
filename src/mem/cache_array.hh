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

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"
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

    /**
     * Arm incremental speculative capture. While `eq->speculating()`,
     * the first access to any line per capture epoch (`*epoch`, bumped
     * by the checkpoint hook) pushes a copy-restore inverse of the
     * line and its tag word onto `log`, so rollback cost is
     * proportional to the lines *touched* in the aborted segments —
     * never to the array's geometry. A full-array snapshot of a 2 MB
     * L2 bank per checkpoint would dwarf the event work of a window;
     * this journal is what makes optimistic mode profitable. The
     * per-line epoch stamps are allocated at the first capture, so a
     * serial run carries none.
     */
    void
    specBind(EventQueue *eq, SpecLog *log, const std::uint64_t *epoch)
    {
        _eq = eq;
        _specLog = log;
        _epoch = epoch;
    }

    /** Bytes of per-line capture-epoch stamps (0 until a speculative
     *  segment first touches the array). */
    std::size_t
    specBytes() const
    {
        return _lineEpoch.size() * sizeof(std::uint64_t);
    }

    /** Find the valid line holding `addr`'s block, or nullptr. */
    Line *
    probe(Addr addr)
    {
        const std::size_t i = find(addr);
        if (i == npos)
            return nullptr;
        maybeCapture(i);
        return &_lines[i];
    }

    /** Pure lookup: never journals, even while speculating. */
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
            if (_tags[i] == 0) {
                maybeCapture(i);
                return &_lines[i];
            }
        }
        std::size_t best = npos;
        for (std::size_t i = base; i < base + _assoc; ++i) {
            const Line &l = _lines[i];
            if (ok(l) && (best == npos ||
                          l.lruStamp < _lines[best].lruStamp)) {
                best = i;
            }
        }
        if (best == npos)
            return nullptr;
        maybeCapture(best);
        return &_lines[best];
    }

    /** Mark a line most-recently-used. */
    void
    touch(Line *line)
    {
        maybeCapture(indexOf(*line));
        line->lruStamp = ++_useCounter;
    }

    /** Bind a (victim) line to a new block and mark it used. */
    void
    install(Line *line, Addr addr)
    {
        const std::size_t i = indexOf(*line);
        maybeCapture(i);
        _tags[i] = blockAlign(addr) | 1;
        line->st = StateT{};
        touch(line);
    }

    /** Invalidate a line. */
    void
    invalidate(Line *line)
    {
        const std::size_t i = indexOf(*line);
        maybeCapture(i);
        _tags[i] = 0;
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

    /** Number of valid lines (for tests). */
    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (const Addr t : _tags)
            n += t != 0 ? 1 : 0;
        return n;
    }

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

    /**
     * First touch of line `i` in the current capture epoch while the
     * domain's queue speculates: journal a copy of the line and its
     * tag word (and, once per epoch, the LRU counter). Every mutation
     * path funnels through probe/victim/victimWhere/touch/install/
     * invalidate, so the journal sees each dirtied line before its
     * first write of the segment. Mutable-probe reads over-capture (a
     * probed-but-unmodified line is journaled too) — sound, and cheap
     * at one O(1) epoch check per access.
     */
    void
    maybeCapture(std::size_t i)
    {
        if (_specLog == nullptr || !_eq->speculating())
            return;
        if (_ctrEpoch != *_epoch) {
            _ctrEpoch = *_epoch;
            _specLog->push(
                [this, v = _useCounter]() { _useCounter = v; });
        }
        if (_lineEpoch.empty())
            _lineEpoch.assign(_lines.size(), 0);
        if (_lineEpoch[i] == *_epoch)
            return;
        _lineEpoch[i] = *_epoch;
        _specLog->push(
            [this, i, tag = _tags[i], copy = _lines[i]]() {
                _tags[i] = tag;
                _lines[i] = copy;
                // Reset the stamp so a replayed segment re-captures.
                _lineEpoch[i] = 0;
            });
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::uint64_t _useCounter = 0;
    std::vector<Addr> _tags;  //!< per way: blockAlign(addr) | 1, or 0
    std::vector<Line> _lines;

    // Incremental speculative capture (see specBind).
    EventQueue *_eq = nullptr;
    SpecLog *_specLog = nullptr;
    const std::uint64_t *_epoch = nullptr;
    std::vector<std::uint64_t> _lineEpoch;  //!< empty until first capture
    std::uint64_t _ctrEpoch = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_CACHE_ARRAY_HH
