/**
 * @file
 * Flat open-addressing table of per-block state.
 *
 * Every controller that keeps state per cache block (memory token
 * counts, directory entries, transaction records, the auditor's shadow
 * counts, the functional memory image) keeps it in one BlockTable: a
 * power-of-two array of slots holding the key and the payload inline,
 * in the style of a fixed per-object array indexed by block id. An
 * insert allocates nothing unless it rehashes, which keeps heap
 * traffic off the miss path. The contract:
 *
 *  - Keys are block numbers (`addr >> blockOffsetBits`); any address
 *    inside a block names that block.
 *  - The home slot comes from a multiplicative (Fibonacci) hash of the
 *    block number, so the layout is the same on every platform and
 *    standard library. Collisions probe linearly.
 *  - get() value-initialises the payload of a block it inserts. Every
 *    slot not holding a live block holds `Payload{}`, so payloads must
 *    be cheap to default-construct (no std::deque).
 *  - erase() resets the payload to `Payload{}` (a vector's memory is
 *    freed) and leaves a tombstone, or an empty slot when the next slot
 *    is empty, since no probe can pass through it then.
 *  - Only an insert that rehashes moves payloads: find(), erase() and
 *    inserts that do not rehash leave every other payload in place. A
 *    rehash always moves to a fresh array, so a reference held across
 *    it reads freed memory, which AddressSanitizer reports.
 *  - The capacity starts at 16 slots on the first insert. An insert
 *    that would fill more than half the slots (live plus tombstones)
 *    rehashes: at double the capacity when more than a quarter of the
 *    slots are live, otherwise at the same capacity, which reclaims
 *    the tombstones of insert/erase churn.
 *  - forEach() visits live blocks in slot order. That order is a
 *    function of the hash and the insert/erase history, so use it only
 *    where the order cannot reach a simulated result (audits, dumps).
 *
 * The key type defaults to Addr. A table whose blocks all lie below
 * 2^32 - 2 may store them as std::uint32_t, halving a small payload's
 * slot (a larger block number panics).
 *
 * tests/test_block_table.cc drives it in lock-step with
 * std::unordered_map.
 */

#ifndef TOKENCMP_MEM_BLOCK_TABLE_HH
#define TOKENCMP_MEM_BLOCK_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Open-addressing map from cache block to an inline `Payload`. */
template <typename Payload, typename Key = Addr>
class BlockTable
{
  public:
    /** Live payload of `addr`'s block, or nullptr. */
    const Payload *
    find(Addr addr) const
    {
        if (_live == 0 || !fits(addr))
            return nullptr;
        const Key blk = key(addr);
        const Slot &s = _slots[probe(blk)];
        return s.key == blk ? &s.value : nullptr;
    }

    Payload *
    find(Addr addr)
    {
        return const_cast<Payload *>(
            static_cast<const BlockTable *>(this)->find(addr));
    }

    /**
     * Payload of `addr`'s block, value-initialised and inserted when
     * absent. When `inserted` is non-null it reports which happened.
     */
    Payload &
    get(Addr addr, bool *inserted = nullptr)
    {
        if (!fits(addr))
            panic("BlockTable: block 0x%llx needs a wider key",
                  static_cast<unsigned long long>(addr));
        const Key blk = key(addr);
        std::size_t i = 0;
        if (!_slots.empty()) {
            i = probe(blk);
            if (_slots[i].key == blk) {
                if (inserted != nullptr)
                    *inserted = false;
                return _slots[i].value;
            }
        }
        if (_slots.empty() ||
            (_slots[i].key == emptyKey &&
             2 * (_used + 1) > _slots.size())) {
            rehash();
            i = probe(blk);
        }
        Slot &s = _slots[i];
        if (s.key == emptyKey)
            ++_used;
        s.key = blk;
        ++_live;
        if (inserted != nullptr)
            *inserted = true;
        return s.value;
    }

    /** Drop `addr`'s block; returns whether it was live. */
    bool
    erase(Addr addr)
    {
        if (_live == 0 || !fits(addr))
            return false;
        const Key blk = key(addr);
        const std::size_t i = probe(blk);
        Slot &s = _slots[i];
        if (s.key != blk)
            return false;
        s.value = Payload{};
        --_live;
        if (_slots[(i + 1) & (_slots.size() - 1)].key == emptyKey) {
            s.key = emptyKey;
            --_used;
        } else {
            s.key = tombKey;
        }
        return true;
    }

    /** Number of live blocks. */
    std::size_t size() const { return _live; }

    /** Slots allocated (live, tombstone or empty). */
    std::size_t capacity() const { return _slots.size(); }

    /** Call `fn(blockAddr, payload)` for every live block, slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : _slots) {
            if (s.key != emptyKey && s.key != tombKey)
                fn(Addr(s.key) << blockOffsetBits, s.value);
        }
    }

  private:
    /** Block numbers are < 2^58 (and a narrow Key admits only those
     *  fits() accepts), so these never collide with a key. */
    static constexpr Key emptyKey = ~Key(0);
    static constexpr Key tombKey = ~Key(0) - 1;
    static constexpr std::size_t minCapacity = 16;
    static constexpr std::uint64_t fibonacci = 0x9E3779B97F4A7C15ull;

    struct Slot
    {
        Key key = emptyKey;
        Payload value{};
    };

    /** True if `addr`'s block number is representable as a Key. */
    static bool
    fits(Addr addr)
    {
        return sizeof(Key) == sizeof(Addr) || blockNumber(addr) < tombKey;
    }

    /** `addr`'s block number as a key (see fits()). */
    static Key
    key(Addr addr)
    {
        return static_cast<Key>(blockNumber(addr));
    }

    std::size_t
    home(Key blk) const
    {
        return static_cast<std::size_t>((Addr(blk) * fibonacci) >> _shift);
    }

    /**
     * The slot holding `blk`; else the first tombstone on its probe
     * path; else the empty slot that ends the path. Needs slots; ends
     * because at most half of them are used.
     */
    std::size_t
    probe(Key blk) const
    {
        const std::size_t mask = _slots.size() - 1;
        std::size_t tomb = _slots.size();
        for (std::size_t i = home(blk);; i = (i + 1) & mask) {
            const Key k = _slots[i].key;
            if (k == blk)
                return i;
            if (k == emptyKey)
                return tomb != _slots.size() ? tomb : i;
            if (k == tombKey && tomb == _slots.size())
                tomb = i;
        }
    }

    /** Move the live blocks into a fresh array (see file comment). */
    void
    rehash()
    {
        std::size_t cap = std::max(_slots.size(), minCapacity);
        if (4 * (_live + 1) > cap)
            cap *= 2;
        std::vector<Slot> old(cap);
        old.swap(_slots);
        _shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        _used = _live;
        for (Slot &s : old) {
            if (s.key == emptyKey || s.key == tombKey)
                continue;
            std::size_t i = home(s.key);
            while (_slots[i].key != emptyKey)
                i = (i + 1) & (cap - 1);
            _slots[i].key = s.key;
            _slots[i].value = std::move(s.value);
        }
    }

    std::vector<Slot> _slots;
    unsigned _shift = 64;      //!< 64 - log2(capacity)
    std::size_t _live = 0;     //!< live blocks
    std::size_t _used = 0;     //!< live blocks plus tombstones
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_BLOCK_TABLE_HH
