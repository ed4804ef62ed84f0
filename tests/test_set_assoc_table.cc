/**
 * @file
 * SetAssocTable unit tests plus the refactor's safety net: the two
 * predictors that were rebased onto it (ContentionPredictor,
 * SharerFilter) are driven lock-step against verbatim
 * copies of their pre-refactor hand-rolled implementations on fixed
 * seeds. Replacement order is pinned by fixed-seed figures, so the
 * equivalence is the test, not a hope.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/contention_predictor.hh"
#include "core/set_assoc_table.hh"
#include "core/sharer_filter.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tokencmp {
namespace {

// ---------------------------------------------------------------------
// Pre-refactor reference implementations, kept verbatim (modulo class
// names). If these drift from what shipped before the SetAssocTable
// rebase, the lock-step tests below lose their meaning — do not
// "clean them up".
// ---------------------------------------------------------------------

class RefContentionPredictor
{
  public:
    explicit RefContentionPredictor(unsigned entries = 256,
                                    unsigned ways = 4)
        : _ways(ways), _sets(entries / ways), _entries(entries)
    {}

    bool
    predictContended(Addr addr) const
    {
        const Entry *e = find(addr);
        return e != nullptr && e->counter >= 2;
    }

    void
    recordRetry(Addr addr, Random &rng)
    {
        Entry *e = find(addr);
        if (e == nullptr)
            e = allocate(addr);
        if (e->counter < 3)
            ++e->counter;
        if (rng.chance(1.0 / 64.0)) {
            Entry &victim = _entries[rng.uniform(_entries.size())];
            victim.counter = 0;
        }
    }

    void
    recordSuccess(Addr addr)
    {
        Entry *e = find(addr);
        if (e != nullptr && e->counter > 0)
            --e->counter;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        std::uint8_t counter = 0;
        std::uint64_t lru = 0;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(blockNumber(addr)) % _sets;
    }

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
            static_cast<const RefContentionPredictor *>(this)->find(addr));
    }

    Entry *
    allocate(Addr addr)
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
        victim->valid = true;
        victim->tag = blockAlign(addr);
        victim->counter = 0;
        victim->lru = ++_useCounter;
        return victim;
    }

    unsigned _ways;
    std::size_t _sets;
    std::vector<Entry> _entries;
    std::uint64_t _useCounter = 0;
};

class RefSharerFilter
{
  public:
    explicit RefSharerFilter(std::size_t max_entries = 8192,
                             unsigned ways = 4)
        : _ways(ways), _sets(max_entries / ways), _entries(max_entries)
    {}

    void
    addSharer(Addr addr, unsigned slot)
    {
        Entry *e = find(addr);
        if (e == nullptr)
            e = allocate(addr);
        e->mask |= (1u << slot);
        e->lru = ++_useCounter;
    }

    void
    removeSharer(Addr addr, unsigned slot)
    {
        Entry *e = find(addr);
        if (e == nullptr)
            return;
        e->mask &= ~(1u << slot);
        if (e->mask == 0) {
            e->valid = false;
            --_size;
        }
    }

    std::uint32_t
    sharers(Addr addr) const
    {
        const Entry *e = find(addr);
        return e == nullptr ? 0u : e->mask;
    }

    std::size_t size() const { return _size; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        std::uint32_t mask = 0;
        std::uint64_t lru = 0;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(blockNumber(addr)) % _sets;
    }

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
            static_cast<const RefSharerFilter *>(this)->find(addr));
    }

    Entry *
    allocate(Addr addr)
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
        if (!victim->valid)
            ++_size;
        victim->valid = true;
        victim->tag = blockAlign(addr);
        victim->mask = 0;
        return victim;
    }

    unsigned _ways;
    std::size_t _sets;
    std::vector<Entry> _entries;
    std::size_t _size = 0;
    std::uint64_t _useCounter = 0;
};

/** Block address `i` (distinct blocks, natural set striping). */
Addr
blockAddr(std::uint64_t i)
{
    return Addr(i * blockBytes);
}

} // namespace

// ---------------------------------------------------------------------
// SetAssocTable behavior
// ---------------------------------------------------------------------

TEST(SetAssocTable, RejectsInvalidGeometry)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    using T = SetAssocTable<int>;
    EXPECT_DEATH(T("T", 10, 4), "multiple of ways");
    EXPECT_DEATH(T("T", 16, 0), "multiple of ways");
    EXPECT_DEATH(T("T", 0, 4), "multiple of ways");
}

TEST(SetAssocTable, FindMatchesOnlyValidTaggedEntries)
{
    SetAssocTable<int> t("T", 16, 4);
    EXPECT_EQ(t.find(blockAddr(3)), nullptr);

    auto *e = t.allocate(blockAddr(3));
    t.touch(*e);
    e->data = 42;
    // Any address inside the block hits; the neighbor block misses.
    EXPECT_EQ(t.find(blockAddr(3) + blockBytes - 1), e);
    EXPECT_EQ(t.find(blockAddr(4)), nullptr);

    t.invalidate(*e);
    EXPECT_EQ(t.find(blockAddr(3)), nullptr);
}

TEST(SetAssocTable, AllocateTakesFirstInvalidWay)
{
    SetAssocTable<int> t("T", 16, 4);
    // Four blocks mapping to set 0 (sets = 4): blocks 0, 4, 8, 12.
    auto *a = t.allocate(blockAddr(0));
    t.touch(*a);
    auto *b = t.allocate(blockAddr(4));
    t.touch(*b);
    // Ways fill left to right.
    EXPECT_EQ(b, a + 1);
}

TEST(SetAssocTable, AllocateEvictsLeastRecentlyTouched)
{
    SetAssocTable<int> t("T", 16, 4);
    auto *w0 = t.allocate(blockAddr(0));
    t.touch(*w0);
    auto *w1 = t.allocate(blockAddr(4));
    t.touch(*w1);
    auto *w2 = t.allocate(blockAddr(8));
    t.touch(*w2);
    auto *w3 = t.allocate(blockAddr(12));
    t.touch(*w3);
    // Refresh way 0; way 1 is now the set's LRU victim.
    t.touch(*w0);

    bool evicted = false;
    auto *v = t.allocate(blockAddr(16), &evicted);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(v, w1);
    EXPECT_EQ(v->tag, blockAddr(16));
    // The other set is untouched.
    EXPECT_NE(t.find(blockAddr(0)), nullptr);
    EXPECT_EQ(t.find(blockAddr(4)), nullptr);
}

TEST(SetAssocTable, AllocateResetsPayloadAndReportsEviction)
{
    SetAssocTable<int> t("T", 4, 4);
    bool evicted = true;
    auto *e = t.allocate(blockAddr(0), &evicted);
    EXPECT_FALSE(evicted);
    e->data = 7;
    t.touch(*e);

    // Re-allocating the same block's set slot resets the payload.
    for (int i = 1; i <= 4; ++i) {
        auto *f = t.allocate(blockAddr(unsigned(i)), &evicted);
        t.touch(*f);
        EXPECT_EQ(f->data, 0);
    }
    EXPECT_TRUE(evicted);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.sets(), 1u);
    EXPECT_EQ(t.ways(), 4u);
}

// ---------------------------------------------------------------------
// Lock-step equivalence vs the pre-refactor implementations. Small
// geometries + a block pool several times the capacity force constant
// conflict evictions, which is where replacement-order bugs live.
// ---------------------------------------------------------------------

TEST(SetAssocTableEquivalence, ContentionPredictorLockStep)
{
    ContentionPredictor now(16, 4);
    RefContentionPredictor ref(16, 4);
    // recordRetry consumes its rng; give each impl an identically
    // seeded stream so the pseudo-random resets line up.
    Random rngNow(0xC0FFEEu), rngRef(0xC0FFEEu), ops(12345u);

    constexpr unsigned kBlocks = 64;
    for (unsigned step = 0; step < 20000; ++step) {
        const Addr a = blockAddr(ops.uniform(kBlocks));
        switch (ops.uniform(3)) {
          case 0:
            now.recordRetry(a, rngNow);
            ref.recordRetry(a, rngRef);
            break;
          case 1:
            now.recordSuccess(a);
            ref.recordSuccess(a);
            break;
          default:
            break;
        }
        const Addr probe = blockAddr(ops.uniform(kBlocks));
        ASSERT_EQ(now.predictContended(probe), ref.predictContended(probe))
            << "step " << step;
        if (step % 256 == 0) {
            for (unsigned b = 0; b < kBlocks; ++b)
                ASSERT_EQ(now.predictContended(blockAddr(b)),
                          ref.predictContended(blockAddr(b)))
                    << "step " << step << " block " << b;
        }
    }
}

TEST(SetAssocTableEquivalence, SharerFilterLockStep)
{
    SharerFilter now(16, 4);
    RefSharerFilter ref(16, 4);
    Random ops(987654321u);

    constexpr unsigned kBlocks = 64;
    for (unsigned step = 0; step < 20000; ++step) {
        const Addr a = blockAddr(ops.uniform(kBlocks));
        const unsigned slot = unsigned(ops.uniform(8));
        if (ops.chance(0.6)) {
            now.addSharer(a, slot);
            ref.addSharer(a, slot);
        } else {
            now.removeSharer(a, slot);
            ref.removeSharer(a, slot);
        }
        ASSERT_EQ(now.size(), ref.size()) << "step " << step;
        const Addr probe = blockAddr(ops.uniform(kBlocks));
        ASSERT_EQ(now.sharers(probe), ref.sharers(probe))
            << "step " << step;
        if (step % 256 == 0) {
            for (unsigned b = 0; b < kBlocks; ++b)
                ASSERT_EQ(now.sharers(blockAddr(b)),
                          ref.sharers(blockAddr(b)))
                    << "step " << step << " block " << b;
        }
    }
}

} // namespace tokencmp
