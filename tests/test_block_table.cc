/**
 * @file
 * BlockTable tests: random get/find/erase in lock-step with
 * std::unordered_map over keys chosen to collide under the hash,
 * growth across several doublings, payload stability, bounded
 * capacity under the insert/erase churn of transaction maps, and the
 * 32-bit key variant's range check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "mem/block_table.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tokencmp {
namespace {

using Payload = std::vector<std::uint64_t>;

/**
 * The table's documented home-slot hash: the top `bits` bits of the
 * block number times 2^64 / phi. Used only to pick colliding keys.
 */
std::uint64_t
topBits(Addr blk, unsigned bits)
{
    return (blk * 0x9E3779B97F4A7C15ull) >> (64 - bits);
}

/**
 * Block numbers that share one home slot at every capacity up to
 * 2^12: `count` with home 0 and `count` with the last slot as home,
 * whose probe chains wrap around the end of the array.
 */
std::vector<Addr>
collidingBlocks(unsigned count)
{
    std::vector<Addr> first, last;
    for (Addr blk = 1; first.size() < count || last.size() < count;
         ++blk) {
        const std::uint64_t h = topBits(blk, 12);
        if (h == 0 && first.size() < count)
            first.push_back(blk);
        else if (h == 0xfff && last.size() < count)
            last.push_back(blk);
    }
    first.insert(first.end(), last.begin(), last.end());
    return first;
}

/** Key pool: colliding, dense, strided and extreme block numbers. */
std::vector<Addr>
keyPool()
{
    std::vector<Addr> pool = collidingBlocks(40);
    for (Addr b = 0; b < 600; ++b)
        pool.push_back(b);
    for (Addr b = 1; b <= 300; ++b)
        pool.push_back(b << 20);
    pool.push_back(blockNumber(~Addr(0)));
    pool.push_back(blockNumber(~Addr(0)) - 1);
    return pool;
}

/** Any address inside block `blk`. */
Addr
addrIn(Addr blk, Random &rng)
{
    return (blk << blockOffsetBits) + rng.uniform(blockBytes);
}

void
expectSameContents(const BlockTable<Payload> &t,
                   const std::unordered_map<Addr, Payload> &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    std::map<Addr, Payload> seen;
    t.forEach([&](Addr block_addr, const Payload &p) {
        EXPECT_EQ(block_addr, blockAlign(block_addr));
        EXPECT_TRUE(seen.emplace(blockNumber(block_addr), p).second)
            << "block visited twice";
    });
    ASSERT_EQ(seen.size(), ref.size());
    for (const auto &[blk, p] : seen) {
        auto it = ref.find(blk);
        ASSERT_NE(it, ref.end()) << "stray block " << blk;
        EXPECT_EQ(p, it->second);
    }
}

TEST(BlockTable, EmptyTableFindsNothing)
{
    BlockTable<Payload> t;
    EXPECT_EQ(t.find(0x1000), nullptr);
    EXPECT_FALSE(t.erase(0x1000));
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), 0u);
    unsigned visits = 0;
    t.forEach([&](Addr, const Payload &) { ++visits; });
    EXPECT_EQ(visits, 0u);
}

TEST(BlockTable, AnyAddressInsideABlockNamesIt)
{
    BlockTable<Payload> t;
    bool inserted = false;
    Payload &p = t.get(0x1005, &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_TRUE(p.empty());
    p.push_back(7);
    EXPECT_EQ(&t.get(0x103f, &inserted), &p);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(t.find(0x1000), &p);
    EXPECT_EQ(t.find(0x1040), nullptr);
    t.forEach([](Addr a, const Payload &) { EXPECT_EQ(a, 0x1000u); });
}

TEST(BlockTable, EraseResetsThePayload)
{
    BlockTable<Payload> t;
    t.get(0x40).assign(100, 1);
    EXPECT_TRUE(t.erase(0x7f));
    EXPECT_FALSE(t.erase(0x40));
    EXPECT_EQ(t.find(0x40), nullptr);
    bool inserted = false;
    EXPECT_TRUE(t.get(0x40, &inserted).empty());
    EXPECT_TRUE(inserted);
}

TEST(BlockTable, LockStepWithUnorderedMap)
{
    const std::vector<Addr> pool = keyPool();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Random rng(seed);
        BlockTable<Payload> t;
        std::unordered_map<Addr, Payload> ref;
        std::uint64_t next_value = 0;
        for (unsigned op = 0; op < 40000; ++op) {
            const Addr blk = pool[rng.uniform(pool.size())];
            const Addr addr = addrIn(blk, rng);
            // Bias toward inserts early so the table grows through
            // several doublings, then toward erases so it drains.
            const std::uint64_t insert_weight = op < 20000 ? 6 : 3;
            const std::uint64_t r = rng.uniform(10);
            if (r < insert_weight) {
                bool inserted = false;
                Payload &p = t.get(addr, &inserted);
                const bool absent = ref.count(blk) == 0;
                ASSERT_EQ(inserted, absent) << "seed " << seed;
                if (inserted) {
                    ASSERT_TRUE(p.empty());
                }
                p.push_back(++next_value);
                ref[blk].push_back(next_value);
            } else if (r < 8) {
                ASSERT_EQ(t.erase(addr), ref.erase(blk) == 1);
            } else {
                const Payload *p = t.find(addr);
                auto it = ref.find(blk);
                ASSERT_EQ(p != nullptr, it != ref.end());
                if (p != nullptr) {
                    ASSERT_EQ(*p, it->second);
                }
            }
            ASSERT_EQ(t.size(), ref.size());
            ASSERT_LE(2 * t.size(), t.capacity());
            if (op % 2000 == 0)
                expectSameContents(t, ref);
        }
        expectSameContents(t, ref);
    }
}

TEST(BlockTable, GrowsAcrossDoublingsKeepingEveryPayload)
{
    BlockTable<std::uint64_t> t;
    std::vector<std::size_t> capacities;
    const std::vector<Addr> colliding = collidingBlocks(64);
    std::vector<Addr> keys(colliding);
    for (Addr b = 0; b < 5000; ++b)
        keys.push_back(b * 3 + (Addr(1) << 30));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        t.get(keys[i] << blockOffsetBits) = i;
        if (capacities.empty() || capacities.back() != t.capacity())
            capacities.push_back(t.capacity());
    }
    ASSERT_GE(capacities.size(), 8u);
    EXPECT_EQ(capacities.front(), 16u);
    for (std::size_t i = 1; i < capacities.size(); ++i)
        EXPECT_EQ(capacities[i], 2 * capacities[i - 1]);
    // Doubling at half load leaves the table between 1/4 and 1/2 full.
    EXPECT_LE(t.capacity(), 4 * t.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t *v = t.find(keys[i] << blockOffsetBits);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
    }
}

TEST(BlockTable, OnlyARehashingInsertMovesPayloads)
{
    // A rehash moves every payload to a fresh array at once; find,
    // erase and any other insert move none. Phase one grows the table
    // (growing rehashes); phase two churns at a steady size, whose
    // tombstones force same-capacity rehashes.
    BlockTable<std::uint64_t> t;
    std::vector<Addr> live;
    std::unordered_map<Addr, const std::uint64_t *> where;
    Random rng(11);
    unsigned growing = 0, reclaiming = 0;
    for (unsigned op = 0; op < 8000; ++op) {
        const std::size_t cap = t.capacity();
        const bool grow_phase = op < 200;
        const bool insert =
            live.empty() || rng.uniform(3) < (grow_phase ? 2u : 1u);
        Addr inserted = 0;
        if (insert) {
            inserted = 1 + rng.uniform(1u << 20);
            if (where.count(inserted))
                continue;
            where[inserted] = &t.get(inserted << blockOffsetBits);
        } else if (rng.chance(0.5)) {
            const std::size_t i = rng.uniform(live.size());
            ASSERT_NE(t.find(live[i] << blockOffsetBits), nullptr);
        } else {
            const std::size_t i = rng.uniform(live.size());
            ASSERT_TRUE(t.erase(live[i] << blockOffsetBits));
            where.erase(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
        std::size_t moved = 0;
        for (Addr b : live) {
            const std::uint64_t *now = t.find(b << blockOffsetBits);
            moved += now != where[b];
            where[b] = now;
        }
        if (moved != 0) {
            ASSERT_TRUE(insert) << "op " << op;
            ASSERT_EQ(moved, live.size()) << "op " << op;
            ++(t.capacity() == cap ? reclaiming : growing);
        }
        if (insert)
            live.push_back(inserted);
    }
    EXPECT_GT(growing, 0u);
    EXPECT_GT(reclaiming, 0u);
}

TEST(BlockTable, ChurnAtConstantSizeReclaimsTombstones)
{
    // The transaction-map pattern: a few live blocks, each erased when
    // its transaction completes while fresh blocks keep arriving.
    BlockTable<Payload> t;
    constexpr unsigned kLive = 8;
    Addr oldest = 0, next = 0;
    for (; next < kLive; ++next)
        t.get(next << blockOffsetBits).push_back(next);
    std::size_t max_capacity = 0;
    for (unsigned round = 0; round < 200000; ++round) {
        ASSERT_TRUE(t.erase(oldest++ << blockOffsetBits));
        t.get(next << blockOffsetBits).push_back(next);
        ++next;
        ASSERT_EQ(t.size(), kLive);
        max_capacity = std::max(max_capacity, t.capacity());
    }
    EXPECT_LE(max_capacity, 8 * kLive);
    for (Addr b = oldest; b < next; ++b) {
        const Payload *p = t.find(b << blockOffsetBits);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, Payload{b});
    }
}

TEST(BlockTable, NarrowKeysMatchWideKeysAndRejectWiderBlocks)
{
    // A 32-bit key table (the holder masks') must behave exactly like
    // the default table over every block below 2^32 - 2, never alias
    // a wider block onto a narrow one, and refuse to insert one.
    std::vector<Addr> pool = collidingBlocks(40);
    for (Addr b = 0; b < 600; ++b)
        pool.push_back(b);
    pool.push_back((Addr(1) << 32) - 3);  // the widest block that fits
    Random rng(5);
    BlockTable<std::uint32_t, std::uint32_t> narrow;
    BlockTable<std::uint32_t> wide;
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr addr = addrIn(pool[rng.uniform(pool.size())], rng);
        const std::uint64_t r = rng.uniform(10);
        if (r < 5) {
            const std::uint32_t v = std::uint32_t(rng.uniform(1000));
            narrow.get(addr) |= v;
            wide.get(addr) |= v;
        } else if (r < 8) {
            ASSERT_EQ(narrow.erase(addr), wide.erase(addr));
        } else {
            const std::uint32_t *n = narrow.find(addr);
            const std::uint32_t *w = wide.find(addr);
            ASSERT_EQ(n != nullptr, w != nullptr);
            if (n != nullptr) {
                ASSERT_EQ(*n, *w);
            }
        }
        ASSERT_EQ(narrow.size(), wide.size());
    }
    std::map<Addr, std::uint32_t> a, b;
    narrow.forEach([&](Addr blk, std::uint32_t v) { a[blk] = v; });
    wide.forEach([&](Addr blk, std::uint32_t v) { b[blk] = v; });
    EXPECT_EQ(a, b);

    narrow.get(0x40) = 1;
    const Addr aliased = (Addr(1) << (32 + blockOffsetBits)) + 0x40;
    EXPECT_EQ(narrow.find(aliased), nullptr);
    EXPECT_FALSE(narrow.erase(aliased));
    EXPECT_DEATH(narrow.get(aliased), "needs a wider key");
}

} // namespace
} // namespace tokencmp
