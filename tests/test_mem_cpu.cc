/**
 * @file
 * Unit tests for the cache array (geometry, LRU, pinning-aware victim
 * selection, first-use set storage, lock-step equivalence with the
 * array-of-structs layout),
 * the backing store, and the sequencer.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/token_state.hh"
#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"
#include "cpu/sequencer.hh"

namespace tokencmp {

namespace {

struct St
{
    int v = 0;
};

} // namespace

// The token L1/L2 line is LRU stamp + TokenSt: the tag lives in the
// array's tag words, not in the line.
static_assert(sizeof(CacheLine<TokenSt>) <= 40);

TEST(CacheArray, GeometryFromTable3)
{
    CacheArray<St> l1(128 * 1024, 4);
    EXPECT_EQ(l1.numSets(), 512u);
    CacheArray<St> l2(2 * 1024 * 1024, 4);
    EXPECT_EQ(l2.numSets(), 8192u);
}

TEST(CacheArray, ProbeInstallInvalidate)
{
    CacheArray<St> a(1024, 4);  // 4 sets
    EXPECT_EQ(a.probe(0x100), nullptr);
    auto *v = a.victim(0x100);
    a.install(v, 0x100);
    auto *line = a.probe(0x13f);  // same block
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(a.isValid(*line));
    EXPECT_EQ(a.tagOf(*line), 0x100u);
    a.invalidate(line);
    EXPECT_EQ(a.probe(0x100), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<St> a(1024, 4);
    const Addr stride = 4 * 64;  // same set
    for (int i = 0; i < 4; ++i)
        a.install(a.victim(0x1000 + i * stride), 0x1000 + i * stride);
    // Touch block 0 so block 1 becomes LRU.
    a.touch(a.probe(0x1000));
    auto *victim = a.victim(0x1000 + 7 * stride);
    ASSERT_TRUE(a.isValid(*victim));
    EXPECT_EQ(a.tagOf(*victim), 0x1000u + stride);
}

TEST(CacheArray, VictimWhereSkipsPinned)
{
    CacheArray<St> a(1024, 4);
    const Addr stride = 4 * 64;
    for (int i = 0; i < 4; ++i)
        a.install(a.victim(0x1000 + i * stride), 0x1000 + i * stride);
    const Addr pinned = 0x1000;  // the LRU line
    auto *victim = a.victimWhere(0x2000, [&](const CacheLine<St> &l) {
        return a.tagOf(l) != pinned;
    });
    ASSERT_NE(victim, nullptr);
    EXPECT_NE(a.tagOf(*victim), pinned);
    // All pinned: nullptr.
    auto *none = a.victimWhere(
        0x2000, [](const CacheLine<St> &) { return false; });
    EXPECT_EQ(none, nullptr);
}

TEST(CacheArray, ForEachValidAndCount)
{
    CacheArray<St> a(1024, 4);
    a.install(a.victim(0x000), 0x000);
    a.install(a.victim(0x040), 0x040);
    EXPECT_EQ(a.numValid(), 2u);
    Addr sum = 0;
    int n = 0;
    a.forEachValid([&](Addr blk, const CacheLine<St> &) {
        sum += blk;
        ++n;
    });
    EXPECT_EQ(n, 2);
    EXPECT_EQ(sum, 0x040u);
}

TEST(CacheArray, InvalidatedLineHasNoTag)
{
    CacheArray<St> a(1024, 4);
    auto *v = a.victim(0x0);
    EXPECT_FALSE(a.isValid(*v));
    a.install(v, 0x0);  // block 0 is a valid tag distinct from "empty"
    EXPECT_TRUE(a.isValid(*v));
    EXPECT_EQ(a.tagOf(*v), 0u);
    EXPECT_EQ(a.probe(0x0), v);
    a.invalidate(v);
    EXPECT_FALSE(a.isValid(*v));
    EXPECT_EQ(a.probe(0x0), nullptr);
}

TEST(CacheArray, FreshArrayHoldsNoSetStorage)
{
    CacheArray<St> l2(2 * 1024 * 1024, 4);
    EXPECT_EQ(l2.setsInUse(), 0u);
    EXPECT_EQ(l2.numValid(), 0u);
    EXPECT_EQ(l2.lineAt(0, 0), nullptr);
    EXPECT_EQ(l2.lineAt(l2.numSets() - 1, 3), nullptr);
}

TEST(CacheArray, ProbesOfUntouchedSetsAllocateNothing)
{
    CacheArray<St> a(128 * 1024, 4);
    for (Addr blk = 0; blk < 4 * a.numSets(); ++blk)
        EXPECT_EQ(a.probe(blk * blockBytes), nullptr);
    const CacheArray<St> &ca = a;
    EXPECT_EQ(ca.probe(0x40), nullptr);
    EXPECT_EQ(a.setsInUse(), 0u);
}

TEST(CacheArray, InstallsInDistinctSetsAllocateOneSetEach)
{
    CacheArray<St> a(128 * 1024, 4);
    const unsigned n = 37;
    for (unsigned i = 0; i < n; ++i) {
        // Every third set, twice per set: the second install reuses
        // the set's storage.
        const Addr addr = Addr(3 * i) * blockBytes;
        a.install(a.victim(addr), addr);
        const Addr alias = addr + Addr(a.numSets()) * blockBytes;
        a.install(a.victim(alias), alias);
        EXPECT_EQ(a.setsInUse(), i + 1);
    }
    EXPECT_EQ(a.numValid(), 2u * n);
    // victim() alone gives a set storage even when nothing installs.
    a.victim(Addr(1) * blockBytes);
    EXPECT_EQ(a.setsInUse(), n + 1);
    EXPECT_EQ(a.numValid(), 2u * n);
}

TEST(CacheArray, EarlyLinePointerSurvivesLaterAllocations)
{
    CacheArray<St> a(2 * 1024 * 1024, 4);
    auto *first = a.victim(0x40);
    a.install(first, 0x40);
    first->st.v = 1234;
    // Thousands of later sets get storage after the first one.
    for (Addr blk = 2; blk < a.numSets(); ++blk) {
        auto *v = a.victim(blk * blockBytes);
        a.install(v, blk * blockBytes);
        v->st.v = int(blk);
    }
    EXPECT_EQ(a.setsInUse(), a.numSets() - 1);
    // Storage that moved would leave `first` dangling: stop here.
    ASSERT_EQ(a.probe(0x40), first);
    EXPECT_TRUE(a.isValid(*first));
    EXPECT_EQ(a.tagOf(*first), 0x40u);
    EXPECT_EQ(first->st.v, 1234);
    EXPECT_EQ(a.probe(5 * blockBytes)->st.v, 5);
}

namespace {

/**
 * Reference: the array-of-structs layout the tag split replaced (tag
 * and valid bit stored in each line, strict-LRU victims).
 */
class AosArray
{
  public:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lruStamp = 0;
        St st{};
    };

    AosArray(std::uint64_t size_bytes, unsigned assoc)
        : _assoc(assoc), _numSets(size_bytes / (assoc * blockBytes)),
          _lines(_numSets * assoc)
    {
    }

    Line *
    probe(Addr addr)
    {
        const Addr blk = blockAlign(addr);
        Line *set = setFor(blk);
        for (unsigned w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].tag == blk)
                return &set[w];
        }
        return nullptr;
    }

    template <typename Pred>
    Line *
    victimWhere(Addr addr, Pred ok)
    {
        Line *set = setFor(blockAlign(addr));
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (ok(set[w]) &&
                (best == nullptr || set[w].lruStamp < best->lruStamp))
                best = &set[w];
        }
        return best;
    }

    Line *
    victim(Addr addr)
    {
        Line *set = setFor(blockAlign(addr));
        Line *lru = &set[0];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (set[w].lruStamp < lru->lruStamp)
                lru = &set[w];
        }
        return lru;
    }

    void touch(Line *l) { l->lruStamp = ++_useCounter; }

    void
    install(Line *l, Addr addr)
    {
        l->tag = blockAlign(addr);
        l->valid = true;
        l->st = St{};
        touch(l);
    }

    void
    invalidate(Line *l)
    {
        l->valid = false;
        l->st = St{};
    }

    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (const auto &l : _lines)
            n += l.valid ? 1 : 0;
        return n;
    }

    const std::vector<Line> &lines() const { return _lines; }

    std::ptrdiff_t
    indexOf(const Line *l) const
    {
        return l == nullptr ? -1 : l - _lines.data();
    }

  private:
    Line *
    setFor(Addr blk)
    {
        return &_lines[(blockNumber(blk) & (_numSets - 1)) * _assoc];
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::uint64_t _useCounter = 0;
    std::vector<Line> _lines;
};

/** Drive CacheArray and AosArray through one seeded op sequence and
 *  require identical (set, way) choices and identical tag, validity
 *  and state in every way throughout. */
void
lockStep(unsigned assoc, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << assoc << "-way seed " << seed);
    const unsigned sets = 8;
    const std::uint64_t bytes = std::uint64_t(sets) * assoc * blockBytes;
    CacheArray<St> a(bytes, assoc);
    AosArray ref(bytes, assoc);
    using Line = CacheArray<St>::Line;
    // A line's flat (set * assoc + way) position, found through the
    // array's own per-set view: sets get storage in first-use order,
    // so pointer distance says nothing about the set.
    auto idx = [&](const Line *l) -> std::ptrdiff_t {
        if (l == nullptr)
            return -1;
        for (unsigned set = 0; set < sets; ++set) {
            for (unsigned w = 0; w < assoc; ++w) {
                if (a.lineAt(set, w) == l)
                    return std::ptrdiff_t(set * assoc + w);
            }
        }
        ADD_FAILURE() << "line outside every set";
        return -2;
    };

    std::mt19937_64 rng(seed);
    // Four blocks per way keep every set under eviction pressure.
    const std::uint64_t blocks = std::uint64_t(4) * sets * assoc;
    auto randAddr = [&]() {
        return Addr(rng() % blocks) * blockBytes + rng() % blockBytes;
    };
    // Pin blocks whose number is a multiple of three.
    auto pinned = [](Addr tag) { return blockNumber(tag) % 3 == 0; };

    for (int step = 0; step < 4000; ++step) {
        const Addr addr = randAddr();
        Line *l = a.probe(addr);
        AosArray::Line *r = ref.probe(addr);
        ASSERT_EQ(idx(l), ref.indexOf(r)) << "probe, step " << step;
        switch (rng() % 6) {
          case 0:
            ASSERT_EQ(idx(a.victim(addr)), ref.indexOf(ref.victim(addr)))
                << "victim, step " << step;
            break;
          case 1: {
            Line *v = a.victimWhere(addr, [&](const Line &x) {
                return !pinned(a.tagOf(x));
            });
            AosArray::Line *rv = ref.victimWhere(
                addr, [&](const AosArray::Line &x) {
                    return !pinned(x.tag);
                });
            ASSERT_EQ(idx(v), ref.indexOf(rv))
                << "victimWhere, step " << step;
            if (l == nullptr && v != nullptr) {
                a.install(v, addr);
                ref.install(rv, addr);
                v->st.v = rv->st.v = step;
            }
            break;
          }
          case 2:
          case 3:
            if (l == nullptr) {
                Line *v = a.victim(addr);
                AosArray::Line *rv = ref.victim(addr);
                ASSERT_EQ(idx(v), ref.indexOf(rv))
                    << "victim, step " << step;
                a.install(v, addr);
                ref.install(rv, addr);
                v->st.v = rv->st.v = step;
            }
            break;
          case 4:
            if (l != nullptr) {
                a.touch(l);
                ref.touch(r);
            }
            break;
          case 5:
            if (l != nullptr) {
                a.invalidate(l);
                ref.invalidate(r);
            }
            break;
        }
        ASSERT_EQ(a.numValid(), ref.numValid()) << "step " << step;
        const auto &rl = ref.lines();
        for (std::size_t i = 0; i < rl.size(); ++i) {
            const Line *w = a.lineAt(i / assoc, unsigned(i % assoc));
            // An untouched set has no storage and holds nothing.
            ASSERT_EQ(w != nullptr && a.isValid(*w), rl[i].valid)
                << "way " << i << ", step " << step;
            if (rl[i].valid) {
                ASSERT_EQ(a.tagOf(*w), rl[i].tag)
                    << "way " << i << ", step " << step;
                ASSERT_EQ(w->st.v, rl[i].st.v)
                    << "way " << i << ", step " << step;
            }
        }
    }
}

} // namespace

TEST(CacheArray, LockStepWithArrayOfStructsLayout)
{
    for (unsigned assoc : {1u, 4u, 16u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            lockStep(assoc, seed);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(BackingStore, ReadWriteFootprint)
{
    BackingStore bs;
    EXPECT_EQ(bs.read(0x1000), 0u);
    bs.write(0x1000, 42);
    EXPECT_EQ(bs.read(0x1000), 42u);
    EXPECT_EQ(bs.read(0x1008), 42u);  // same block
    bs.write(0x2000, 1);
    EXPECT_EQ(bs.footprint(), 2u);
}

namespace {

/** Immediate-completion L1 stub for sequencer tests. */
class StubL1 : public L1CacheIF
{
  public:
    explicit StubL1(SimContext &ctx) : _ctx(ctx) {}
    void
    cpuRequest(const MemRequest &req) override
    {
        ++requests;
        lastOp = req.op;
        _ctx.eventq.schedule(ns(5), [req]() {
            req.callback(MemResult{7, ns(5)});
        });
    }
    unsigned requests = 0;
    MemOp lastOp = MemOp::Load;

  private:
    SimContext &_ctx;
};

} // namespace

TEST(Sequencer, RoutesOpsAndTracksLatency)
{
    SimContext ctx;
    StubL1 d(ctx), i(ctx);
    Sequencer seq(ctx, 3);
    seq.bind(&d, &i);
    EXPECT_EQ(seq.procId(), 3u);

    bool done = false;
    seq.load(0x100, [&](const MemResult &r) {
        EXPECT_EQ(r.value, 7u);
        done = true;
    });
    ctx.eventq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(d.requests, 1u);
    EXPECT_EQ(i.requests, 0u);

    seq.ifetch(0x200, [&](const MemResult &) {});
    ctx.eventq.run();
    EXPECT_EQ(i.requests, 1u);
    EXPECT_EQ(i.lastOp, MemOp::Ifetch);
    EXPECT_EQ(seq.opsCompleted(), 2u);
    EXPECT_DOUBLE_EQ(seq.latencyStat().mean(), double(ns(5)));
}

TEST(Sequencer, RejectsOverlappingOps)
{
    SimContext ctx;
    StubL1 d(ctx), i(ctx);
    Sequencer seq(ctx, 0);
    seq.bind(&d, &i);
    seq.load(0x100, [](const MemResult &) {});
    EXPECT_DEATH(seq.load(0x200, [](const MemResult &) {}),
                 "outstanding");
}

} // namespace tokencmp
