/**
 * @file
 * Focused TokenCMP scenario tests: exclusive grants, token shedding,
 * filters, predictors, persistent-read semantics, response-delay
 * behavior, and timeout/EWMA plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

SystemConfig
tokenCfg(const std::string &policy = "dst1")
{
    SystemConfig cfg = SystemConfig::select(policy);
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(TokenScenario, UncachedReadGetsExclusiveGrant)
{
    // Memory grants all tokens for an uncached block (the token
    // analogue of MOESI E), so read-then-write costs one miss.
    System sys(tokenCfg());
    EXPECT_EQ(runLoad(sys, 0, 0x1000), 0u);
    drain(sys);
    const TokenSt *line = sys.controller<TokenL1>(0, 0)->peek(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, sys.config().token.totalTokens);
    EXPECT_TRUE(line->owner);
    Tick lat = 0;
    runStore(sys, 0, 0x1000, 7, &lat);
    EXPECT_EQ(lat, ns(2));  // write hits
}

TEST(TokenScenario, SharedReadSeedsL2WithSurplus)
{
    System sys(tokenCfg());
    // Proc 0 (CMP 0) writes, proc 4 (CMP 1) reads: C-token response.
    runStore(sys, 0, 0x2000, 1);
    drain(sys);
    // First remote read takes everything (migratory); the NEXT reader
    // gets a C-token response from the new owner.
    EXPECT_EQ(runLoad(sys, 4, 0x2000), 1u);
    drain(sys);
    EXPECT_EQ(runLoad(sys, 8, 0x2000), 1u);
    drain(sys);
    // Proc 8's L1 kept one token; the surplus seeded its L2 bank.
    const TokenSt *l1 = sys.controller<TokenL1>(2, 0)->peek(0x2000);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l1->tokens, 1);
    const TokenSt *l2 =
        sys.controller<TokenL2>(2, sys.context().topo.l2BankOf(0x2000))
            ->peek(0x2000);
    ASSERT_NE(l2, nullptr);
    EXPECT_GT(l2->tokens, 0);
    EXPECT_TRUE(l2->validData);

    // A sibling's read is now satisfied on-chip by the L2.
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 9, 0x2000, &lat), 1u);
    EXPECT_LT(lat, ns(40));
}

TEST(TokenScenario, ResponseDelayProtectsCriticalSection)
{
    // With the delay, an atomic's tokens cannot be stolen before the
    // release store; the store must hit.
    System sys(tokenCfg());
    std::uint64_t old = runAtomicInc(sys, 0, 0x3000);
    EXPECT_EQ(old, 0u);
    // Concurrent remote atomic wants the block.
    bool remote_done = false;
    sys.sequencer(8).atomic(0x3000,
                            [](std::uint64_t v) { return v + 1; },
                            [&](const MemResult &) {
                                remote_done = true;
                            });
    // Within the hold window the local release store still hits.
    Tick lat = 0;
    runStore(sys, 0, 0x3000, 100, &lat);
    EXPECT_EQ(lat, ns(2));
    sys.context().eventq.runUntil([&]() { return remote_done; });
    EXPECT_TRUE(remote_done);
    EXPECT_EQ(runLoad(sys, 3, 0x3000), 101u);
}

TEST(TokenScenario, PersistentReadLeavesReadersReadable)
{
    // dst0 issues persistent requests for every miss; persistent
    // *reads* must not strip other readers below one token.
    System sys(tokenCfg("dst0"));
    runLoad(sys, 0, 0x4000);
    drain(sys);
    runLoad(sys, 4, 0x4000);
    drain(sys);
    runLoad(sys, 8, 0x4000);
    drain(sys);
    // All three keep at least one token -> re-reads hit.
    for (unsigned p : {0u, 4u, 8u}) {
        Tick lat = 0;
        EXPECT_EQ(runLoad(sys, p, 0x4000, &lat), 0u);
        EXPECT_EQ(lat, ns(2)) << "proc " << p;
    }
    sys.tokenGlobals()->auditor.checkAll(false);
}

TEST(TokenScenario, FilterVariantStillServesExternalRequests)
{
    System sys(tokenCfg("dst1-filt"));
    runStore(sys, 1, 0x5000, 9);   // CMP 0, L1 of proc 1
    drain(sys);
    // Remote read must find the block despite the filter.
    EXPECT_EQ(runLoad(sys, 13, 0x5000), 9u);
    drain(sys);
    auto *l2 = sys.controller<TokenL2>(0, sys.context().topo.l2BankOf(0x5000));
    EXPECT_GT(l2->stats.filteredRelays + l2->stats.relaysToL1, 0u);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenScenario, PredictorVariantShortcutsHotBlocks)
{
    SystemConfig cfg = tokenCfg("dst1-pred");
    System sys(cfg);
    CounterWorkload wl(0x6000, 30);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, 0, 0x6000), 16u * 30u);
    // Under this much contention the predictor should have fired at
    // least occasionally.
    std::uint64_t predicted = 0;
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned p = 0; p < 4; ++p)
            predicted +=
                sys.controller<TokenL1>(c, p)->stats.predictedPersistents;
    }
    EXPECT_GE(predicted, 0u);  // presence exercised; count may be 0
}

TEST(TokenScenario, WritebackCarriesOwnershipHome)
{
    SystemConfig cfg = tokenCfg();
    cfg.l1Bytes = 1024;       // force L1 evictions quickly
    System sys(cfg);
    // Two blocks in the same L1 set, same home.
    const Addr a = 4 * blockBytes;
    const Addr conflict_stride = 4 * 4 * 8192 * blockBytes;
    runStore(sys, 0, a, 5);
    for (int i = 1; i <= 4; ++i)
        runStore(sys, 0, a + Addr(i) * conflict_stride, i);
    drain(sys);
    // The original block was evicted through L2 (possibly to home);
    // its value must survive and all tokens must be accounted for.
    EXPECT_EQ(runLoad(sys, 15, a), 5u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenScenario, ConcurrentWritersSerialize)
{
    System sys(tokenCfg());
    // All 16 processors storing distinct values; last writer's value
    // must be one of the written values and all reads agree.
    unsigned done = 0;
    for (unsigned p = 0; p < 16; ++p) {
        sys.sequencer(p).store(0x7000, 100 + p,
                               [&](const MemResult &) { ++done; });
    }
    sys.context().eventq.runUntil([&]() { return done == 16; });
    const std::uint64_t v0 = runLoad(sys, 0, 0x7000);
    EXPECT_GE(v0, 100u);
    EXPECT_LT(v0, 116u);
    for (unsigned p : {3u, 7u, 12u})
        EXPECT_EQ(runLoad(sys, p, 0x7000), v0);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

namespace {

/**
 * Adversarial racing workload: every processor hammers the same block
 * with zero-think atomic increments, so CMPs continuously activate
 * persistent-table entries for one block inside the same lookahead
 * window. Observed pre-increment values are collected under a mutex;
 * a correct protocol serializes the increments, so the sorted
 * observations must be exactly 0..N-1 (each value seen once).
 */
class RacingAtomicWorkload : public Workload
{
  public:
    RacingAtomicWorkload(Addr addr, unsigned increments)
        : _addr(addr), _increments(increments)
    {}

    class Thread : public ThreadContext
    {
      public:
        Thread(SimContext &ctx, Sequencer &seq,
               RacingAtomicWorkload &wl)
            : ThreadContext(ctx, seq), _wl(wl)
        {}
        void start() override { step(); }

      private:
        void
        step()
        {
            if (_done == _wl._increments) {
                finish();
                return;
            }
            ++_done;
            atomic(_wl._addr,
                   [](std::uint64_t v) { return v + 1; },
                   [this](std::uint64_t old) {
                       _wl.observe(old);
                       step();
                   });
        }
        RacingAtomicWorkload &_wl;
        unsigned _done = 0;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t) override
    {
        return std::make_unique<Thread>(ctx, seq, *this);
    }

    void
    observe(std::uint64_t old)
    {
        std::lock_guard<std::mutex> guard(_mu);
        _observed.push_back(old);
    }

    /** True iff the observed pre-values are exactly 0..N-1. */
    bool
    serializedCleanly(std::uint64_t expected) const
    {
        std::vector<std::uint64_t> got = _observed;
        if (got.size() != expected)
            return false;
        std::sort(got.begin(), got.end());
        for (std::uint64_t i = 0; i < expected; ++i) {
            if (got[i] != i)
                return false;
        }
        return true;
    }

    std::string name() const override { return "racing-atomics"; }

  private:
    friend class Thread;
    Addr _addr;
    unsigned _increments;
    std::mutex _mu;
    std::vector<std::uint64_t> _observed;
};

/** Run the race on `shards` workers; return the gathered stats. */
StatSet
runPersistentRace(const std::string &policy, unsigned shards,
                  System **sys_out, std::unique_ptr<System> &keeper)
{
    SystemConfig cfg = SystemConfig::select(policy);
    cfg.seed = 7;
    cfg.shards = shards;

    RacingAtomicWorkload wl(0x9000, 12);
    keeper = std::make_unique<System>(cfg);
    System &sys = *keeper;
    if (sys_out != nullptr)
        *sys_out = &sys;

    System::RunResult r = sys.run(wl);
    const std::uint64_t expected = 12ull * cfg.topo.numProcs();

    // Starvation-freedom: every processor's every increment finished.
    EXPECT_TRUE(r.completed) << policy << " shards=" << shards;
    EXPECT_TRUE(wl.serializedCleanly(expected))
        << policy << " shards=" << shards;
    // Token conservation, owner uniqueness, and quiescence.
    sys.tokenGlobals()->auditor.checkAll(true);
    return r.stats;
}

} // namespace

TEST(TokenScenario, RacingPersistentRequestsAcrossCmpsStarvationFree)
{
    // dst0 turns every miss into a distributed persistent request, so
    // racing increments from all four CMPs continuously activate
    // persistent-table entries for the same block within one shard
    // lookahead window. Both the serial and the sharded kernel must
    // complete the race without starvation or conservation failures.
    for (unsigned shards : {0u, 4u}) {
        std::unique_ptr<System> keeper;
        System *sys = nullptr;
        StatSet stats = runPersistentRace("dst0", shards, &sys, keeper);
        EXPECT_GT(stats.get("token.persistents"), 0.0);
        // The race really spanned CMPs: persistent requests were
        // issued from L1s on at least two different chips.
        unsigned cmps_issuing = 0;
        for (unsigned c = 0; c < 4; ++c) {
            std::uint64_t n = 0;
            for (unsigned p = 0; p < 4; ++p)
                n += sys->controller<TokenL1>(c, p)->stats.persistents;
            cmps_issuing += n > 0 ? 1 : 0;
        }
        EXPECT_GE(cmps_issuing, 2u) << "shards=" << shards;
    }
}

TEST(TokenScenario, RacingPersistentRequestsShardInvariant)
{
    // The same adversarial race must be bit-identical for every
    // sharded worker count (the determinism contract under maximal
    // persistent-table contention), for both activation styles.
    for (const char *policy : {"dst0", "arb0"}) {
        std::unique_ptr<System> k1, k4, k8;
        StatSet s1 = runPersistentRace(policy, 1, nullptr, k1);
        StatSet s4 = runPersistentRace(policy, 4, nullptr, k4);
        StatSet s8 = runPersistentRace(policy, 8, nullptr, k8);
        ASSERT_EQ(s1.all().size(), s4.all().size());
        for (const auto &[key, val] : s1.all()) {
            EXPECT_EQ(val, s4.get(key)) << policy << ": " << key;
            EXPECT_EQ(val, s8.get(key)) << policy << ": " << key;
        }
    }
}

TEST(TokenScenario, RequestParkedBeforeTokensArriveIsAnswered)
{
    // Proc 1's load miss gets every token of an uncached block at tick
    // `filled`. Proc 0's store miss multicasts its transient request
    // `early` ticks before that, so the copy to proc 1's L1 (which
    // still holds no tokens) is parked; it arrives 4.125 ns later,
    // after the tokens. Eager delivery finds proc 1 holding them and
    // idle, so it hands everything over and proc 0 needs no retry.
    // Without the wake on proc 1's first token the copy is lost and
    // proc 0 only succeeds by timing out (dst1 then goes persistent).
    constexpr Addr kAddr = 0x5000;
    Tick filled = 0;
    {
        System sys(tokenCfg());
        runLoad(sys, 1, kAddr, &filled);
    }
    for (Tick early = 250; early < ns(4); early += 250) {
        SCOPED_TRACE("store issued " + std::to_string(early) +
                     " ticks before the load's tokens arrive");
        System sys(tokenCfg());
        bool loaded = false, stored = false;
        sys.sequencer(1).load(kAddr,
                              [&](const MemResult &) { loaded = true; });
        sys.context().eventq.scheduleAbs(filled - early, [&]() {
            sys.sequencer(0).store(
                kAddr, 9, [&](const MemResult &) { stored = true; });
        });
        sys.context().eventq.runUntil(
            [&]() { return loaded && stored; }, ns(1000000));
        ASSERT_TRUE(loaded && stored);
        const TokenL1::Stats &st = sys.controller<TokenL1>(0, 0)->stats;
        EXPECT_EQ(st.retries + st.persistents, 0u);
        EXPECT_EQ(sys.controller<TokenL1>(0, 1)->peek(kAddr), nullptr);
        drain(sys);
        sys.tokenGlobals()->auditor.checkAll(true);
    }
}

namespace {

/** Everything an ignored request must leave alone at one L1. */
struct L1Snapshot
{
    bool hasLine = false;
    TokenSt st;
    std::size_t outstanding = 0;
    TokenL1::Stats stats;
    std::uint64_t messages = 0;
    std::size_t events = 0;
};

L1Snapshot
snapshot(System &sys, const TokenL1 &l1, Addr addr)
{
    L1Snapshot s;
    if (const TokenSt *st = l1.peek(addr)) {
        s.hasLine = true;
        s.st = *st;
    }
    s.outstanding = l1.outstanding();
    s.stats = l1.stats;
    s.messages = sys.context().net->totalMessages();
    s.events = sys.context().eventq.size();
    return s;
}

void
expectSame(const L1Snapshot &a, const L1Snapshot &b)
{
    static_assert(
        std::has_unique_object_representations_v<TokenL1::Stats>);
    EXPECT_EQ(a.hasLine, b.hasLine);
    EXPECT_EQ(a.st.tokens, b.st.tokens);
    EXPECT_EQ(a.st.owner, b.st.owner);
    EXPECT_EQ(a.st.validData, b.st.validData);
    EXPECT_EQ(a.st.dirty, b.st.dirty);
    EXPECT_EQ(a.st.locallyModified, b.st.locallyModified);
    EXPECT_EQ(a.st.value, b.st.value);
    EXPECT_EQ(a.st.holdUntil, b.st.holdUntil);
    EXPECT_EQ(a.st.recheckScheduled, b.st.recheckScheduled);
    EXPECT_EQ(a.outstanding, b.outstanding);
    EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.events, b.events);
}

} // namespace

TEST(TokenScenario, IgnoredTransientRequestsChangeNothing)
{
    // Parking rests on the holder mask: a transient request to an L1
    // whose holder bit is clear would, delivered, change no state and
    // send nothing. Put proc 1's L1 through no, some and all tokens, a
    // lost line, an outstanding miss and active persistent requests,
    // then deliver every transient request its clear bit would park
    // straight to handleMsg and compare everything it could have
    // touched.
    constexpr Addr kFresh = 0x9000, kSome = 0xa000, kAll = 0xb000,
                   kGone = 0xc000, kMiss = 0xd000, kPers = 0xe000;
    System sys(tokenCfg());
    const Topology &t = sys.context().topo;
    TokenL1 &l1 = *sys.controller<TokenL1>(0, 1);
    const MachineID self = t.l1d(0, 1);
    const TokenGlobals &g = *sys.tokenGlobals();
    auto parked = [&](Addr addr) {
        return ((g.holderMask(0, addr) >> l1SlotOf(t, self)) & 1) == 0;
    };

    unsigned checked = 0;
    auto deliverIgnored = [&](Addr addr, bool want_ignored) {
        SCOPED_TRACE(testing::Message() << "block 0x" << std::hex
                                        << addr);
        for (MsgType type : {MsgType::TokReadReq, MsgType::TokWriteReq}) {
            // A peer L1's own request, and a remote request relayed
            // by the local L2 bank.
            for (bool relayed : {false, true}) {
                Msg m;
                m.type = type;
                m.addr = addr;
                m.requestor = relayed ? t.l1d(1, 0) : t.l1d(0, 2);
                m.src = relayed ? t.l2BankFor(0, addr) : m.requestor;
                m.dst = self;
                EXPECT_EQ(parked(addr), want_ignored)
                    << msgTypeName(type) << (relayed ? " relayed" : "");
                if (!parked(addr))
                    continue;
                ++checked;
                const L1Snapshot before = snapshot(sys, l1, addr);
                l1.handleMsg(m);
                expectSame(before, snapshot(sys, l1, addr));
            }
        }
    };

    // No valid line at all.
    deliverIgnored(kFresh, true);

    runLoad(sys, 0, kSome);  // proc 0: every token
    runLoad(sys, 1, kSome);  // proc 1: one of them
    ASSERT_NE(l1.peek(kSome), nullptr);
    ASSERT_GT(l1.peek(kSome)->tokens, 0);
    ASSERT_LT(l1.peek(kSome)->tokens, sys.tokenGlobals()->params.totalTokens);
    runStore(sys, 1, kAll, 7);
    ASSERT_EQ(l1.peek(kAll)->tokens, sys.tokenGlobals()->params.totalTokens);
    runStore(sys, 1, kGone, 8);
    runStore(sys, 2, kGone, 9);  // takes every token from proc 1
    ASSERT_EQ(l1.peek(kGone), nullptr);
    drain(sys);

    deliverIgnored(kFresh, true);
    deliverIgnored(kSome, false);
    deliverIgnored(kAll, false);
    deliverIgnored(kGone, true);

    // An outstanding miss: the L1 holds a 0-token line for it.
    bool loaded = false;
    sys.sequencer(1).load(kMiss, [&](const MemResult &) { loaded = true; });
    sys.context().eventq.runUntil([&]() { return l1.outstanding() > 0; },
                                  sys.context().eventq.curTick() + ns(100));
    ASSERT_EQ(l1.outstanding(), 1u);
    ASSERT_NE(l1.peek(kMiss), nullptr);
    ASSERT_EQ(l1.peek(kMiss)->tokens, 0);
    deliverIgnored(kMiss, true);

    // Active persistent requests from procs 5 and 6, for a block the
    // L1 does not hold and for the block of its outstanding miss.
    for (unsigned p : {1u, 2u}) {
        const Addr addr = p == 1 ? kPers : kMiss;
        Msg pa;
        pa.type = MsgType::PersistActivate;
        pa.addr = addr;
        pa.isRead = false;
        pa.prio = std::uint8_t(t.procsPerCmp + p);
        pa.reqId = 1;
        pa.requestor = t.l1d(1, p);
        pa.src = pa.requestor;
        pa.dst = self;
        l1.handleMsg(pa);
        ASSERT_GE(l1.persistentTable().activeFor(addr), 0);
    }
    deliverIgnored(kPers, true);
    deliverIgnored(kMiss, true);
    deliverIgnored(kSome, false);
    deliverIgnored(kAll, false);
    // 2 types x 2 sources x 6 ignored (block, state) pairs.
    EXPECT_EQ(checked, 24u);
}

TEST(TokenScenarioDeathTest, QuiescenceAuditNamesAWrongHolderBit)
{
    // The holder mask must equal (line and (tokens > 0 or valid data))
    // at every L1 when the system is quiet; one corrupted bit fails
    // the audit, which names the L1 and the block.
    constexpr Addr kAddr = 0x7000;
    for (bool set_stray : {true, false}) {
        System sys(tokenCfg());
        runLoad(sys, 0, kAddr);  // proc 0 takes every token
        drain(sys);
        sys.verifyQuiescent(true);
        const Topology &t = sys.context().topo;
        TokenGlobals &g = *sys.tokenGlobals();
        if (set_stray) {
            g.setHolder(t.l1d(0, 1), kAddr);
            EXPECT_DEATH(sys.verifyQuiescent(true),
                         "holder bit of block 0x7000 at L1D\\[c0\\.1\\] is "
                         "set, but the L1 has no line");
        } else {
            g.clearHolder(t.l1d(0, 0), kAddr);
            EXPECT_DEATH(sys.verifyQuiescent(true),
                         "holder bit of block 0x7000 at L1D\\[c0\\.0\\] is "
                         "clear, but its line holds");
        }
    }

    // A read waiting for a token holds a line with no tokens and no
    // data; a data-only answer (a 1-token owner's answer to a
    // persistent read) gives it valid data, which sets its bit.
    System sys(tokenCfg());
    runLoad(sys, 0, kAddr);
    drain(sys);
    const Topology &t = sys.context().topo;
    TokenGlobals &g = *sys.tokenGlobals();
    const MachineID self = t.l1d(0, 1);
    TokenL1 &l1 = *sys.controller<TokenL1>(0, 1);
    std::vector<const TokenL1 *> chip;
    for (const MachineID &id : g.chipL1s(0))
        chip.push_back(dynamic_cast<const TokenL1 *>(sys.controllerAt(id)));
    sys.sequencer(1).load(kAddr, [](const MemResult &) {});
    sys.context().eventq.runUntil([&]() { return l1.outstanding() > 0; },
                                  sys.context().eventq.curTick() + ns(100));
    ASSERT_EQ(l1.outstanding(), 1u);
    TokenL1::auditHolders(chip);
    g.setHolder(self, kAddr);
    EXPECT_DEATH(TokenL1::auditHolders(chip),
                 "holder bit of block 0x7000 at L1D\\[c0\\.1\\] is set, but "
                 "its line holds 0 tokens and no data");
    g.clearHolder(self, kAddr);

    Msg data;
    data.type = MsgType::TokResponse;
    data.addr = kAddr;
    data.src = t.l2BankFor(0, kAddr);
    data.dst = self;
    data.requestor = self;
    data.hasData = true;
    l1.handleMsg(data);
    ASSERT_EQ(l1.peek(kAddr)->tokens, 0);
    ASSERT_TRUE(l1.peek(kAddr)->validData);
    TokenL1::auditHolders(chip);
    g.clearHolder(self, kAddr);
    EXPECT_DEATH(TokenL1::auditHolders(chip),
                 "holder bit of block 0x7000 at L1D\\[c0\\.1\\] is clear, "
                 "but its line holds 0 tokens and valid data");
}

TEST(TokenScenario, MixedInstructionAndDataSharing)
{
    System sys(tokenCfg());
    // The same block fetched as code and read as data across CMPs.
    bool f1 = false, f2 = false;
    sys.sequencer(2).ifetch(0x8000,
                            [&](const MemResult &) { f1 = true; });
    sys.context().eventq.runUntil([&]() { return f1; });
    EXPECT_EQ(runLoad(sys, 9, 0x8000), 0u);
    sys.sequencer(14).ifetch(0x8000,
                             [&](const MemResult &) { f2 = true; });
    sys.context().eventq.runUntil([&]() { return f2; });
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

} // namespace tokencmp::test
