/**
 * @file
 * Focused DirectoryCMP scenario tests: busy-state deferral, writeback
 * races, the inclusion-victim recall path, chip-level migratory
 * transfers, and directory state evolution at the home.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

SystemConfig
dirCfg()
{
    SystemConfig cfg;
    cfg.protocol = Protocol::DirectoryCMP;
    cfg.seed = 13;
    return cfg;
}

} // namespace

TEST(DirScenario, HomeDirectoryTracksOwnership)
{
    System sys(dirCfg());
    const Addr a = 4 * blockBytes;  // homed at CMP 1
    auto *home = sys.controller<DirMem>(1);
    EXPECT_EQ(home->peekState(a), DirState::Uncached);

    runStore(sys, 0, a, 1);
    drain(sys);
    EXPECT_EQ(home->peekState(a), DirState::Modified);

    // A remote non-migratory read is impossible here (the owner chip
    // stored), so the block migrates and stays Modified.
    runLoad(sys, 4, a);
    drain(sys);
    EXPECT_EQ(home->peekState(a), DirState::Modified);
}

TEST(DirScenario, SharedStateAfterCleanReads)
{
    System sys(dirCfg());
    const Addr a = 4 * blockBytes;
    // First read takes E; a second chip's read forces the downgrade
    // and the home ends Owned/Shared.
    runLoad(sys, 0, a);
    drain(sys);
    runLoad(sys, 4, a);
    drain(sys);
    runLoad(sys, 8, a);
    drain(sys);
    const DirState st = sys.controller<DirMem>(1)->peekState(a);
    EXPECT_TRUE(st == DirState::Shared || st == DirState::Owned);
}

TEST(DirScenario, ChipStateFollowsGrants)
{
    System sys(dirCfg());
    const Addr a = 4 * blockBytes;
    const unsigned bank = sys.context().topo.l2BankOf(a);
    runStore(sys, 0, a, 3);
    drain(sys);
    EXPECT_EQ(sys.controller<DirL2>(0, bank)->peekChip(a), ChipState::M);
    EXPECT_EQ(sys.controller<DirL2>(1, bank)->peekChip(a), ChipState::I);

    runStore(sys, 4, a, 4);
    drain(sys);
    EXPECT_EQ(sys.controller<DirL2>(1, bank)->peekChip(a), ChipState::M);
    EXPECT_EQ(sys.controller<DirL2>(0, bank)->peekChip(a), ChipState::I);
}

TEST(DirScenario, LocalL1ToL1TransferRoutesThroughL2)
{
    System sys(dirCfg());
    runStore(sys, 0, 0x9000, 5);
    drain(sys);
    const auto intra_before = sys.context().net->bytes(
        NetLevel::Intra, TrafficClass::ResponseData);
    // A same-chip read of the modified block: migratory grant, data
    // routed L1 -> L2 -> L1 (two on-chip data messages).
    EXPECT_EQ(runLoad(sys, 1, 0x9000), 5u);
    drain(sys);
    const auto intra_after = sys.context().net->bytes(
        NetLevel::Intra, TrafficClass::ResponseData);
    EXPECT_GE(intra_after - intra_before, 2 * 72u);
}

TEST(DirScenario, WritebackRaceWithForwardIsCancelled)
{
    // A 1 KB L1 has 4 sets of 4 ways. Proc 0 dirties `a` and fills its
    // set, then misses on a fifth block of the set: the fill evicts
    // `a` and opens its three-phase writeback window. A same-chip
    // atomic issued 190 ns after that miss (inside the 183-197 ns
    // band where the race occurs) gets its Fwd-GetX to proc 0 while
    // the WbRequest is in flight: the L1 answers from the writeback
    // buffer and cancels on the grant.
    SystemConfig cfg = dirCfg();
    cfg.l1Bytes = 1024;
    System sys(cfg);
    const Addr a = 4 * blockBytes;
    const Addr stride = 4 * blockBytes;  // same L1 set
    runStore(sys, 0, a, 42);
    for (unsigned i = 1; i <= 3; ++i)
        runStore(sys, 0, a + Addr(i) * stride, i);
    drain(sys);

    unsigned done = 0;
    std::uint64_t old = 0;
    sys.sequencer(0).store(a + 4 * stride, 4,
                           [&](const MemResult &) { ++done; });
    sys.context().eventq.schedule(ns(190), [&]() {
        sys.sequencer(1).atomic(
            a, [](std::uint64_t v) { return v + 1; },
            [&](const MemResult &r) {
                old = r.value;
                ++done;
            });
    });
    sys.context().eventq.runUntil([&]() { return done == 2; });
    drain(sys);

    const DirL1::Stats &st = sys.controller<DirL1>(0, 0)->stats;
    EXPECT_EQ(st.writebacks, 1u);
    EXPECT_GT(st.wbCancels, 0u);
    EXPECT_EQ(old, 42u) << "the buffered copy must reach the writer";
    EXPECT_EQ(runLoad(sys, 12, a), 43u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(DirScenario, RequestDuringWritebackReplaysAfterGrant)
{
    // The fill that evicts dirty `a` completes proc 0's store, whose
    // callback re-reads `a` at once: the request finds the block in
    // its writeback window, waits for the grant, and then replays as
    // an ordinary miss that must see the written-back value.
    SystemConfig cfg = dirCfg();
    cfg.l1Bytes = 1024;
    System sys(cfg);
    const Addr a = 4 * blockBytes;
    const Addr stride = 4 * blockBytes;
    runStore(sys, 0, a, 42);
    for (unsigned i = 1; i <= 3; ++i)
        runStore(sys, 0, a + Addr(i) * stride, i);
    drain(sys);

    const DirL1::Stats &st = sys.controller<DirL1>(0, 0)->stats;
    const std::uint64_t misses_before = st.misses;
    bool reloaded = false;
    std::uint64_t value = 0;
    sys.sequencer(0).store(a + 4 * stride, 4, [&](const MemResult &) {
        sys.sequencer(0).load(a, [&](const MemResult &r) {
            value = r.value;
            reloaded = true;
        });
    });
    sys.context().eventq.runUntil([&]() { return reloaded; });
    drain(sys);

    // The refill of `a` evicts the next dirty block of the set.
    EXPECT_EQ(st.writebacks, 2u);
    EXPECT_EQ(st.wbCancels, 0u);
    EXPECT_EQ(st.misses - misses_before, 2u);
    EXPECT_EQ(value, 42u);
    EXPECT_EQ(runLoad(sys, 12, a), 42u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(DirScenario, RecallWritebackRaceWithRemoteStoreIsCancelled)
{
    // Procs 0-3 own four blocks of one L2 set (4 ways), so proc 0's
    // miss on a fifth block recalls the LRU owner line, `base`, and
    // writes it home. A remote atomic issued 7 ns later (the race
    // occurs for 0-14 ns) reaches the home first: the home forwards
    // its Fwd-GetX to chip 0 and defers the WbRequest, so the L2
    // answers from its writeback buffer and cancels on the grant. No
    // writeback data crosses the network although the home counts
    // one writeback.
    System sys(dirCfg());
    const Addr base = 4 * blockBytes;
    const Addr set_stride = 8192 * blockBytes;  // same L2 set and home
    for (unsigned k = 0; k < 4; ++k)
        runStore(sys, k, base + Addr(k) * set_stride, 100 + k);
    drain(sys);

    unsigned done = 0;
    std::uint64_t old = 0;
    sys.sequencer(0).store(base + 4 * set_stride, 104,
                           [&](const MemResult &) { ++done; });
    sys.context().eventq.schedule(ns(7), [&]() {
        sys.sequencer(4).atomic(
            base, [](std::uint64_t v) { return v + 1; },
            [&](const MemResult &r) {
                old = r.value;
                ++done;
            });
    });
    sys.context().eventq.runUntil([&]() { return done == 2; });
    drain(sys);

    const Topology &topo = sys.context().topo;
    EXPECT_EQ(sys.controller<DirL2>(0, topo.l2BankOf(base))
                  ->stats.wbHomeOut,
              1u);
    EXPECT_EQ(sys.controller<DirMem>(topo.homeCmpOf(base))
                  ->stats.writebacks,
              1u);
    std::uint64_t wb_data = 0;
    for (NetLevel l : {NetLevel::Intra, NetLevel::Inter, NetLevel::MemLink})
        wb_data += sys.context().net->bytes(l, TrafficClass::WritebackData);
    EXPECT_EQ(wb_data, 0u) << "the writeback was not cancelled";
    EXPECT_EQ(old, 100u);
    EXPECT_EQ(runLoad(sys, 12, base), 101u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(DirScenario, HomeSharedStateServesReadsAndWrites)
{
    // The home reaches Shared only when an owner chip writes back
    // while other chips share. Proc 0 dirties `a` and drops it from
    // its L1 (conflicting L1 fills), so chip 0's L2 holds the only
    // on-chip copy. A remote read without migratory sharing leaves
    // chip 0 the owner (O) and chip 1 a sharer; conflicting L2 fills
    // then write `a` home from O, and the home lands in Shared.
    SystemConfig cfg = dirCfg();
    cfg.dir.migratory = false;
    System sys(cfg);
    const Topology &topo = sys.context().topo;
    const Addr a = 4 * blockBytes;
    const Addr l1_stride = 512 * blockBytes;   // same L1 set only
    const Addr l2_stride = 8192 * blockBytes;  // same L2 set
    DirMem *home = sys.controller<DirMem>(topo.homeCmpOf(a));

    runStore(sys, 0, a, 7);
    for (unsigned i = 1; i <= 4; ++i)
        runLoad(sys, 0, a + Addr(i) * l1_stride);
    drain(sys);
    EXPECT_EQ(runLoad(sys, 4, a), 7u);
    drain(sys);
    EXPECT_EQ(home->peekState(a), DirState::Owned);
    for (unsigned i = 1; i <= 4; ++i)
        runLoad(sys, 1, a + Addr(i) * l2_stride);
    drain(sys);
    ASSERT_EQ(home->peekState(a), DirState::Shared);

    // Shared GetS: memory supplies the written-back value.
    const std::uint64_t mem_before = home->stats.memResponses;
    EXPECT_EQ(runLoad(sys, 8, a), 7u);
    drain(sys);
    EXPECT_EQ(home->stats.memResponses - mem_before, 1u);
    EXPECT_EQ(home->peekState(a), DirState::Shared);

    // Shared GetX: both sharer chips are invalidated.
    const std::uint64_t invs_before = home->stats.invalidations;
    runStore(sys, 12, a, 8);
    drain(sys);
    EXPECT_EQ(home->stats.invalidations - invs_before, 2u);
    EXPECT_EQ(home->peekState(a), DirState::Modified);
    EXPECT_EQ(runLoad(sys, 4, a), 8u);
    EXPECT_EQ(runLoad(sys, 0, a), 8u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(DirScenarioDeathTest, QuiescenceAuditSeesWorkInFlight)
{
    // The audit must not pass vacuously: with a miss still at the home
    // directory, some controller reports work in flight.
    EXPECT_DEATH(
        {
            System sys(dirCfg());
            sys.sequencer(0).store(4 * blockBytes, 1,
                                   [](const MemResult &) {});
            sys.context().eventq.run(ns(50));
            sys.verifyQuiescent();
        },
        "work in flight at quiescence");
}

TEST(DirScenario, StateNames)
{
    EXPECT_STREQ(l1StateName(L1State::I), "I");
    EXPECT_STREQ(l1StateName(L1State::S), "S");
    EXPECT_STREQ(l1StateName(L1State::E), "E");
    EXPECT_STREQ(l1StateName(L1State::M), "M");
    EXPECT_STREQ(chipStateName(ChipState::I), "I");
    EXPECT_STREQ(chipStateName(ChipState::S), "S");
    EXPECT_STREQ(chipStateName(ChipState::O), "O");
    EXPECT_STREQ(chipStateName(ChipState::M), "M");
    EXPECT_STREQ(dirStateName(DirState::Uncached), "Uncached");
    EXPECT_STREQ(dirStateName(DirState::Shared), "Shared");
    EXPECT_STREQ(dirStateName(DirState::Owned), "Owned");
    EXPECT_STREQ(dirStateName(DirState::Modified), "Modified");
}

TEST(DirScenario, InclusionVictimRecall)
{
    System sys(dirCfg());
    // Nine blocks mapping to one L2 set, all kept dirty in L1s of the
    // same chip: allocation pressure must recall owner lines without
    // deadlock or data loss.
    const Addr base = 4 * blockBytes;
    const Addr set_stride = 4 * 8192 * blockBytes;
    for (unsigned k = 0; k < 9; ++k)
        runStore(sys, k % 4, base + Addr(k) * set_stride, 100 + k);
    drain(sys);
    for (unsigned k = 0; k < 9; ++k) {
        EXPECT_EQ(runLoad(sys, 8 + (k % 4), base + Addr(k) * set_stride),
                  100 + k)
            << "block " << k;
    }
}

TEST(DirScenario, ZeroDirVariantSameSemantics)
{
    SystemConfig cfg = dirCfg();
    cfg.protocol = Protocol::DirectoryCMPZero;
    System sys(cfg);
    CounterWorkload wl(0xa000, 12);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, 5, 0xa000), 16u * 12u);
}

TEST(DirScenario, DeferredRequestsDrainInOrder)
{
    System sys(dirCfg());
    // Many processors storm one block; the per-block busy chains at
    // the home and the L2 must drain every request.
    unsigned done = 0;
    for (unsigned p = 0; p < 16; ++p) {
        sys.sequencer(p).load(0xb000, [&](const MemResult &) {
            ++done;
        });
    }
    sys.context().eventq.runUntil([&]() { return done == 16; },
                                  ns(1000000));
    EXPECT_EQ(done, 16u);
    std::uint64_t l2_deferrals = 0, home_deferrals = 0;
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned b = 0; b < 4; ++b)
            l2_deferrals += sys.controller<DirL2>(c, b)->stats.deferrals;
        home_deferrals += sys.controller<DirMem>(c)->stats.deferrals;
    }
    // The storm must actually queue requests behind busy blocks at
    // both levels, or the drain above proves nothing about the FIFOs.
    EXPECT_GT(l2_deferrals, 0u);
    EXPECT_GT(home_deferrals, 0u);
}

TEST(DirScenario, MigratoryOffKeepsSharers)
{
    SystemConfig cfg = dirCfg();
    cfg.dir.migratory = false;
    System sys(cfg);
    const Addr a = 4 * blockBytes;
    runStore(sys, 0, a, 9);
    drain(sys);
    // Without migratory, a remote read leaves the owner with a copy.
    EXPECT_EQ(runLoad(sys, 4, a), 9u);
    drain(sys);
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, a, &lat), 9u);
    EXPECT_LE(lat, ns(40)) << "old owner should still hit on chip";
}

} // namespace tokencmp::test
