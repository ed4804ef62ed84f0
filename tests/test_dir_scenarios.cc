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
    SystemConfig cfg = dirCfg();
    cfg.l1Bytes = 1024;  // 4 sets: evictions on demand
    System sys(cfg);
    const Addr a = 4 * blockBytes;
    const Addr stride = 4 * blockBytes * 1;  // same L1 set: 4 sets
    // Dirty the block, then force its eviction while a remote chip
    // requests it. All orders must preserve the value.
    runStore(sys, 0, a, 42);
    for (int i = 1; i <= 4; ++i)
        runStore(sys, 0, a + Addr(i) * stride * 4, i);
    EXPECT_EQ(runLoad(sys, 12, a), 42u);
    drain(sys);
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
