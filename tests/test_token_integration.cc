/**
 * @file
 * End-to-end tests of the TokenCMP protocol on the full 4x4 target:
 * miss flows, migratory transfers, evictions, token conservation at
 * quiescence, linearizable atomics, and all persistent-request
 * variants.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

SystemConfig
tokenCfg(const std::string &policy = "dst1")
{
    SystemConfig cfg = SystemConfig::select(policy);
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(TokenIntegration, ColdLoadFetchesFromMemory)
{
    System sys(tokenCfg());
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, 0x1000, &lat), 0u);
    // Miss -> local broadcast -> L2 escalation -> home DRAM -> back.
    EXPECT_GT(lat, ns(80));
    EXPECT_LT(lat, ns(400));
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenIntegration, StoreThenLoadSameProcessorHits)
{
    System sys(tokenCfg());
    runStore(sys, 0, 0x2000, 42);
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, 0x2000, &lat), 42u);
    EXPECT_EQ(lat, ns(2));  // L1 hit
}

TEST(TokenIntegration, StoreVisibleToRemoteCmp)
{
    System sys(tokenCfg());
    runStore(sys, 0, 0x3000, 77);   // proc 0 = CMP 0
    EXPECT_EQ(runLoad(sys, 12, 0x3000), 77u);  // proc 12 = CMP 3
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenIntegration, MigratoryReadTransfersAllTokens)
{
    System sys(tokenCfg());
    runStore(sys, 0, 0x4000, 5);
    drain(sys);
    // A remote read of a locally-modified block migrates everything.
    EXPECT_EQ(runLoad(sys, 4, 0x4000), 5u);
    drain(sys);
    const TokenSt *line = sys.controller<TokenL1>(1, 0)->peek(0x4000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, sys.config().token.totalTokens);
    EXPECT_TRUE(line->owner);
    // The writer's copy is gone.
    const TokenSt *old = sys.controller<TokenL1>(0, 0)->peek(0x4000);
    EXPECT_TRUE(old == nullptr || old->tokens == 0);
}

TEST(TokenIntegration, ReadSharingGivesSingleTokens)
{
    System sys(tokenCfg());
    // Proc 0 loads an uncached block: exclusive grant (all tokens),
    // the token analogue of MOESI E.
    EXPECT_EQ(runLoad(sys, 0, 0x5000), 0u);
    drain(sys);
    const TokenSt *l0 = sys.controller<TokenL1>(0, 0)->peek(0x5000);
    ASSERT_NE(l0, nullptr);
    EXPECT_EQ(l0->tokens, sys.config().token.totalTokens);
    // A local peer read takes one token from proc 0's cache.
    EXPECT_EQ(runLoad(sys, 1, 0x5000), 0u);
    drain(sys);
    const TokenSt *l1 = sys.controller<TokenL1>(0, 1)->peek(0x5000);
    ASSERT_NE(l1, nullptr);
    EXPECT_GE(l1->tokens, 1);
    // Both remain readable: multiple readers coexist.
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, 0x5000, &lat), 0u);
    EXPECT_EQ(lat, ns(2));
    EXPECT_EQ(runLoad(sys, 1, 0x5000, &lat), 0u);
    EXPECT_EQ(lat, ns(2));
}

TEST(TokenIntegration, WriteInvalidatesAllReaders)
{
    System sys(tokenCfg());
    for (unsigned p : {0u, 1u, 4u, 8u, 12u})
        runLoad(sys, p, 0x6000);
    drain(sys);
    runStore(sys, 5, 0x6000, 99);
    drain(sys);
    const TokenSt *w = sys.controller<TokenL1>(1, 1)->peek(0x6000);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->tokens, sys.config().token.totalTokens);
    EXPECT_EQ(runLoad(sys, 0, 0x6000), 99u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenIntegration, EvictionWritesBackThroughL2)
{
    SystemConfig cfg = tokenCfg();
    // Tiny L1 so evictions happen quickly: 4 sets x 4 ways x 64 B.
    cfg.l1Bytes = 1024;
    System sys(cfg);
    // Fill one set with conflicting dirty blocks (same set index).
    const Addr stride = 4 * 64;  // 4 sets
    for (unsigned i = 0; i < 6; ++i)
        runStore(sys, 0, 0x10000 + i * stride, i + 1);
    drain(sys);
    // All values still visible system-wide.
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(runLoad(sys, 15, 0x10000 + i * stride), i + 1);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenIntegration, AtomicCounterIsLinearizable)
{
    System sys(tokenCfg());
    CounterWorkload wl(0x7000, 10);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, 3, 0x7000), 16u * 10u);
}

class TokenVariants : public ::testing::TestWithParam<std::string>
{};

TEST_P(TokenVariants, AtomicCounterLinearizableUnderContention)
{
    SystemConfig cfg = tokenCfg(GetParam());
    System sys(cfg);
    CounterWorkload wl(0x8000, 8);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_EQ(runLoad(sys, 0, 0x8000), 16u * 8u) << GetParam();
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST_P(TokenVariants, ReadersAndWriterMix)
{
    SystemConfig cfg = tokenCfg(GetParam());
    System sys(cfg);
    // Writer stores ascending values; readers poll. All ops complete.
    for (unsigned round = 0; round < 6; ++round) {
        runStore(sys, round % 16, 0x9000, round + 1);
        for (unsigned p : {2u, 7u, 11u})
            EXPECT_EQ(runLoad(sys, p, 0x9000), round + 1);
    }
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(
    AllTokenVariants, TokenVariants,
    ::testing::Values("arb0", "dst0", "dst4", "dst1", "dst1-pred",
                      "dst1-filt"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return configTestName(info.param);
    });

TEST(TokenIntegration, PersistentOnlyVariantCompletesOps)
{
    System sys(tokenCfg("dst0"));
    EXPECT_EQ(runLoad(sys, 0, 0xa000), 0u);
    runStore(sys, 9, 0xa000, 13);
    EXPECT_EQ(runLoad(sys, 2, 0xa000), 13u);
    auto *tg = sys.tokenGlobals();
    EXPECT_GE(tg->persistentIssued, 3u);  // every miss is persistent
    drain(sys);
    tg->auditor.checkAll(true);
}

TEST(TokenIntegration, ArbiterVariantCompletesOps)
{
    System sys(tokenCfg("arb0"));
    runStore(sys, 0, 0xb000, 1);
    runStore(sys, 5, 0xb000, 2);
    runStore(sys, 10, 0xb000, 3);
    EXPECT_EQ(runLoad(sys, 15, 0xb000), 3u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

TEST(TokenIntegration, IfetchSharesThroughL1I)
{
    System sys(tokenCfg());
    bool done = false;
    sys.sequencer(0).ifetch(0xc000,
                            [&](const MemResult &) { done = true; });
    sys.context().eventq.runUntil([&]() { return done; });
    EXPECT_TRUE(done);
    const TokenSt *line = sys.controller<TokenL1>(0, 0, true)->peek(0xc000);
    ASSERT_NE(line, nullptr);
    EXPECT_GE(line->tokens, 1);
}

} // namespace tokencmp::test
