/**
 * @file
 * System-level unit tests: the protocol table, protocol naming,
 * construction of all ten targets, statistics harvesting, and the
 * multi-seed experiment runner.
 */

#include <gtest/gtest.h>

#include "core/policy.hh"
#include "sim/random.hh"
#include "test_util.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

TEST(SystemConfig, SelectResolvesEveryConfiguration)
{
    // Each of the paper's ten names selects the protocol, policy and
    // figure label it always has: a token policy runs on the one
    // token row, every other name is its protocol's row.
    struct Expect
    {
        const char *name;
        Protocol protocol;
        const char *policyName;
        const char *label;
    };
    const Expect rows[] = {
        {"directory", Protocol::DirectoryCMP, "", "DirectoryCMP"},
        {"directory-zero", Protocol::DirectoryCMPZero, "",
         "DirectoryCMP-zero"},
        {"arb0", Protocol::TokenDst1, "arb0", "TokenCMP-arb0"},
        {"dst0", Protocol::TokenDst1, "dst0", "TokenCMP-dst0"},
        {"dst4", Protocol::TokenDst1, "dst4", "TokenCMP-dst4"},
        {"dst1", Protocol::TokenDst1, "dst1", "TokenCMP-dst1"},
        {"dst1-pred", Protocol::TokenDst1, "dst1-pred",
         "TokenCMP-dst1-pred"},
        {"dst1-filt", Protocol::TokenDst1, "dst1-filt",
         "TokenCMP-dst1-filt"},
        {"perfect", Protocol::PerfectL2, "", "PerfectL2"},
        {"hier", Protocol::HierCMP, "", "HierCMP"},
    };
    ASSERT_EQ(allProtocols().size(), std::size(rows));
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const Expect &e = rows[i];
        SCOPED_TRACE(e.name);
        EXPECT_EQ(allProtocols()[i], e.name);
        const SystemConfig cfg = SystemConfig::select(e.name);
        EXPECT_EQ(cfg.protocol, e.protocol);
        EXPECT_EQ(cfg.policyName, e.policyName);
        EXPECT_EQ(cfg.displayName(), e.label);
        cfg.validate();
    }
    // The token row runs dst1 when no policy is named.
    EXPECT_STREQ(protocolInfo(Protocol::TokenDst1).policy, "dst1");
    EXPECT_EQ(SystemConfig{}.displayName(), "TokenCMP-dst1");
}

TEST(SystemConfigDeathTest, SelectRejectsUnknownNames)
{
    // The diagnostic names the typo and lists both kinds of name.
    EXPECT_DEATH(SystemConfig::select("dts1"),
                 "unknown configuration 'dts1' \\(protocols: directory, "
                 "directory-zero, perfect, hier; policies: arb0, .*dst1, "
                 ".*dst1-pred");
}

TEST(SystemConfig, PoliciesCarryTable1Mechanisms)
{
    // Each token policy carries its Table 1 transient budget,
    // activation mechanism, contention predictor (dst1-pred) and
    // sharer filter (dst1-filt); hier's intra-CMP row is "arb4".
    struct Expect
    {
        const char *policy;
        unsigned maxTransients;
        PersistentActivation activation;
        bool predictor;
        bool filter;
    };
    constexpr PersistentActivation kArb = PersistentActivation::Arbiter;
    constexpr PersistentActivation kDst =
        PersistentActivation::Distributed;
    const Expect rows[] = {
        {"arb0", 0, kArb, false, false},
        {"dst0", 0, kDst, false, false},
        {"dst4", 4, kDst, false, false},
        {"dst1", 1, kDst, false, false},
        {"dst1-pred", 1, kDst, true, false},
        {"dst1-filt", 1, kDst, false, true},
        {protocolInfo(Protocol::HierCMP).policy, 4, kArb, false, false},
    };
    const SystemConfig cfg;
    const Addr addr = 0x1000;
    const MachineID requestor = cfg.topo.l1d(0, 2);
    for (const Expect &e : rows) {
        SCOPED_TRACE(e.policy);

        // At an L1: the transient budget and activation, and whether
        // repeated timeouts on a block send its next miss straight to
        // a persistent request.
        PolicyEnv l1_env;
        l1_env.self = cfg.topo.l1d(0, 0);
        l1_env.topo = cfg.topo;
        l1_env.params = &cfg.token;
        auto l1 = PolicyRegistry::instance().create(e.policy, l1_env);
        for (bool is_write : {false, true})
            EXPECT_EQ(l1->maxTransients(is_write), e.maxTransients);
        EXPECT_EQ(l1->activation(), e.activation);
        Random rng(1);
        for (int i = 0; i < 3; ++i)
            l1->onRetry(addr, rng);
        EXPECT_EQ(l1->shouldGoPersistent(addr, 0), e.predictor);

        // At an L2 bank: whether a local request narrows the relay of
        // external transients to the requesting L1.
        PolicyEnv l2_env = l1_env;
        l2_env.self = cfg.topo.l2BankFor(0, addr);
        auto l2 = PolicyRegistry::instance().create(e.policy, l2_env);
        l2->onLocalRequest(addr, requestor);
        EXPECT_EQ(l2->filterExternal(addr),
                  e.filter ? 1u << l1SlotOf(cfg.topo, requestor) : ~0u);
    }
    EXPECT_STREQ(protocolInfo(Protocol::HierCMP).policy, "arb4");
    for (Protocol p : {Protocol::DirectoryCMP, Protocol::DirectoryCMPZero,
                       Protocol::PerfectL2}) {
        EXPECT_EQ(protocolInfo(p).policy, nullptr) << protocolName(p);
    }
}

TEST(SystemConfig, DirectoryZeroHasZeroCycleDirectory)
{
    // A sharing miss is forwarded by the home directory, so it pays
    // the directory access: 80 ns on DirectoryCMP, 0 on the zero
    // variant. Nothing else differs between the two.
    Tick lat[2] = {0, 0};
    unsigned i = 0;
    for (const char *name : {"directory", "directory-zero"}) {
        System sys(SystemConfig::select(name));
        runStore(sys, 0, 0x1000, 7);
        drain(sys);
        EXPECT_EQ(runLoad(sys, 4, 0x1000, &lat[i++]), 7u);
    }
    EXPECT_EQ(SystemConfig{}.dir.dirLatency, ns(80));
    EXPECT_EQ(lat[0] - lat[1], ns(80));
}

TEST(SystemConfig, ProtocolNamesMatchPaper)
{
    EXPECT_STREQ(protocolName(Protocol::TokenDst1), "TokenCMP-dst1");
    EXPECT_STREQ(protocolName(Protocol::DirectoryCMPZero),
                 "DirectoryCMP-zero");
    EXPECT_STREQ(protocolName(Protocol::HierCMP), "HierCMP");
    EXPECT_TRUE(isToken(Protocol::TokenDst1));
    EXPECT_FALSE(isToken(Protocol::PerfectL2));
    EXPECT_FALSE(isToken(Protocol::DirectoryCMP));
    // Hier has a token substrate inside each CMP but is not one of the
    // flat token protocols (no system-wide token space or policy row).
    EXPECT_FALSE(isToken(Protocol::HierCMP));
}

TEST(System, BuildsAllProtocols)
{
    for (const std::string &name : allProtocols()) {
        System sys(SystemConfig::select(name));
        // Every processor must be able to complete a basic op.
        EXPECT_EQ(runLoad(sys, 0, 0x1000), 0u) << name;
        EXPECT_EQ(runLoad(sys, 15, 0x1000), 0u) << name;
    }
}

TEST(System, ControllerAccessorsMatchProtocol)
{
    SystemConfig tok = SystemConfig::select("dst1");
    System ts(tok);
    EXPECT_NE(ts.controller<TokenL1>(0, 0), nullptr);
    EXPECT_NE(ts.controller<TokenL1>(3, 3, true), nullptr);
    EXPECT_NE(ts.controller<TokenL2>(2, 1), nullptr);
    EXPECT_NE(ts.controller<TokenMem>(1), nullptr);
    EXPECT_EQ(ts.controller<DirL1>(0, 0), nullptr);

    SystemConfig dir = SystemConfig::select("directory");
    System ds(dir);
    EXPECT_NE(ds.controller<DirL1>(0, 0), nullptr);
    EXPECT_NE(ds.controller<DirL2>(1, 2), nullptr);
    EXPECT_NE(ds.controller<DirMem>(3), nullptr);
    EXPECT_EQ(ds.controller<TokenL1>(0, 0), nullptr);
}

TEST(System, HarvestedStatsArePopulated)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    System sys(cfg);
    LockingParams p;
    p.numLocks = 8;
    p.acquiresPerProc = 5;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.stats.get("l1.misses"), 0.0);
    EXPECT_GT(res.stats.get("l1.hits"), 0.0);
    EXPECT_GT(res.stats.get("token.transients"), 0.0);
    EXPECT_GT(res.stats.get("traffic.intra.total"), 0.0);
    EXPECT_GT(res.stats.get("traffic.inter.total"), 0.0);
    EXPECT_GT(res.stats.get("net.messages"), 0.0);
}

TEST(System, SeedsPerturbButReproduce)
{
    auto run_with_seed = [](std::uint64_t seed) {
        SystemConfig cfg = SystemConfig::select("dst1");
        cfg.seed = seed;
        System sys(cfg);
        LockingParams p;
        p.numLocks = 4;
        p.acquiresPerProc = 8;
        LockingWorkload wl(p);
        return sys.run(wl).runtime;
    };
    const Tick a1 = run_with_seed(1);
    const Tick a2 = run_with_seed(1);
    const Tick b = run_with_seed(2);
    EXPECT_EQ(a1, a2) << "same seed must reproduce exactly";
    EXPECT_NE(a1, b) << "different seeds must perturb";
}

TEST(System, ExperimentComputesErrorBars)
{
    SystemConfig cfg = SystemConfig::select("directory");
    cfg.workloadName = "locking";
    cfg.workloadParams.keys = 16;
    cfg.workloadParams.opsPerProc = 5;
    ExperimentResult e = Experiment::of(cfg).seeds(4).run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(e.runtime.count(), 4u);
    EXPECT_GT(e.runtime.mean(), 0.0);
    EXPECT_GT(e.runtime.errorBar(), 0.0);
    EXPECT_GT(e.interBytes.mean(), 0.0);
    EXPECT_EQ(e.perSeed.size(), 4u);
    EXPECT_EQ(e.protocol, "DirectoryCMP");
    EXPECT_EQ(e.workload, "locking");
}

TEST(System, Figure6RunIsKernelInvariant)
{
    // Determinism regression for the kernel overhaul: a fixed-seed
    // Figure 6 style run (synthetic commercial workload) must produce
    // identical aggregate stats under the timing-wheel kernel and the
    // reference-heap oracle, for both protocol families.
    SyntheticParams wl = oltpParams();
    wl.opsPerProc = 120;  // keep the regression fast

    for (const char *name : {"dst1", "directory"}) {
        SCOPED_TRACE(name);
        System::RunResult results[2];
        unsigned i = 0;
        for (SchedulerKind kind : {SchedulerKind::TimingWheel,
                                   SchedulerKind::ReferenceHeap}) {
            SystemConfig cfg = SystemConfig::select(name);
            cfg.scheduler = kind;
            cfg.seed = 12345;
            System sys(cfg);
            SyntheticWorkload work(wl);
            work.reset();
            results[i++] = sys.run(work);
        }
        ASSERT_TRUE(results[0].completed);
        ASSERT_TRUE(results[1].completed);
        EXPECT_EQ(results[0].runtime, results[1].runtime);
        EXPECT_EQ(results[0].violations, results[1].violations);
        ASSERT_EQ(results[0].stats.all().size(),
                  results[1].stats.all().size());
        for (const auto &[k, v] : results[0].stats.all())
            EXPECT_EQ(v, results[1].stats.get(k)) << k;
    }
}

TEST(System, MeasureStartExcludesWarmup)
{
    SystemConfig cfg = SystemConfig::select("directory");
    LockingParams warm, cold;
    warm.numLocks = 64;
    warm.acquiresPerProc = 5;
    warm.warmup = true;
    cold = warm;
    cold.warmup = false;

    System s1(cfg), s2(cfg);
    LockingWorkload w1(warm), w2(cold);
    auto r1 = s1.run(w1);
    auto r2 = s2.run(w2);
    ASSERT_TRUE(r1.completed && r2.completed);
    EXPECT_GT(w1.measureStart(), 0u);
    EXPECT_EQ(w2.measureStart(), 0u);
}

} // namespace tokencmp::test
