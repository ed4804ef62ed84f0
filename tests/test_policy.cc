/**
 * @file
 * PerformancePolicy API tests: registry behavior (names, duplicate
 * registration, unknown-name diagnostics), per-policy Experiment
 * labels, and the adaptive
 * destination-set policies (completion, token conservation, policy
 * statistics, determinism — serial and across sharded worker counts).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/policy.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

namespace {

SyntheticParams
smallWorkload()
{
    SyntheticParams wl = oltpParams();
    wl.opsPerProc = 60;  // keep the sweep fast
    return wl;
}

System::RunResult
runOnce(const SystemConfig &cfg)
{
    SystemConfig c = cfg;
    c.seed = 42;
    System sys(c);
    SyntheticWorkload wl(smallWorkload());
    wl.reset();
    return sys.run(wl);
}

void
expectIdenticalRuns(const System::RunResult &a,
                    const System::RunResult &b)
{
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.violations, b.violations);
    ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
    for (const auto &[k, v] : a.stats.all())
        EXPECT_EQ(v, b.stats.get(k)) << k;
}

} // namespace

TEST(PolicyRegistry, KnowsTable1RowsAndAdaptivePolicies)
{
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    for (const char *expect : {"arb0", "dst0", "dst4", "dst1",
                               "dst1-pred", "dst1-filt", "arb4",
                               "dst-owner", "bw-adapt"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect << " is not registered";
    }
    EXPECT_TRUE(PolicyRegistry::instance().known("dst1"));
    EXPECT_FALSE(PolicyRegistry::instance().known("no-such-policy"));
}

TEST(PolicyRegistry, DuplicateRegistrationDies)
{
    auto factory = [](const PolicyEnv &) {
        return std::unique_ptr<PerformancePolicy>();
    };
    EXPECT_DEATH(
        PolicyRegistry::instance().registerPolicy("dst1", factory),
        "registered twice");
}

TEST(PolicyRegistry, UnknownNameListsRegisteredPolicies)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.policyName = "no-such-policy";
    // The diagnostic must name the typo and list what *is* registered.
    EXPECT_DEATH(System sys(cfg),
                 "no-such-policy.*arb0.*bw-adapt.*dst1-pred");
}

TEST(PolicyRegistry, NamedPolicyRequiresTokenProtocol)
{
    // A directory config must not slip an (ignored) policy selection
    // through.
    SystemConfig cfg = SystemConfig::select("directory");
    cfg.policyName = "dst1";
    EXPECT_DEATH(cfg.validate(), "requires a TokenCMP protocol");
    cfg.policyName = "bw-adapt";
    EXPECT_DEATH(System sys(cfg), "requires a TokenCMP protocol");
}

TEST(PolicySweep, RunLabelsOneResultPerPolicy)
{
    SyntheticParams wl = smallWorkload();
    std::vector<ExperimentResult> results;
    for (const char *name : {"dst1", "dst-owner"}) {
        results.push_back(
            Experiment::of(SystemConfig::select(name))
                .workload([&wl]() -> std::unique_ptr<Workload> {
                    return std::make_unique<SyntheticWorkload>(wl);
                })
                .seeds(2)
                .run());
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].protocol, "TokenCMP-dst1");
    EXPECT_EQ(results[1].protocol, "TokenCMP-dst-owner");
    EXPECT_TRUE(results[0].allCompleted);
    EXPECT_TRUE(results[1].allCompleted);
    // The narrowing policy must not inflate runtime pathologically
    // (loose 2x bound; the traffic benefit is gated in bench CI).
    EXPECT_LT(results[1].runtime.mean(),
              2.0 * results[0].runtime.mean());
}

TEST(AdaptivePolicies, CompleteQuiesceAndExportStats)
{
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        SystemConfig cfg = SystemConfig::select(name);
        // runOnce runs verifyQuiescent(fatal) internally on
        // completion, so token conservation is checked too.
        const System::RunResult r = runOnce(cfg);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.violations, 0u);
        EXPECT_TRUE(r.stats.has("policy.narrowedEscalations"));
        EXPECT_TRUE(r.stats.has("policy.broadcastEscalations"));
        // The owner predictor must actually narrow something on a
        // migratory workload.
        if (std::string(name) == "dst-owner") {
            EXPECT_GT(r.stats.get("policy.narrowedEscalations"), 0.0);
        }
    }
}

TEST(AdaptivePolicies, PersistentActivationsTrainThePredictor)
{
    // Pins the persistent-broadcast training path. Old behavior
    // (first three expectations): only relayed transient externals
    // trained the owner predictor, so a requester whose narrowed
    // retries all missed — and which therefore escalated straight to
    // a persistent request — stayed invisible, and the next
    // escalation for its block remained a full broadcast. New
    // behavior: a fresh remote activation trains the predictor with
    // the same read/write strengths as the transient signal.
    System sys(SystemConfig::select("dst1"));
    const Topology &topo = sys.context().topo;

    PolicyEnv env;
    env.self = topo.l2(0, 0);
    env.topo = topo;
    env.params = &sys.config().token;
    env.ctx = &sys.context();
    auto pol = PolicyRegistry::instance().create("dst-owner", env);

    Addr addr = 0;
    while (topo.homeCmpOf(addr) != 3)
        addr += blockBytes;

    // Untrained: the escalation is the full 3-CMP broadcast.
    std::vector<MachineID> out;
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    EXPECT_EQ(out.size(), 3u);

    // A persistent *read* activation trains at strength 1 — below
    // confidence, exactly like a relayed transient read.
    pol->onPersistentActivate(addr, topo.l1d(2, 1), true);
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    EXPECT_EQ(out.size(), 3u);

    // A persistent *write* activation saturates confidence: the next
    // read escalation narrows to {predicted holder, home path}.
    pol->onPersistentActivate(addr, topo.l1d(2, 1), false);
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0] == topo.l2BankFor(2, addr));
    EXPECT_TRUE(out[1] == topo.l2BankFor(3, addr));

    // Writes must still broadcast no matter how confident.
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, true, 1, out);
    EXPECT_EQ(out.size(), 3u);

    StatSet stats;
    pol->exportStats(stats);
    EXPECT_EQ(stats.get("policy.persistentTrainings"), 2.0);
}

TEST(AdaptivePolicies, FixedSeedRunsReproduce)
{
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        SystemConfig cfg = SystemConfig::select(name);
        expectIdenticalRuns(runOnce(cfg), runOnce(cfg));
    }
}

TEST(AdaptivePolicies, ShardedRunsAreWorkerCountInvariant)
{
    // The adaptive policies keep per-instance state and probe only
    // their own domain's links, so the sharded kernel's contract —
    // bit-identical results for any worker count over a fixed shard
    // map — must survive them.
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        System::RunResult runs[2];
        unsigned i = 0;
        for (unsigned workers : {1u, 4u}) {
            SystemConfig cfg = SystemConfig::select(name);
            cfg.shards = workers;
            runs[i++] = runOnce(cfg);
        }
        expectIdenticalRuns(runs[0], runs[1]);
    }
}

} // namespace tokencmp::test
