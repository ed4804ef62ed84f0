/**
 * @file
 * PerformancePolicy API tests: registry behavior (names, duplicate
 * registration, unknown-name diagnostics), per-policy Experiment
 * labels, and the dst-group destination-set policy (completion, token
 * conservation, policy statistics, the sharer-group mask, determinism
 * — serial and across sharded worker counts).
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

TEST(PolicyRegistry, KnowsTable1RowsAndGroupPolicy)
{
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    for (const char *expect : {"arb0", "dst0", "dst4", "dst1",
                               "dst1-pred", "dst1-filt", "arb4",
                               "dst-group"}) {
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
                 "no-such-policy.*arb0.*dst-group.*dst1-pred");
}

TEST(PolicyRegistry, NamedPolicyRequiresTokenProtocol)
{
    // A directory config must not slip an (ignored) policy selection
    // through.
    SystemConfig cfg = SystemConfig::select("directory");
    cfg.policyName = "dst1";
    EXPECT_DEATH(cfg.validate(), "requires a TokenCMP protocol");
    cfg.policyName = "dst-group";
    EXPECT_DEATH(System sys(cfg), "requires a TokenCMP protocol");
}

TEST(PolicySweep, RunLabelsOneResultPerPolicy)
{
    std::vector<ExperimentResult> results;
    for (const char *name : {"dst1", "dst-group"}) {
        SystemConfig cfg = SystemConfig::select(name);
        cfg.workloadName = "synthetic-oltp";
        cfg.workloadParams.opsPerProc = smallWorkload().opsPerProc;
        results.push_back(Experiment::of(cfg).seeds(2).run());
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].protocol, "TokenCMP-dst1");
    EXPECT_EQ(results[1].protocol, "TokenCMP-dst-group");
    EXPECT_TRUE(results[0].allCompleted);
    EXPECT_TRUE(results[1].allCompleted);
    // The narrowing policy must not inflate runtime pathologically
    // (loose 2x bound; the traffic benefit is gated in bench CI).
    EXPECT_LT(results[1].runtime.mean(),
              2.0 * results[0].runtime.mean());
}

TEST(GroupPolicy, CompletesQuiescesAndNarrows)
{
    // runOnce runs verifyQuiescent(fatal) internally on completion,
    // so token conservation is checked too.
    const System::RunResult r = runOnce(SystemConfig::select("dst-group"));
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_TRUE(r.stats.has("policy.broadcastEscalations"));
    EXPECT_TRUE(r.stats.has("policy.persistentTrainings"));
    // The group mask must actually narrow something on a migratory
    // workload.
    EXPECT_GT(r.stats.get("policy.narrowedEscalations"), 0.0);
}

TEST(GroupPolicy, GroupMaskTracksAcquirers)
{
    // One L2 bank's instance on CMP 0, for a block homed on CMP 3 (so
    // the broadcast set is the three remote banks and never includes
    // home memory). A private clock lets the test age the table.
    System sys(SystemConfig::select("dst1"));
    const Topology &topo = sys.context().topo;
    SimContext ctx;
    ctx.topo = topo;

    PolicyEnv env;
    env.self = topo.l2(0, 0);
    env.topo = topo;
    env.params = &sys.config().token;
    env.ctx = &ctx;
    auto pol = PolicyRegistry::instance().create("dst-group", env);

    Addr addr = 0;
    while (topo.homeCmpOf(addr) != 3)
        addr += blockBytes;
    std::vector<MachineID> out;
    auto escalate = [&](bool is_write, unsigned attempt) {
        out.clear();
        pol->destinationSet(addr, DestKind::L2Escalate, is_write,
                            attempt, out);
    };

    // Untrained: the escalation is the full 3-CMP broadcast.
    escalate(false, 1);
    EXPECT_EQ(out.size(), 3u);

    // Persistent reads add their requester's CMP to the group.
    pol->onPersistentActivate(addr, topo.l1d(2, 1), true);
    escalate(false, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0] == topo.l2BankFor(2, addr));
    pol->onPersistentActivate(addr, topo.l1d(1, 0), true);
    escalate(false, 1);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0] == topo.l2BankFor(1, addr));
    EXPECT_TRUE(out[1] == topo.l2BankFor(2, addr));

    // A persistent write collapses the group to the writer.
    pol->onPersistentActivate(addr, topo.l1d(3, 2), false);
    escalate(false, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0] == topo.l2BankFor(3, addr));

    // Writes and retries always broadcast, however fresh the group.
    escalate(true, 1);
    EXPECT_EQ(out.size(), 3u);
    escalate(false, 2);
    EXPECT_EQ(out.size(), 3u);

    // This CMP is never its own multicast target: a group of only
    // itself is no group, and the escalation broadcasts.
    pol->onPersistentActivate(addr, topo.l1d(0, 3), false);
    escalate(false, 1);
    EXPECT_EQ(out.size(), 3u);

    // A group older than the freshness window falls back to broadcast.
    pol->onPersistentActivate(addr, topo.l1d(2, 0), false);
    escalate(false, 1);
    ASSERT_EQ(out.size(), 1u);
    ctx.eventq.schedule(ns(2001), []() {});
    ctx.eventq.run();
    escalate(false, 1);
    EXPECT_EQ(out.size(), 3u);

    StatSet stats;
    pol->exportStats(stats);
    EXPECT_EQ(stats.get("policy.persistentTrainings"), 5.0);
    EXPECT_EQ(stats.get("policy.narrowedEscalations"), 4.0);
    EXPECT_EQ(stats.get("policy.broadcastEscalations"), 5.0);
}

TEST(GroupPolicy, FixedSeedRunsReproduce)
{
    const SystemConfig cfg = SystemConfig::select("dst-group");
    expectIdenticalRuns(runOnce(cfg), runOnce(cfg));
}

TEST(GroupPolicy, ShardedRunsAreWorkerCountInvariant)
{
    // The group table is per-instance state, so the sharded kernel's
    // contract — bit-identical results for any worker count over a
    // fixed shard map — must survive it.
    System::RunResult runs[2];
    unsigned i = 0;
    for (unsigned workers : {1u, 4u}) {
        SystemConfig cfg = SystemConfig::select("dst-group");
        cfg.shards = workers;
        runs[i++] = runOnce(cfg);
    }
    expectIdenticalRuns(runs[0], runs[1]);
}

} // namespace tokencmp::test
