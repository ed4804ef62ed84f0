/**
 * @file
 * Workload-level protocol validation: the Table 2 micro-benchmarks run
 * on every protocol configuration, asserting completion, mutual
 * exclusion, barrier phase integrity and (for token protocols) token
 * conservation at quiescence.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workload/barrier.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

class AllProtocols : public ::testing::TestWithParam<std::string>
{
  protected:
    SystemConfig
    cfg() const
    {
        SystemConfig c = SystemConfig::select(GetParam());
        c.seed = 3;
        return c;
    }
};

TEST_P(AllProtocols, LockingHighContentionMutualExclusion)
{
    System sys(cfg());
    LockingParams p;
    p.numLocks = 2;  // maximum contention
    p.acquiresPerProc = 12;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_EQ(res.violations, 0u) << GetParam();
    EXPECT_EQ(wl.totalAcquires(), 16u * 12u);
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

TEST_P(AllProtocols, LockingLowContention)
{
    System sys(cfg());
    LockingParams p;
    p.numLocks = 256;
    p.acquiresPerProc = 10;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_EQ(res.violations, 0u) << GetParam();
}

TEST_P(AllProtocols, BarrierPhasesStayAligned)
{
    System sys(cfg());
    BarrierParams p;
    p.phases = 12;
    p.workTime = ns(300);
    BarrierWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_EQ(res.violations, 0u) << GetParam();
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

TEST_P(AllProtocols, BarrierWithJitter)
{
    System sys(cfg());
    BarrierParams p;
    p.phases = 8;
    p.workTime = ns(300);
    p.workJitter = ns(100);
    BarrierWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_EQ(res.violations, 0u) << GetParam();
}

TEST_P(AllProtocols, SyntheticCommercialMixCompletes)
{
    System sys(cfg());
    SyntheticParams p = oltpParams();
    p.opsPerProc = 120;
    SyntheticWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << GetParam();
    EXPECT_GT(res.stats.get("l1.misses"), 0.0);
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllProtocols,
    ::testing::ValuesIn(allProtocols()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return configTestName(info.param);
    });

TEST(WorkloadChecks, LockingCheckerDetectsViolations)
{
    // The mutual-exclusion checker itself must flag bad interleavings.
    LockingWorkload wl;
    wl.noteAcquire(3, 0);
    wl.noteAcquire(3, 1);  // second holder: violation
    EXPECT_EQ(wl.violations(), 1u);
    wl.noteRelease(3, 7);  // wrong releaser: violation
    EXPECT_EQ(wl.violations(), 2u);
}

TEST(WorkloadChecks, LockingCheckerSlotsCountEachViolationOnceAndReset)
{
    LockingParams p;
    p.numLocks = 4;
    LockingWorkload wl(p);
    wl.noteAcquire(0, 1);
    wl.noteAcquire(0, 2);  // double acquire: one violation
    EXPECT_EQ(wl.violations(), 1u);
    wl.noteRelease(0, 2);  // the second acquirer holds the slot now
    EXPECT_EQ(wl.violations(), 1u);
    wl.noteRelease(3, 1);  // release by a non-holder: one violation
    EXPECT_EQ(wl.violations(), 2u);
    for (unsigned lock = 0; lock < p.numLocks; ++lock)
        wl.noteAcquire(lock, lock);
    EXPECT_EQ(wl.violations(), 2u);
    EXPECT_EQ(wl.totalAcquires(), 6u);

    // reset() frees every slot: each lock can be taken again cleanly.
    wl.reset();
    EXPECT_EQ(wl.violations(), 0u);
    EXPECT_EQ(wl.totalAcquires(), 0u);
    for (unsigned lock = 0; lock < p.numLocks; ++lock)
        wl.noteAcquire(lock, 0);
    for (unsigned lock = 0; lock < p.numLocks; ++lock)
        wl.noteRelease(lock, 0);
    EXPECT_EQ(wl.violations(), 0u);
}

TEST(WorkloadChecks, SeedsPerturbRuntimes)
{
    SystemConfig c = SystemConfig::select("dst1");
    c.workloadName = "locking";
    c.workloadParams.keys = 8;
    c.workloadParams.opsPerProc = 6;
    ExperimentResult e = Experiment::of(c).seeds(3).run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(e.violations, 0u);
    EXPECT_EQ(e.runtime.count(), 3u);
    EXPECT_GT(e.runtime.mean(), 0.0);
}

} // namespace tokencmp::test
