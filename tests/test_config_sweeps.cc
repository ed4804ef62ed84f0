/**
 * @file
 * Parameterized configuration sweeps: the protocols must stay correct
 * across machine shapes (CMP count, processors per CMP), token-count
 * choices (T must merely exceed the number of caches able to hold a
 * block), C-token transfer sizes, and response-delay windows; and the
 * one shared timing block must reach every family it times.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workload/locking.hh"

namespace tokencmp::test {

namespace {

struct Shape
{
    unsigned cmps;
    unsigned procs;  //!< per CMP
};

using ShapeParam = std::tuple<Shape, std::string>;

class MachineShapes : public ::testing::TestWithParam<ShapeParam>
{};

std::string
shapeName(const ::testing::TestParamInfo<ShapeParam> &info)
{
    const Shape shape = std::get<0>(info.param);
    const std::string n = configTestName(std::get<1>(info.param));
    // Built with += to dodge GCC 12's -Wrestrict false positive on
    // operator+(const char *, std::string &&).
    std::string out = "c";
    out += std::to_string(shape.cmps);
    out += "p";
    out += std::to_string(shape.procs);
    out += "_";
    out += n;
    return out;
}

std::string
intName(const ::testing::TestParamInfo<int> &info)
{
    std::string out = "v";
    out += std::to_string(info.param);
    return out;
}

std::string
unsignedName(const ::testing::TestParamInfo<unsigned> &info)
{
    std::string out = "v";
    out += std::to_string(info.param);
    return out;
}

} // namespace

TEST_P(MachineShapes, CounterLinearizableOnShape)
{
    const auto [shape, name] = GetParam();
    SystemConfig cfg = SystemConfig::select(name);
    cfg.topo.numCmps = shape.cmps;
    cfg.topo.procsPerCmp = shape.procs;
    // T must exceed the caches-per-block count for the new shape.
    cfg.token.totalTokens =
        int(cfg.topo.numCachesForBlock()) + 3;
    cfg.token.cTokens = int(cfg.topo.cachesPerCmpForBlock());
    System sys(cfg);

    const unsigned n = cfg.topo.numProcs();
    CounterWorkload wl(0x9000, 6);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, n - 1, 0x9000), n * 6u);
    drain(sys);
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

TEST_P(MachineShapes, LockingMutualExclusionOnShape)
{
    const auto [shape, name] = GetParam();
    SystemConfig cfg = SystemConfig::select(name);
    cfg.topo.numCmps = shape.cmps;
    cfg.topo.procsPerCmp = shape.procs;
    cfg.token.totalTokens =
        int(cfg.topo.numCachesForBlock()) + 3;
    System sys(cfg);

    LockingParams p;
    p.numLocks = 4;
    p.acquiresPerProc = 6;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineShapes,
    ::testing::Combine(
        ::testing::Values(Shape{2, 2}, Shape{2, 4}, Shape{4, 2},
                          Shape{4, 4}),
        ::testing::Values("dst1", "dst0", "directory")),
    shapeName);

namespace {

class TokenKnobs : public ::testing::TestWithParam<int>
{};

} // namespace

TEST_P(TokenKnobs, TotalTokensAboveFloorAllWork)
{
    // Any T > #caches-per-block satisfies the substrate's
    // requirements; correctness must be insensitive to the choice.
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.token.totalTokens = GetParam();
    System sys(cfg);
    CounterWorkload wl(0xa000, 5);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << "T=" << GetParam();
    EXPECT_EQ(runLoad(sys, 7, 0xa000), 16u * 5u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, TokenKnobs,
                         ::testing::Values(37, 49, 64, 128), intName);

namespace {

class DelayKnobs : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(DelayKnobs, ResponseDelayNeverBreaksCorrectness)
{
    // The hold window is a performance lever; any bounded value must
    // preserve mutual exclusion and completion.
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.machine.responseDelay = ns(GetParam());
    System sys(cfg);
    LockingParams p;
    p.numLocks = 2;
    p.acquiresPerProc = 8;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << "delay=" << GetParam();
    EXPECT_EQ(res.violations, 0u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(Delays, DelayKnobs,
                         ::testing::Values(0u, 10u, 30u, 100u, 300u),
                         unsignedName);

namespace {

class CTokenKnobs : public ::testing::TestWithParam<int>
{};

} // namespace

TEST_P(CTokenKnobs, ReadResponseSizeIsPerformanceOnly)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.token.cTokens = GetParam();
    System sys(cfg);
    // Shared-read pattern across CMPs.
    runStore(sys, 0, 0xb000, 7);
    drain(sys);
    for (unsigned p : {4u, 8u, 12u, 1u, 5u})
        EXPECT_EQ(runLoad(sys, p, 0xb000), 7u) << "C=" << GetParam();
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(CTokens, CTokenKnobs,
                         ::testing::Values(1, 4, 9, 16), intName);

namespace {

class SharedTiming : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(SharedTiming, ResponseDelayMovesEveryFamily)
{
    // The response-delay window lives in the one MachineParams block:
    // set once, it must reach the controllers of whichever family the
    // configuration builds. A contended lock turns the window into
    // runtime.
    Tick runtime[2] = {0, 0};
    for (unsigned i = 0; i < 2; ++i) {
        SystemConfig cfg = SystemConfig::select(GetParam());
        cfg.machine.responseDelay = i == 0 ? 0 : ns(300);
        System sys(cfg);
        LockingParams p;
        p.numLocks = 2;
        p.acquiresPerProc = 8;
        LockingWorkload wl(p);
        const System::RunResult res = sys.run(wl);
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.violations, 0u);
        runtime[i] = res.runtime;
    }
    EXPECT_NE(runtime[0], runtime[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SharedTiming, ::testing::Values("dst1", "directory", "hier"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace tokencmp::test
