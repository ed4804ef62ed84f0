/**
 * @file
 * Tests for the protocol table and the parallel Experiment runner:
 * one table row per Protocol value, the controllers each family
 * builds, bit-identical parallel vs serial execution, progress
 * callbacks, scheduler-backend equivalence, JSON export, and the
 * labels incomplete seeds are reported under.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/policy.hh"
#include "test_util.hh"

namespace tokencmp::test {

namespace {

/** Configuration `name` running a small locking workload. */
SystemConfig
smallLocking(const std::string &name)
{
    SystemConfig cfg = SystemConfig::select(name);
    cfg.workloadName = "locking";
    cfg.workloadParams.keys = 8;
    cfg.workloadParams.opsPerProc = 4;
    return cfg;
}

} // namespace

TEST(ProtocolTable, CoversEveryProtocol)
{
    // The ten configuration names reach all five rows. One row per
    // Protocol, in enum order, found by its own value; names are
    // unique, and so are the keys of the non-token rows, which find
    // their rows.
    constexpr unsigned kRows = 5;
    std::set<Protocol> reached;
    for (const std::string &name : allProtocols())
        reached.insert(SystemConfig::select(name).protocol);
    EXPECT_EQ(reached.size(), kRows);
    std::set<std::string> keys, names;
    for (unsigned i = 0; i < kRows; ++i) {
        const Protocol p = Protocol(i);
        const ProtocolInfo &row = protocolInfo(p);
        EXPECT_TRUE(reached.count(p)) << row.name;
        EXPECT_EQ(row.protocol, p);
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
        EXPECT_EQ(row.key == nullptr, row.family == Family::Token)
            << row.name;
        if (row.key != nullptr) {
            EXPECT_EQ(findProtocol(row.key), &row) << row.key;
            EXPECT_TRUE(keys.insert(row.key).second) << row.key;
        }
        EXPECT_STREQ(protocolName(p), row.name);
        EXPECT_EQ(isToken(p), row.family == Family::Token);
        // Every policy a row names is registered.
        if (row.policy != nullptr) {
            EXPECT_TRUE(PolicyRegistry::instance().known(row.policy))
                << row.policy;
        }
    }
    EXPECT_EQ(findProtocol("no-such-protocol"), nullptr);
    // Token rows are selected by policy name, not by key.
    EXPECT_EQ(findProtocol("dst1"), nullptr);
}

TEST(ProtocolTable, FamiliesBuildTheirControllers)
{
    // The family a row names must build exactly these controllers at
    // these topological positions.
    for (const std::string &name : allProtocols()) {
        System sys(SystemConfig::select(name));
        const Topology &t = sys.context().topo;
        SCOPED_TRACE(name);

        const Family family = protocolInfo(sys.config().protocol).family;
        const bool token = family == Family::Token;
        const bool dir = family == Family::Directory;
        const bool perfect = family == Family::Perfect;
        // Hier L1s are TokenL1 subclasses and the hier home is a
        // DirMem subclass, so those typed lookups resolve for hier
        // too; the shim is neither a TokenL2 nor a DirL2.
        const bool hier = family == Family::Hier;

        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned pr = 0; pr < t.procsPerCmp; ++pr) {
                TokenL1 *tl1 = sys.controller<TokenL1>(c, pr);
                DirL1 *dl1 = sys.controller<DirL1>(c, pr);
                PerfectL1 *pl1 = sys.controller<PerfectL1>(c, pr);
                EXPECT_EQ(tl1 != nullptr, token || hier);
                EXPECT_EQ(dl1 != nullptr, dir);
                EXPECT_EQ(pl1 != nullptr, perfect);
                // Exactly one family serves each position.
                Controller *any = sys.controllerAt(t.l1d(c, pr));
                ASSERT_NE(any, nullptr);
                EXPECT_TRUE(any->id() == t.l1d(c, pr));
                // The icache twin is distinct.
                Controller *ic = sys.controllerAt(t.l1i(c, pr));
                ASSERT_NE(ic, nullptr);
                EXPECT_NE(any, ic);
                if (token || hier) {
                    EXPECT_EQ(static_cast<Controller *>(tl1), any);
                    EXPECT_EQ(sys.controller<TokenL1>(c, pr, true),
                              static_cast<Controller *>(ic));
                }
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b) {
                EXPECT_EQ(sys.controller<TokenL2>(c, b) != nullptr,
                          token);
                EXPECT_EQ(sys.controller<DirL2>(c, b) != nullptr, dir);
            }
            EXPECT_EQ(sys.controller<TokenMem>(c) != nullptr, token);
            EXPECT_EQ(sys.controller<DirMem>(c) != nullptr,
                      dir || hier);
            EXPECT_EQ(sys.controller<HierShim>(c, 0) != nullptr, hier);
            // PerfectL2 builds no L2/Mem controllers at all.
            if (perfect) {
                EXPECT_EQ(sys.controllerAt(t.l2(c, 0)), nullptr);
                EXPECT_EQ(sys.controllerAt(t.mem(c)), nullptr);
            }
        }
    }
}

TEST(Experiment, ParallelBitIdenticalToSerial)
{
    SystemConfig cfg = smallLocking("dst1");
    const unsigned kSeeds = 6;

    auto serial = Experiment::of(cfg)
                      .seeds(kSeeds)
                      .parallelism(1)
                      .run();
    auto parallel = Experiment::of(cfg)
                        .seeds(kSeeds)
                        .parallelism(4)
                        .run();

    ASSERT_TRUE(serial.allCompleted);
    ASSERT_TRUE(parallel.allCompleted);
    ASSERT_EQ(serial.perSeed.size(), kSeeds);
    ASSERT_EQ(parallel.perSeed.size(), kSeeds);

    for (unsigned i = 0; i < kSeeds; ++i) {
        const auto &a = serial.perSeed[i];
        const auto &b = parallel.perSeed[i];
        EXPECT_EQ(a.runtime, b.runtime) << "seed " << i + 1;
        EXPECT_EQ(a.violations, b.violations) << "seed " << i + 1;
        // Full per-seed stat maps must match bit for bit.
        ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
        for (const auto &[k, v] : a.stats.all())
            EXPECT_EQ(v, b.stats.get(k)) << "seed " << i + 1 << " "
                                         << k;
    }
    EXPECT_EQ(serial.runtime.mean(), parallel.runtime.mean());
    EXPECT_EQ(serial.runtime.errorBar(), parallel.runtime.errorBar());
    EXPECT_EQ(serial.interBytes.samples(),
              parallel.interBytes.samples());
    EXPECT_EQ(serial.intraBytes.samples(),
              parallel.intraBytes.samples());
}

TEST(Experiment, ProgressCallbackFiresOncePerSeed)
{
    SystemConfig cfg = smallLocking("dst1");
    std::set<std::uint64_t> seen;
    unsigned calls = 0, max_done = 0;
    auto e = Experiment::of(cfg)
                 .seeds(5)
                 .parallelism(3)
                 .onSeedDone([&](const SeedProgress &p) {
                     // Serialized by the runner's mutex.
                     ++calls;
                     seen.insert(p.seedValue);
                     max_done = std::max(max_done, p.seedsDone);
                     EXPECT_EQ(p.seedsTotal, 5u);
                     EXPECT_TRUE(p.completed);
                 })
                 .run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(calls, 5u);
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(max_done, 5u);
    EXPECT_EQ(*seen.begin(), 1u);
    EXPECT_EQ(*seen.rbegin(), 5u);
}

TEST(Experiment, FirstSeedOffsetsSeedValues)
{
    SystemConfig cfg = smallLocking("directory");
    std::set<std::uint64_t> seen;
    auto e = Experiment::of(cfg)
                 .seeds(2)
                 .firstSeed(7)
                 .onSeedDone([&](const SeedProgress &p) {
                     seen.insert(p.seedValue);
                 })
                 .run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(seen, (std::set<std::uint64_t>{7, 8}));
}

TEST(Experiment, TimingWheelMatchesReferenceHeap)
{
    // The timing-wheel kernel must be observationally identical to the
    // reference binary heap: same (tick, seq) execution order, so the
    // whole multi-seed experiment aggregates bit for bit.
    SystemConfig wheel_cfg = smallLocking("dst1");
    wheel_cfg.scheduler = SchedulerKind::TimingWheel;
    SystemConfig heap_cfg = wheel_cfg;
    heap_cfg.scheduler = SchedulerKind::ReferenceHeap;

    auto wheel = Experiment::of(wheel_cfg).seeds(3).run();
    auto heap = Experiment::of(heap_cfg).seeds(3).run();
    ASSERT_TRUE(wheel.allCompleted);
    ASSERT_TRUE(heap.allCompleted);
    EXPECT_EQ(wheel.runtime.samples(), heap.runtime.samples());
    ASSERT_EQ(wheel.perSeed.size(), heap.perSeed.size());
    for (unsigned i = 0; i < wheel.perSeed.size(); ++i) {
        const auto &a = wheel.perSeed[i];
        const auto &b = heap.perSeed[i];
        ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
        for (const auto &[k, v] : a.stats.all())
            EXPECT_EQ(v, b.stats.get(k)) << "seed " << i + 1 << " " << k;
    }
}

TEST(ExperimentResult, JsonExportIsWellFormed)
{
    SystemConfig cfg = smallLocking("dst1");
    auto e = Experiment::of(cfg).seeds(2).run();
    const std::string json = e.toJson("cell-label");
    EXPECT_NE(json.find("\"label\": \"cell-label\""),
              std::string::npos);
    EXPECT_NE(json.find("\"protocol\": \"TokenCMP-dst1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"locking\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seeds\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"seedsCompleted\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"runtime\": {\"mean\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"l1.misses\""), std::string::npos);
    // Balanced braces and brackets (no nested strings contain any).
    long depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ExperimentResult, KnobOverridesDisambiguateProtocolLabels)
{
    // Two runs of the same policy under different tuning knobs used
    // to produce colliding labels; the knob-override hash suffix
    // keeps them distinct (and default-knob labels unchanged, so
    // existing baselines still match).
    SystemConfig cfg = smallLocking("dst1");
    auto plain = Experiment::of(cfg).run();
    EXPECT_EQ(plain.protocol, "TokenCMP-dst1");
    EXPECT_EQ(plain.knobHash, "");

    cfg.token.cmpPredEntries = 64;
    auto tuned = Experiment::of(cfg).run();
    EXPECT_EQ(tuned.knobHash.size(), 8u);
    EXPECT_EQ(tuned.protocol, "TokenCMP-dst1@" + tuned.knobHash);
    EXPECT_NE(tuned.toJson().find("\"knobHash\": \"" + tuned.knobHash),
              std::string::npos);
}

TEST(Experiment, IncompleteSeedsAreReported)
{
    SystemConfig cfg = smallLocking("dst1");
    // A horizon far too short for the workload to finish.
    auto e = Experiment::of(cfg)
                 .seeds(2)
                 .horizon(ns(10))
                 .run();
    EXPECT_FALSE(e.allCompleted);
    EXPECT_EQ(e.perSeed.size(), 0u);
    EXPECT_EQ(e.runtime.count(), 0u);
    // The export still records how many seeds were attempted.
    EXPECT_EQ(e.seedsRequested, 2u);
    EXPECT_NE(e.toJson().find("\"seeds\": 2"), std::string::npos);
    EXPECT_NE(e.toJson().find("\"seedsCompleted\": 0"),
              std::string::npos);
}

TEST(Experiment, IncompleteSeedsWarnUnderTheResultLabel)
{
    // The warning names the label the result is reported under: a
    // named policy, and any knob override's hash.
    SystemConfig cfg = smallLocking("dst-group");
    cfg.token.cmpPredEntries = 64;
    ::testing::internal::CaptureStderr();
    const ExperimentResult e =
        Experiment::of(cfg).horizon(ns(1)).run();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(e.allCompleted);
    EXPECT_EQ(e.protocol, "TokenCMP-dst-group@" + e.knobHash);
    EXPECT_NE(err.find(e.protocol +
                       ": seed 1 did not complete within horizon"),
              std::string::npos)
        << err;
}

} // namespace tokencmp::test
