/**
 * @file
 * WorkloadRegistry tests: registry behavior (names, duplicate
 * registration, unknown-name diagnostics), fixed-seed equivalence of
 * the three ported workloads' direct constructors with their
 * registry-named counterparts, knob and policy-knob validation,
 * Zipfian distribution sanity, the warm-up measurement exclusion,
 * registry-named experiments (the paper's presets among them), and a
 * determinism sweep of every new generator across shard maps x
 * worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "test_util.hh"
#include "workload/barrier.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"
#include "workload/workload_registry.hh"
#include "workload/zipf.hh"

namespace tokencmp::test {

namespace {

/** Small knob sets so the determinism sweep stays TSAN-friendly. */
WorkloadParams
smallKnobs(const std::string &name)
{
    WorkloadParams wp;
    if (name == "oltp") {
        wp.opsPerProc = 6;  // transactions
        wp.keys = 256;
        wp.warmupOps = 2;
    } else if (name == "prodcons") {
        wp.opsPerProc = 24;  // items per producer/consumer pair
        wp.keys = 4;         // queue slots
    } else {
        wp.opsPerProc = 20;
    }
    return wp;
}

struct RunSummary
{
    bool completed = false;
    Tick runtime = 0;
    std::uint64_t violations = 0;
    std::map<std::string, double> stats;
};

RunSummary
summarize(const System::RunResult &r)
{
    RunSummary s;
    s.completed = r.completed;
    s.runtime = r.runtime;
    s.violations = r.violations;
    s.stats = r.stats.all();
    return s;
}

/** One fixed-seed run of an already-created workload instance. */
RunSummary
runWorkload(Workload &wl, const SystemConfig &cfg)
{
    wl.reset();
    System sys(cfg);
    return summarize(sys.run(wl));
}

/** One fixed-seed run of a registry-created workload. */
RunSummary
runNamed(const std::string &name, const WorkloadParams &wp,
         const SystemConfig &base)
{
    SystemConfig cfg = base;
    cfg.workloadName = name;
    cfg.workloadParams = wp;
    cfg.validate();
    std::unique_ptr<Workload> wl =
        WorkloadRegistry::instance().create(name, wp);
    return runWorkload(*wl, cfg);
}

void
expectSameRun(const RunSummary &a, const RunSummary &b,
              const std::string &what)
{
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.runtime, b.runtime) << what;
    EXPECT_EQ(a.violations, b.violations) << what;
    ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
    for (const auto &[key, val] : a.stats) {
        auto it = b.stats.find(key);
        ASSERT_NE(it, b.stats.end()) << what << ": missing " << key;
        EXPECT_EQ(val, it->second) << what << ": " << key;
    }
}

SystemConfig
tokenConfig(std::uint64_t seed = 42)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.seed = seed;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Registry behavior
// ---------------------------------------------------------------------

TEST(WorkloadRegistry, KnowsPortedAndProductionWorkloads)
{
    // Exactly these, in name order.
    const std::vector<std::string> expect = {
        "barrier",       "locking",        "oltp",
        "prodcons",      "synthetic",      "synthetic-apache",
        "synthetic-jbb", "synthetic-oltp"};
    EXPECT_EQ(WorkloadRegistry::instance().names(), expect);
    EXPECT_TRUE(WorkloadRegistry::instance().known("oltp"));
    EXPECT_FALSE(WorkloadRegistry::instance().known("no-such-wl"));
}

TEST(WorkloadRegistry, DuplicateRegistrationDies)
{
    auto factory = [](const WorkloadParams &) {
        return std::unique_ptr<Workload>();
    };
    EXPECT_DEATH(WorkloadRegistry::instance().registerWorkload(
                     "oltp", factory),
                 "registered twice");
    EXPECT_DEATH(
        WorkloadRegistry::instance().registerWorkload("", factory),
        "no name");
}

TEST(WorkloadRegistry, UnknownNameListsRegisteredWorkloads)
{
    // The diagnostic must name the typo and list what *is* registered.
    EXPECT_DEATH(WorkloadRegistry::instance().create("no-such-wl", {}),
                 "no-such-wl.*barrier.*locking.*oltp.*prodcons.*"
                 "synthetic.*synthetic-apache.*synthetic-jbb.*"
                 "synthetic-oltp");
}

TEST(WorkloadRegistry, CreateYieldsTheNamedWorkload)
{
    // The paper's presets keep their Figure 6/7 labels.
    const std::map<std::string, std::string> labels = {
        {"synthetic-oltp", "OLTP"},
        {"synthetic-apache", "Apache"},
        {"synthetic-jbb", "SpecJBB"}};
    for (const std::string &n :
         WorkloadRegistry::instance().names()) {
        std::unique_ptr<Workload> wl =
            WorkloadRegistry::instance().create(n, smallKnobs(n));
        ASSERT_NE(wl, nullptr) << n;
        auto it = labels.find(n);
        EXPECT_EQ(wl->name(), it == labels.end() ? n : it->second);
    }
}

// ---------------------------------------------------------------------
// Knob validation
// ---------------------------------------------------------------------

TEST(WorkloadParamsValidation, RejectsBadKnobs)
{
    WorkloadParams hot;
    hot.theta = 1.0;  // the zeta series diverges at theta = 1
    EXPECT_DEATH(WorkloadRegistry::instance().create("oltp", hot),
                 "out of range");

    WorkloadParams writey;
    writey.writeFrac = 1.5;
    EXPECT_DEATH(WorkloadRegistry::instance().create("oltp", writey),
                 "out of range");

    // A jitter wider than the work time would wrap below zero; one
    // on the workload's default work time is rejected too.
    WorkloadParams wide;
    wide.thinkMean = ns(100);
    wide.thinkJitter = ns(101);
    EXPECT_DEATH(WorkloadRegistry::instance().create("barrier", wide),
                 "thinkJitter 101 ns exceeds thinkMean 100 ns");
    WorkloadParams unset;
    unset.thinkJitter = ns(1);
    EXPECT_DEATH(WorkloadRegistry::instance().create("barrier", unset),
                 "thinkJitter 1 ns exceeds thinkMean 0 ns");
}

TEST(WorkloadParamsValidation, ValidateChecksNamedWorkload)
{
    SystemConfig cfg = tokenConfig();
    cfg.workloadName = "oltp";
    cfg.workloadParams.theta = 0.99;
    cfg.validate();

    SystemConfig bad = tokenConfig();
    bad.workloadName = "oltp";
    bad.workloadParams.theta = 2.0;
    EXPECT_DEATH(bad.validate(), "out of range");
    EXPECT_DEATH(System sys(bad), "out of range");
}

TEST(PolicyKnobValidation, ValidateChecksTableGeometry)
{
    SystemConfig cfg = tokenConfig();
    cfg.token.contentionEntries = 10;  // not a multiple of 4 ways
    EXPECT_DEATH(cfg.validate(), "multiple of");

    SystemConfig pred = tokenConfig();
    pred.token.cmpPredWays = 0;
    EXPECT_DEATH(pred.validate(), "multiple of");
}

TEST(PolicyKnobs, DefaultsMatchLegacyHardcodedGeometry)
{
    // The knobs replaced hard-coded constants; their defaults must
    // keep fixed-seed runs bit-identical to the pre-knob code paths.
    SystemConfig cfg = tokenConfig(7);
    cfg.policyName = "dst-group";
    const RunSummary defaults =
        runNamed("synthetic", smallKnobs("synthetic"), cfg);

    SystemConfig explicit_cfg = cfg;
    explicit_cfg.token.cmpPredEntries = 512;
    explicit_cfg.token.cmpPredWays = 4;
    const RunSummary spelled =
        runNamed("synthetic", smallKnobs("synthetic"), explicit_cfg);
    expectSameRun(defaults, spelled, "dst-group default geometry");

    // And a *different* geometry is a different (but valid) run.
    SystemConfig tiny = cfg;
    tiny.token.cmpPredEntries = 8;
    tiny.token.cmpPredWays = 2;
    const RunSummary small_table =
        runNamed("synthetic", smallKnobs("synthetic"), tiny);
    EXPECT_TRUE(small_table.completed);
    EXPECT_EQ(small_table.violations, 0u);
}

// ---------------------------------------------------------------------
// Ported workloads: direct construction vs registry name
// ---------------------------------------------------------------------

TEST(WorkloadEquivalence, PortedWorkloadsMatchNamedCounterparts)
{
    // Registering locking/barrier/synthetic must not have changed
    // them: for a fixed seed, a default-knob registry creation is the
    // *same* execution as the direct constructor, bit for bit.
    const SystemConfig cfg = tokenConfig();

    LockingWorkload locking;
    expectSameRun(runWorkload(locking, cfg),
                  runNamed("locking", {}, cfg), "locking");

    BarrierWorkload barrier;
    expectSameRun(runWorkload(barrier, cfg),
                  runNamed("barrier", {}, cfg), "barrier");

    SyntheticWorkload synthetic{SyntheticParams{}};
    expectSameRun(runWorkload(synthetic, cfg),
                  runNamed("synthetic", {}, cfg), "synthetic");
}

TEST(WorkloadEquivalence, KnobsReachThePortedWorkload)
{
    // A knobbed registry creation equals a direct construction with
    // the correspondingly tweaked params struct.
    const SystemConfig cfg = tokenConfig();

    WorkloadParams wp;
    wp.opsPerProc = 30;
    wp.keys = 4;

    LockingParams lp;
    lp.acquiresPerProc = 30;
    lp.numLocks = 4;
    LockingWorkload direct(lp);
    expectSameRun(runWorkload(direct, cfg),
                  runNamed("locking", wp, cfg), "locking knobs");

    // Table 4's jittered barrier.
    WorkloadParams jittered;
    jittered.opsPerProc = 6;
    jittered.thinkMean = ns(300);
    jittered.thinkJitter = ns(100);
    BarrierParams bp;
    bp.phases = 6;
    bp.workTime = ns(300);
    bp.workJitter = ns(100);
    BarrierWorkload barrier(bp);
    expectSameRun(runWorkload(barrier, cfg),
                  runNamed("barrier", jittered, cfg), "barrier jitter");
}

// ---------------------------------------------------------------------
// Zipfian distribution sanity
// ---------------------------------------------------------------------

TEST(ZipfGenerator, EmpiricalFrequenciesMatchTheory)
{
    const std::uint64_t n = 1000;
    const double theta = 0.9;
    ZipfGenerator gen(n, theta);

    // The exact pmf must be normalized and monotonically decreasing.
    double total = 0.0;
    for (std::uint64_t k = 0; k < n; ++k)
        total += gen.rankProbability(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(gen.rankProbability(0), gen.rankProbability(1));
    EXPECT_GT(gen.rankProbability(1), gen.rankProbability(n - 1));

    // Empirical check: the hottest rank's share of 200k draws lands
    // within 5% (relative) of its exact probability, and the top-10
    // mass matches the pmf head.
    Random rng(12345);
    const unsigned draws = 200000;
    std::vector<unsigned> hits(n, 0);
    for (unsigned i = 0; i < draws; ++i) {
        const std::uint64_t r = gen.nextRank(rng);
        ASSERT_LT(r, n);
        ++hits[r];
    }
    const double hottest = double(hits[0]) / draws;
    EXPECT_NEAR(hottest, gen.rankProbability(0),
                0.05 * gen.rankProbability(0));

    double top10_expected = 0.0, top10_seen = 0.0;
    for (unsigned k = 0; k < 10; ++k) {
        top10_expected += gen.rankProbability(k);
        top10_seen += double(hits[k]) / draws;
    }
    EXPECT_NEAR(top10_seen, top10_expected, 0.02);
}

TEST(ZipfGenerator, ThetaZeroIsUniform)
{
    ZipfGenerator gen(64, 0.0);
    for (std::uint64_t k : {std::uint64_t(0), std::uint64_t(63)})
        EXPECT_NEAR(gen.rankProbability(k), 1.0 / 64, 1e-12);
}

TEST(ZipfGenerator, ScrambleStaysInRangeAndSpreads)
{
    const std::uint64_t n = 4096;
    std::vector<bool> seen(n, false);
    std::uint64_t distinct = 0;
    for (std::uint64_t r = 0; r < n; ++r) {
        const std::uint64_t key = ZipfGenerator::scramble(r, n);
        ASSERT_LT(key, n);
        if (!seen[key]) {
            seen[key] = true;
            ++distinct;
        }
        // Stable: same rank always lands on the same key.
        EXPECT_EQ(key, ZipfGenerator::scramble(r, n));
    }
    // A good mixer keeps collisions rare (YCSB tolerates some): the
    // birthday bound predicts ~63% distinct for random; the splitmix
    // finalizer does much better than that on a dense input range.
    EXPECT_GT(distinct, n / 2);

    // The ten hottest ranks must not cluster in one small region.
    std::uint64_t lo = n, hi = 0;
    for (std::uint64_t r = 0; r < 10; ++r) {
        const std::uint64_t key = ZipfGenerator::scramble(r, n);
        lo = std::min(lo, key);
        hi = std::max(hi, key);
    }
    EXPECT_GT(hi - lo, n / 8);
}

// ---------------------------------------------------------------------
// Warm-up measurement exclusion
// ---------------------------------------------------------------------

namespace {

/** Test workload with a loud warm-up and a nearly silent measured
 *  phase: every processor's warm-up thread walks `warmBlocks` blocks;
 *  the measured thread loads a single block and finishes. */
class WarmHeavyWorkload : public Workload
{
  public:
    WarmHeavyWorkload(unsigned warm_blocks, bool provide_warmup,
                      bool walk_in_measured = false)
        : _warmBlocks(warm_blocks), _provideWarmup(provide_warmup),
          _walkInMeasured(walk_in_measured)
    {}

    class Walker : public ThreadContext
    {
      public:
        Walker(SimContext &ctx, Sequencer &seq, unsigned blocks,
               bool then_probe)
            : ThreadContext(ctx, seq), _blocks(blocks),
              _thenProbe(then_probe)
        {}
        void start() override { step(0); }

      private:
        void
        step(unsigned i)
        {
            if (i == _blocks) {
                if (_thenProbe) {
                    load(0x60000000, [this](std::uint64_t) {
                        finish();
                    });
                } else {
                    finish();
                }
                return;
            }
            load(0x60000000 + Addr(i + 1) * blockBytes,
                 [this, i](std::uint64_t) { step(i + 1); });
        }
        unsigned _blocks;
        bool _thenProbe;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t) override
    {
        // Measured phase: walk only in the no-warm-up control.
        return std::make_unique<Walker>(
            ctx, seq, _walkInMeasured ? _warmBlocks : 0, true);
    }

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq, unsigned,
                     std::uint64_t) override
    {
        if (!_provideWarmup)
            return nullptr;
        return std::make_unique<Walker>(ctx, seq, _warmBlocks, false);
    }

    std::string name() const override { return "warm-heavy"; }

  private:
    unsigned _warmBlocks;
    bool _provideWarmup;
    bool _walkInMeasured;
};

/** A workload that (wrongly) warms only processor 0. */
class PartialWarmupWorkload : public WarmHeavyWorkload
{
  public:
    PartialWarmupWorkload() : WarmHeavyWorkload(4, true) {}

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq,
                     unsigned num_procs, std::uint64_t seed) override
    {
        if (seq.procId() != 0)
            return nullptr;
        return WarmHeavyWorkload::makeWarmupThread(ctx, seq,
                                                   num_procs, seed);
    }

    std::string name() const override { return "partial-warmup"; }
};

} // namespace

TEST(WarmupExclusion, TrafficCountersExcludeWarmupPhase)
{
    SystemConfig cfg = tokenConfig();

    // Control: the same block walk executed *inside* the measured
    // phase shows up in the traffic counters in full.
    WarmHeavyWorkload control(64, false, true);
    const RunSummary walked = runWorkload(control, cfg);
    ASSERT_TRUE(walked.completed);

    // With the walk moved to the warm-up phase, the measured counters
    // cover only the single probe load per processor.
    WarmHeavyWorkload warmed(64, true);
    const RunSummary measured = runWorkload(warmed, cfg);
    ASSERT_TRUE(measured.completed);

    const double walked_msgs = walked.stats.at("net.messages");
    const double warm_msgs = measured.stats.at("net.messages");
    EXPECT_GT(walked_msgs, 10 * warm_msgs)
        << "warm-up traffic leaked into the measured counters";
    EXPECT_GT(warm_msgs, 0.0);  // the probes themselves are visible
    EXPECT_LT(measured.stats.at("l1.misses"),
              walked.stats.at("l1.misses"));
    // Runtime covers the measured phase only: far shorter than the
    // serialized walk.
    EXPECT_LT(measured.runtime, walked.runtime);
}

TEST(WarmupExclusion, PartialWarmupProvisionPanics)
{
    SystemConfig cfg = tokenConfig();
    PartialWarmupWorkload wl;
    System sys(cfg);
    EXPECT_DEATH(sys.run(wl), "all-or-nothing");
}

TEST(WarmupExclusion, OltpWarmupReducesMeasuredMisses)
{
    // Warming the hot records must strictly lower measured cold
    // misses for the same measured transaction count.
    SystemConfig cfg = tokenConfig(11);
    WorkloadParams cold = smallKnobs("oltp");
    cold.warmupOps = 0;
    WorkloadParams warm = smallKnobs("oltp");
    warm.warmupOps = 64;

    const RunSummary without = runNamed("oltp", cold, cfg);
    const RunSummary with = runNamed("oltp", warm, cfg);
    ASSERT_TRUE(without.completed);
    ASSERT_TRUE(with.completed);
    EXPECT_EQ(without.violations, 0u);
    EXPECT_EQ(with.violations, 0u);
    EXPECT_LT(with.stats.at("l1.misses"),
              without.stats.at("l1.misses"));
}

// ---------------------------------------------------------------------
// Named workloads through Experiment::run()
// ---------------------------------------------------------------------

TEST(WorkloadSweep, NamedCellsCarryWorkloadAndPolicyLabels)
{
    // A workload x policy sweep is a loop over names, one run() each.
    std::vector<ExperimentResult> cells;
    for (const char *workload : {"synthetic", "locking"}) {
        for (const char *policy : {"dst1", "dst4"}) {
            SystemConfig cfg = tokenConfig();
            cfg.workloadParams.opsPerProc = 12;
            cfg.workloadName = workload;
            cfg.policyName = policy;
            cells.push_back(Experiment::of(cfg).seeds(1).run());
        }
    }

    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].workload, "synthetic");
    EXPECT_EQ(cells[0].protocol, "TokenCMP-dst1");
    EXPECT_EQ(cells[1].workload, "synthetic");
    EXPECT_EQ(cells[1].protocol, "TokenCMP-dst4");
    EXPECT_EQ(cells[2].workload, "locking");
    EXPECT_EQ(cells[3].workload, "locking");
    for (const ExperimentResult &e : cells) {
        EXPECT_TRUE(e.allCompleted);
        EXPECT_EQ(e.violations, 0u);
    }
}

TEST(WorkloadSweep, RunNeedsAWorkloadThatExists)
{
    SystemConfig typo = tokenConfig();
    typo.workloadName = "oltpp";
    EXPECT_DEATH(Experiment::of(typo).run(), "oltpp");

    SystemConfig nothing = tokenConfig();
    EXPECT_DEATH(Experiment::of(nothing).run(), "no workload");
}

TEST(WorkloadSweep, PresetNamesMatchTheirParams)
{
    // Figures 6 and 7 run the presets by name: the same execution as
    // System::run on the SyntheticParams preset, seed for seed.
    const std::vector<std::pair<std::string, SyntheticParams>> presets =
        {{"synthetic-oltp", oltpParams()},
         {"synthetic-apache", apacheParams()},
         {"synthetic-jbb", jbbParams()}};
    for (const auto &[name, params] : presets) {
        SystemConfig cfg = tokenConfig();
        cfg.workloadName = name;
        const ExperimentResult named =
            Experiment::of(cfg).seeds(2).parallelism(2).run();
        ASSERT_TRUE(named.allCompleted) << name;
        EXPECT_EQ(named.workload, params.label);
        ASSERT_EQ(named.perSeed.size(), 2u) << name;
        for (unsigned seed = 1; seed <= 2; ++seed) {
            cfg.seed = seed;
            SyntheticWorkload direct(params);
            System sys(cfg);
            const System::RunResult r = sys.run(direct);
            const System::RunResult &n = named.perSeed[seed - 1];
            const std::string what = name + " seed " +
                                     std::to_string(seed);
            EXPECT_EQ(n.runtime, r.runtime) << what;
            for (const char *stat :
                 {"net.messages", "token.persistentIssued"}) {
                EXPECT_EQ(n.stats.get(stat), r.stats.get(stat))
                    << what << " " << stat;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism sweep: new generators across worker counts
// ---------------------------------------------------------------------

class GeneratorShardSweep
    : public ::testing::TestWithParam<std::tuple<const char *, unsigned>>
{};

TEST_P(GeneratorShardSweep, StatsBitIdenticalAcrossWorkerCounts)
{
    const std::string name = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());
    const WorkloadParams wp = smallKnobs(name);

    auto run = [&](unsigned workers) {
        SystemConfig cfg = tokenConfig(17);
        cfg.shards = workers;
        cfg.workloadName = name;
        cfg.workloadParams = wp;
        cfg.validate();
        std::unique_ptr<Workload> wl =
            WorkloadRegistry::instance().create(name, wp);
        return runWorkload(*wl, cfg);
    };

    // shards=1 is the canonical sharded execution; more workers may
    // only change the thread mapping, never the result.
    const RunSummary base = run(1);
    ASSERT_TRUE(base.completed) << name;
    EXPECT_EQ(base.violations, 0u) << name;

    expectSameRun(run(shards), base,
                  name + " shards=" + std::to_string(shards));
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsByShards, GeneratorShardSweep,
    ::testing::Combine(::testing::Values("oltp", "prodcons"),
                       ::testing::Values(2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<
        GeneratorShardSweep::ParamType> &info) {
        return std::string(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace tokencmp::test
