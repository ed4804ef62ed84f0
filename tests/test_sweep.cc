/**
 * @file
 * Tests for the sweep orchestration subsystem: the minijson reader,
 * the named-knob table and override hash, ParamGrid enumeration /
 * fingerprinting / golden cell hashes, and the SweepDriver's resume
 * journal — stop-and-resume bit-identity, truncated-line tolerance,
 * fingerprint-mismatch rejection, and multi-process fan-out matching
 * in-process execution bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <sys/wait.h>

#include "core/policy.hh"
#include "sim/logging.hh"
#include "sweep/json.hh"
#include "sweep/param_grid.hh"
#include "sweep/sweep_driver.hh"
#include "system/knobs.hh"

namespace tokencmp::test {

namespace {

/** The smoke grid most driver tests run: 2 policies x 1 workload x 2
 *  overrides = 4 tiny cells. */
const char *kTinyGrid = R"({
  "name": "tiny",
  "policies": ["dst1", "directory"],
  "workloads": ["oltp"],
  "seeds": 1,
  "horizonNs": 500000000,
  "workloadKnobs": {"opsPerProc": 60, "keys": 64},
  "overrides": [
    {"label": "default"},
    {"label": "smallpred",
     "knobs": {"token.cmpPredEntries": 64, "token.cmpPredWays": 2}}
  ]
})";

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "tokencmp_sweep_" + name;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

/** Run `cmd` through the shell; returns its exit status and sets
 *  `out` to its combined stdout and stderr. */
int
runCommand(const std::string &cmd, std::string &out)
{
    out.clear();
    std::FILE *p = popen((cmd + " 2>&1").c_str(), "r");
    if (p == nullptr)
        return -1;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    const int status = pclose(p);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

// ---- minijson -------------------------------------------------------

TEST(MiniJson, ParsesScalarsArraysObjects)
{
    std::string err;
    minijson::Value v = minijson::parse(
        R"({"s": "a\nb", "n": -2.5, "t": true, "f": false,
            "nil": null, "arr": [1, 2, 3], "obj": {"k": "v"}})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.getString("s"), "a\nb");
    EXPECT_EQ(v.getNumber("n"), -2.5);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_TRUE(v.find("nil")->isNull());
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->arr.size(), 3u);
    EXPECT_EQ(v.find("obj")->getString("k"), "v");
    // Defaults for absent / wrong-kind members.
    EXPECT_EQ(v.getString("missing", "d"), "d");
    EXPECT_EQ(v.getNumber("s", 7.0), 7.0);
}

TEST(MiniJson, DecodesUnicodeEscapes)
{
    std::string err;
    minijson::Value v =
        minijson::parse(R"(["Aé€"])", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.arr.at(0).str, "A\xc3\xa9\xe2\x82\xac");
}

TEST(MiniJson, ReportsErrorsWithByteOffsets)
{
    std::string err;
    minijson::parse("{\"a\": }", &err);
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;

    minijson::parse("[1, 2] trailing", &err);
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    minijson::parse("\"unterminated", &err);
    EXPECT_NE(err.find("unterminated"), std::string::npos) << err;

    minijson::parseFile("/nonexistent/definitely.json", &err);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// ---- knobs ----------------------------------------------------------

TEST(Knobs, StableHashMatchesFnv1aTestVectors)
{
    // Published FNV-1a 64-bit vectors: the hash must never drift, or
    // every journal and baseline keyed by it silently invalidates.
    EXPECT_EQ(stableHash64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(stableHash64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(stableHash64("foobar"), 0x85944171f73967e8ull);
    EXPECT_EQ(hashHex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(Knobs, TableLookupAndRoundTrip)
{
    EXPECT_EQ(knobTable().size(), 4u);
    EXPECT_EQ(findKnob("no.such.knob"), nullptr);

    const KnobDef *k = findKnob("token.cmpPredEntries");
    ASSERT_NE(k, nullptr);
    SystemConfig cfg;
    k->set(cfg, 64);
    EXPECT_EQ(k->get(cfg), 64.0);
    EXPECT_NE(knobNameList().find("token.cmpPredWays"),
              std::string::npos);
}

TEST(Knobs, OverrideHashEmptyAtDefaultsStableOtherwise)
{
    SystemConfig def;
    EXPECT_EQ(knobOverrideHash(def), "");

    SystemConfig a, b;
    findKnob("token.cmpPredEntries")->set(a, 64);
    findKnob("token.cmpPredEntries")->set(b, 64);
    const std::string ha = knobOverrideHash(a);
    EXPECT_EQ(ha.size(), 8u);
    EXPECT_EQ(ha, knobOverrideHash(b));  // deterministic

    findKnob("token.cmpPredWays")->set(b, 2);
    EXPECT_NE(knobOverrideHash(b), ha);  // different knobs differ
}

// ---- ParamGrid ------------------------------------------------------

TEST(ParamGrid, GoldenFingerprintAndCellHashes)
{
    // Pinned values: cell hashes key resume journals and the grid
    // fingerprint guards them, so both must stay stable across
    // platforms, compilers and refactors. Any change here is a
    // breaking change for existing journals — bump deliberately.
    ParamGrid g = ParamGrid::fromJsonText(kTinyGrid, "tiny-test");
    EXPECT_EQ(g.fingerprint(), "25c0192397eb389d");
    ASSERT_EQ(g.cells().size(), 4u);
    EXPECT_EQ(g.cells()[0].hash, "8f71a33aff31a8ec");
    EXPECT_EQ(g.cells()[0].label, "dst1/oltp/serial/default/s1");
    EXPECT_EQ(g.cells()[1].hash, "9b6dd4ff5782b7b7");
    EXPECT_EQ(g.cells()[2].hash, "e9a65479969c5277");
    EXPECT_EQ(g.cells()[3].hash, "0ae9768ae5963668");

    EXPECT_EQ(g.cellByHash("8f71a33aff31a8ec"), &g.cells()[0]);
    EXPECT_EQ(g.cellByHash("0000000000000000"), nullptr);
}

TEST(ParamGrid, FingerprintIgnoresFormattingDetectsEdits)
{
    ParamGrid a = ParamGrid::fromJsonText(kTinyGrid, "a");
    // Same grid, hostile formatting: one line, shuffled key order.
    ParamGrid b = ParamGrid::fromJsonText(
        R"({"workloads":["oltp"],"horizonNs":500000000,)"
        R"("overrides":[{"label":"default"},{"label":"smallpred",)"
        R"("knobs":{"token.cmpPredWays":2,"token.cmpPredEntries":64}}],)"
        R"("seeds":1,"policies":["dst1","directory"],)"
        R"("workloadKnobs":{"keys":64,"opsPerProc":60},"name":"tiny"})",
        "b");
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    std::string edited = kTinyGrid;
    edited.replace(edited.find("\"seeds\": 1"), 10, "\"seeds\": 2");
    ParamGrid c = ParamGrid::fromJsonText(edited, "c");
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ParamGrid, CellHashesExcludeWorkerCount)
{
    // The determinism contract says worker count cannot move results,
    // so re-running a journal with different shardWorkers must still
    // resume (same cell hashes) while the fingerprint flags the edit.
    const char *base = R"({
      "name": "w", "policies": ["dst1"], "workloads": ["oltp"],
      "shardMaps": ["perCmp"], "shardWorkers": %u,
      "workloadKnobs": {"opsPerProc": 30, "keys": 32}})";
    char buf[512];
    std::snprintf(buf, sizeof(buf), base, 2u);
    ParamGrid g2 = ParamGrid::fromJsonText(buf, "w2");
    std::snprintf(buf, sizeof(buf), base, 4u);
    ParamGrid g4 = ParamGrid::fromJsonText(buf, "w4");

    ASSERT_EQ(g2.cells().size(), g4.cells().size());
    for (std::size_t i = 0; i < g2.cells().size(); ++i)
        EXPECT_EQ(g2.cells()[i].hash, g4.cells()[i].hash);
    EXPECT_NE(g2.fingerprint(), g4.fingerprint());
}

TEST(ParamGrid, SkipsInvalidAxisCombinations)
{
    // perfect x sharded is structurally impossible; crossing mixed
    // axes must skip it, not die.
    ParamGrid g = ParamGrid::fromJsonText(
        R"({"name": "mix", "policies": ["dst1", "perfect"],
            "workloads": ["oltp"],
            "shardMaps": ["serial", "perCmp"],
            "workloadKnobs": {"opsPerProc": 30, "keys": 32}})",
        "mix");
    // dst1: serial, perCmp = 2. perfect: serial only = 1.
    EXPECT_EQ(g.cells().size(), 3u);
    for (const SweepCell &c : g.cells()) {
        EXPECT_FALSE(c.policy == "perfect" && c.shardMap != "serial")
            << c.label;
    }
}

TEST(ParamGrid, ConfigForAppliesAxes)
{
    ParamGrid g = ParamGrid::fromJsonText(kTinyGrid, "cfg-test");
    const SweepCell *smallpred =
        g.cellByHash("9b6dd4ff5782b7b7");  // dst1 x smallpred
    ASSERT_NE(smallpred, nullptr);
    SystemConfig cfg = g.configFor(*smallpred);
    EXPECT_EQ(cfg.protocol, Protocol::TokenDst1);
    EXPECT_EQ(cfg.policyName, "dst1");
    EXPECT_EQ(cfg.workloadName, "oltp");
    EXPECT_EQ(cfg.seed, 1u);
    EXPECT_EQ(findKnob("token.cmpPredEntries")->get(cfg), 64.0);
    EXPECT_EQ(findKnob("token.cmpPredWays")->get(cfg), 2.0);
    EXPECT_EQ(cfg.workloadParams.opsPerProc, 60u);

    const SweepCell *dir =
        g.cellByHash("e9a65479969c5277");  // directory x default
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(g.configFor(*dir).protocol, Protocol::DirectoryCMP);

    // Every cell selects exactly what SystemConfig::select() does for
    // its policy-axis name.
    for (const SweepCell &c : g.cells()) {
        const SystemConfig sel = SystemConfig::select(c.policy);
        const SystemConfig grid = g.configFor(c);
        EXPECT_EQ(grid.protocol, sel.protocol) << c.label;
        EXPECT_EQ(grid.policyName, sel.policyName) << c.label;
        EXPECT_EQ(grid.displayName(), sel.displayName()) << c.label;
    }
}

/** Two locking entries that differ only in their lock count, plus a
 *  plain entry: 1 policy x 3 workloads = 3 cells. */
const char *kEntryGrid = R"({
  "name": "entries",
  "policies": ["dst1"],
  "workloads": [
    {"name": "locking", "label": "locks2", "knobs": {"keys": 2}},
    {"name": "locking", "label": "locks4", "knobs": {"keys": 4}},
    "oltp"
  ],
  "workloadKnobs": {"opsPerProc": 5, "keys": 64}
})";

TEST(ParamGrid, WorkloadEntriesLayTheirKnobsOverTheGrids)
{
    ParamGrid g = ParamGrid::fromJsonText(kEntryGrid, "entries");
    ASSERT_EQ(g.cells().size(), 3u);
    const SweepCell &l2 = g.cells()[0];
    const SweepCell &l4 = g.cells()[1];
    EXPECT_EQ(l2.workload, "locks2");
    EXPECT_EQ(l2.label, "dst1/locks2/serial/default/s1");
    // The merged knobs are in the key, so the two entries hash apart.
    EXPECT_NE(l2.key.find("workload=locking[locks2]"), std::string::npos)
        << l2.key;
    EXPECT_NE(l2.key.find("wl={ops=5;keys=2;"), std::string::npos)
        << l2.key;
    EXPECT_NE(l4.key.find("wl={ops=5;keys=4;"), std::string::npos)
        << l4.key;
    EXPECT_NE(l2.hash, l4.hash);

    const SystemConfig c2 = g.configFor(l2);
    EXPECT_EQ(c2.workloadName, "locking");
    EXPECT_EQ(c2.workloadParams.keys, 2u);
    EXPECT_EQ(c2.workloadParams.opsPerProc, 5u);
    EXPECT_EQ(g.configFor(l4).workloadParams.keys, 4u);

    // A plain entry runs the grid's knobs and keys as it always did.
    const SweepCell &plain = g.cells()[2];
    EXPECT_EQ(plain.workload, "oltp");
    EXPECT_NE(plain.key.find("|workload=oltp|"), std::string::npos);
    EXPECT_EQ(g.configFor(plain).workloadParams.keys, 64u);

    // The entry's knobs are part of the grid's fingerprint too.
    std::string edited = kEntryGrid;
    edited.replace(edited.find("\"keys\": 4"), 9, "\"keys\": 8");
    EXPECT_NE(ParamGrid::fromJsonText(edited, "e").fingerprint(),
              g.fingerprint());
}

TEST(ParamGrid, PaperMacroGridCoversEveryFlatTokenPolicy)
{
    // The policy table reads every registered flat-token policy from
    // this grid; hier's intra-CMP "arb4" is not a row. A newly
    // registered policy must join the grid.
    ParamGrid g =
        ParamGrid::fromFile(TOKENCMP_GRID_DIR "/paper_macro.json");
    for (const std::string &name : PolicyRegistry::instance().names()) {
        if (name == "arb4")
            continue;
        EXPECT_NE(std::find(g.policies().begin(), g.policies().end(),
                            name),
                  g.policies().end())
            << name << " is missing from paper_macro.json";
    }
}

namespace {

/** A one-cell grid with `field` spliced into the top level. */
std::string
gridWith(const std::string &field)
{
    return R"({"name": "t", "policies": ["dst1"], "workloads": ["oltp"], )" +
           field + "}";
}

} // namespace

using ParamGridDeathTest = ::testing::Test;

TEST(ParamGridDeathTest, RejectsTyposLoudly)
{
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "polices": ["dst1"],
                         "workloads": ["oltp"]})",
                     "t"),
                 "unknown key");
    // The retired speculation axis is an unknown key too.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dst1"],
                         "workloads": ["oltp"],
                         "speculation": ["off"]})",
                     "t"),
                 "unknown key \"speculation\"");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dts1"],
                         "workloads": ["oltp"]})",
                     "t"),
                 "unknown configuration .dts1.");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dst1"],
                         "workloads": ["otlp"]})",
                     "t"),
                 "unknown workload");
    EXPECT_DEATH(
        ParamGrid::fromJsonText(
            R"({"name": "t", "policies": ["dst1"],
                "workloads": ["oltp"],
                "overrides": [{"label": "x",
                               "knobs": {"token.predEntries": 1}}]})",
            "t"),
        "unknown knob");
    // The two retired load-schedule knobs are unknown keys too.
    for (const char *retired : {"inner", "schedule"}) {
        EXPECT_DEATH(ParamGrid::fromJsonText(
                         gridWith(std::string(R"("workloadKnobs": {")") +
                                  retired + R"(": "oltp"})"),
                         "t"),
                     std::string("unknown workloadKnobs key \"") +
                         retired + "\"");
    }
}

TEST(ParamGridDeathTest, ShardMapsAreSerialOrPerCmp)
{
    // Shard domains are CMPs; any finer map is an unknown name.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dst1"],
                         "workloads": ["oltp"],
                         "shardMaps": ["perCore"]})",
                     "t"),
                 "unknown shardMap 'perCore' \\(serial, perCmp\\)");
}

TEST(ParamGridDeathTest, IntegerFieldsRangeCheckBeforeNarrowing)
{
    // 2^32 used to wrap to 0 through an unsigned cast: "shardWorkers"
    // then passed the >= 1 check and ran a perCmp cell serially.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("shardMaps": ["perCmp"],
                                 "shardWorkers": 4294967296)"),
                     "t"),
                 "\"shardWorkers\" must be an integer in \\[1, "
                 "4294967295\\]");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("seeds": 4294967296)"), "t"),
                 "\"seeds\" must be an integer in");
    // Past 2^64 the old uint64 round trip itself was undefined.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("seeds": 1e300)"), "t"),
                 "\"seeds\" must be an integer in");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("firstSeed": 1e300)"), "t"),
                 "\"firstSeed\" must be an integer in");
    // Nanosecond fields must still fit in ticks once scaled by 1000.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("horizonNs": 1e17)"), "t"),
                 "\"horizonNs\" must be an integer in");
}

TEST(ParamGridDeathTest, IntegerKnobsMustFitTheirField)
{
    // Each used to pass grid load through a bare cast: -64 became a
    // 4-billion-entry table (std::bad_alloc in a dst-group cell), 2^32
    // wrapped to 0 entries, and 2.5 ran as 2 ways under its own hash.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("overrides": [{"label": "neg", "knobs":
                                  {"token.cmpPredEntries": -64}}])"),
                     "t"),
                 "knob 'token.cmpPredEntries' must be an integer in "
                 "\\[0, 4294967295\\]");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("overrides": [{"label": "wrap", "knobs":
                                  {"token.cmpPredEntries": 4294967296}}])"),
                     "t"),
                 "knob 'token.cmpPredEntries' must be an integer in");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("overrides": [{"label": "half", "knobs":
                                  {"token.cmpPredWays": 2.5}}])"),
                     "t"),
                 "knob 'token.cmpPredWays' must be an integer in");
    // Every knob is range-checked, not only some: a value a hair off
    // a whole number dies on each of them.
    for (const KnobDef &k : knobTable()) {
        EXPECT_DEATH(ParamGrid::fromJsonText(
                         gridWith(std::string(R"("overrides": [{"label":
                                  "frac", "knobs": {")") +
                                  k.name + R"(": 4.000001}}])"),
                         "t"),
                     std::string("knob '") + k.name +
                         "' must be an integer in");
    }
}

TEST(ParamGridDeathTest, DeepNestingFailsWithByteOffset)
{
    // 100000 nested arrays used to overflow the parser's stack.
    const std::string deep =
        std::string(100000, '[') + std::string(100000, ']');
    EXPECT_DEATH(ParamGrid::fromJsonText(deep, "deep"),
                 "sweep grid deep: nesting deeper than 256 levels "
                 "\\(at byte 256\\)");
    // 256 levels still parse.
    std::string err;
    minijson::parse(std::string(256, '[') + std::string(256, ']'), &err);
    EXPECT_TRUE(err.empty()) << err;
}

TEST(ParamGridDeathTest, WorkloadKnobIntegersAreChecked)
{
    // A negative key count used to wrap to 2^64 - 3 and hang the grid
    // load building the key space.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("workloadKnobs": {"keys": -3})"), "t"),
                 "workloadKnobs: \"keys\" must be an integer in");
    // A fractional quota used to truncate silently, and its cell hash
    // collided with the truncated value's.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     gridWith(R"("workloadKnobs": {"opsPerProc": 20.7})"),
                     "t"),
                 "workloadKnobs: \"opsPerProc\" must be an integer in");
    // A key count of 2^32 used to wrap to 0 through the workloads'
    // unsigned cast, so a locking cell aborted the sweep mid-run.
    EXPECT_DEATH(
        ParamGrid::fromJsonText(
            R"({"name": "t", "policies": ["dst1"],
                "workloads": ["locking"],
                "workloadKnobs": {"keys": 4294967296}})",
            "t"),
        "workloadKnobs: \"keys\" must be an integer in \\[0, "
        "4294967295\\]");
    // A barrier work time jittered below zero wraps; it dies at load.
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dst1"],
                         "workloads": ["barrier"],
                         "workloadKnobs": {"thinkMeanNs": 1000,
                                           "thinkJitterNs": 1001}})",
                     "t"),
                 "workload 'barrier': thinkJitter 1001 ns exceeds "
                 "thinkMean 1000 ns");
}

TEST(ParamGridDeathTest, WorkloadEntriesNeedAUniqueLabelAndKnownKnobs)
{
    // (workloads axis, diagnostic); a plain entry's label is its name.
    const std::pair<const char *, const char *> cases[] = {
        {R"({"name": "locking", "knobs": {"keys": 2}})",
         "workload entry 'locking' needs a \"label\""},
        {R"({"name": "locking", "label": "a"},
            {"name": "barrier", "label": "a"})",
         "duplicate workload label 'a'"},
        {R"("oltp", {"name": "locking", "label": "oltp"})",
         "duplicate workload label 'oltp'"},
        {R"({"name": "locking", "label": "locks/2"})",
         "workload entry 'locking' needs a \"label\" of "
         "\\[A-Za-z0-9_.@-\\] \\(it enters the cell labels\\), not "
         "'locks/2'"},
        {R"({"name": "locking", "label": "x", "knobs": {"locks": 2}})",
         "workload 'x': unknown workloadKnobs key \"locks\""},
        {R"({"name": "locking", "label": "x", "knobs": {"keys": -3}})",
         "workload 'x' workloadKnobs: \"keys\" must be an integer in"},
        {R"({"name": "locking", "label": "x",
             "knobs": {"keys": 4294967296}})",
         "workload 'x' workloadKnobs: \"keys\" must be an integer in"},
        {R"({"name": "lockin", "label": "x"})", "unknown workload 'lockin'"},
    };
    for (const auto &[entries, diagnostic] : cases) {
        EXPECT_DEATH(ParamGrid::fromJsonText(
                         std::string(R"({"name": "t", "policies": ["dst1"],
                                         "workloads": [)") +
                             entries + "]}",
                         "t"),
                     diagnostic);
    }
}

// ---- SweepDriver ----------------------------------------------------

namespace {

/** Load the tiny grid from a real file (multi-process mode needs a
 *  path) and hand back grid + default in-process options. */
struct DriverFixture
{
    explicit DriverFixture(const std::string &tag)
        : gridPath(tmpPath(tag + ".grid.json")),
          journal(tmpPath(tag + ".journal.jsonl"))
    {
        writeFile(gridPath, kTinyGrid);
        std::remove(journal.c_str());
    }

    SweepOptions
    opts() const
    {
        SweepOptions o;
        o.journalPath = journal;
        o.verbose = false;
        return o;
    }

    std::string gridPath;
    std::string journal;
};

} // namespace

TEST(SweepDriver, RunsAllCellsAndJournalsThem)
{
    DriverFixture fx("run");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    SweepDriver driver(grid, fx.opts());
    SweepDriver::Summary s = driver.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.ran, 4u);
    EXPECT_EQ(s.resumed, 0u);
    EXPECT_EQ(driver.cellsDone(), 4u);

    // Journal: header + one line per cell, all valid JSON.
    const std::string text = readFile(fx.journal);
    EXPECT_NE(text.find("\"type\": \"header\""), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);

    // A fresh driver over the same journal resumes everything.
    SweepDriver resumed(grid, fx.opts());
    SweepDriver::Summary s2 = resumed.run();
    EXPECT_TRUE(s2.complete());
    EXPECT_EQ(s2.ran, 0u);
    EXPECT_EQ(s2.resumed, 4u);
}

TEST(SweepDriver, StopAndResumeReportIsBitIdentical)
{
    // Uninterrupted reference run.
    DriverFixture ref("ref");
    ParamGrid grid = ParamGrid::fromFile(ref.gridPath);
    SweepDriver full(grid, ref.opts());
    ASSERT_TRUE(full.run().complete());
    const std::string fullReport = full.mergedReport();

    // Stopped after 1 cell, then resumed to completion.
    DriverFixture fx("resume");
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 1;
        SweepDriver first(grid, o);
        SweepDriver::Summary s = first.run();
        EXPECT_TRUE(s.stopped);
        EXPECT_EQ(s.ran, 1u);
        EXPECT_FALSE(s.complete());
    }
    SweepDriver second(grid, fx.opts());
    SweepDriver::Summary s = second.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.resumed, 1u);
    EXPECT_EQ(s.ran, 3u);

    EXPECT_EQ(second.mergedReport(), fullReport);
}

TEST(SweepDriver, ToleratesTruncatedFinalJournalLine)
{
    DriverFixture fx("trunc");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 2;
        SweepDriver d(grid, o);
        d.run();
    }
    // Simulate a kill -9 mid-append: a torn, unparseable last line.
    std::FILE *f = std::fopen(fx.journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\": \"cell\", \"hash\": \"ec57451e", f);
    std::fclose(f);

    SweepDriver d(grid, fx.opts());
    EXPECT_EQ(d.cellsDone(), 2u);  // torn line ignored, not fatal
    SweepDriver::Summary s = d.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.resumed, 2u);
    EXPECT_EQ(s.ran, 2u);
}

TEST(SweepDriver, MultiProcessMatchesInProcessBitForBit)
{
    // In-process reference.
    DriverFixture ref("mpref");
    ParamGrid grid = ParamGrid::fromFile(ref.gridPath);
    SweepDriver serial(grid, ref.opts());
    ASSERT_TRUE(serial.run().complete());

    // Multi-process fan-out through the real sweep CLI binary.
    DriverFixture fx("mp");
    SweepOptions o = fx.opts();
    o.processes = 2;
    o.selfExec = TOKENCMP_SWEEP_TOOL;
    o.gridPath = fx.gridPath;
    SweepDriver mp(grid, o);
    SweepDriver::Summary s = mp.run();
    EXPECT_TRUE(s.complete()) << (s.failures.empty()
                                      ? "?"
                                      : s.failures.front());
    EXPECT_EQ(mp.mergedReport(), serial.mergedReport());
}

TEST(SweepDriver, OverriddenCellsGetDistinctProtocolLabels)
{
    // The label-collision fix: same policy, different knob overrides
    // must produce distinct result labels (protocol "@<hash>").
    ParamGrid grid = ParamGrid::fromJsonText(kTinyGrid, "labels");
    const std::string def = SweepDriver::cellResultJson(
        grid, *grid.cellByHash("8f71a33aff31a8ec"));
    const std::string ovr = SweepDriver::cellResultJson(
        grid, *grid.cellByHash("9b6dd4ff5782b7b7"));

    std::string err;
    minijson::Value dj = minijson::parse(def, &err);
    ASSERT_TRUE(err.empty()) << err;
    minijson::Value oj = minijson::parse(ovr, &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(dj.getString("protocol"), "TokenCMP-dst1");
    EXPECT_EQ(dj.find("knobHash"), nullptr);
    EXPECT_EQ(oj.getString("knobHash").size(), 8u);
    EXPECT_EQ(oj.getString("protocol"),
              "TokenCMP-dst1@" + oj.getString("knobHash"));
}

TEST(SweepDriver, ReportNamesWorkloadsByLabel)
{
    ParamGrid grid = ParamGrid::fromJsonText(kEntryGrid, "entries");
    SweepOptions o;
    o.journalPath = tmpPath("entries.journal.jsonl");
    o.verbose = false;
    std::remove(o.journalPath.c_str());
    SweepDriver driver(grid, o);
    ASSERT_TRUE(driver.run().complete());

    std::string err;
    minijson::Value r = minijson::parse(driver.mergedReport(), &err);
    ASSERT_TRUE(err.empty()) << err;
    const minijson::Value *axis = r.find("axes")->find("workloads");
    ASSERT_EQ(axis->arr.size(), 3u);
    EXPECT_EQ(axis->arr[0].str, "locks2");
    EXPECT_EQ(r.find("cells")->arr[1].getString("workload"), "locks4");
    const minijson::Value *rt = r.find("marginals")->find("runtimeNs");
    EXPECT_NE(rt->find("byWorkload")->find("locks2"), nullptr);
    EXPECT_NE(rt->find("byWorkload")->find("locks4"), nullptr);
    EXPECT_EQ(rt->find("byWorkload")->find("locking"), nullptr);
    EXPECT_NE(rt->find("byPolicyWorkload")->find("dst1|locks4"), nullptr);
}

using SweepDriverDeathTest = ::testing::Test;

TEST(SweepDriverDeathTest, EditedGridAgainstOldJournalIsFatal)
{
    DriverFixture fx("editdeath");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 1;
        SweepDriver d(grid, o);
        d.run();
    }
    std::string edited = kTinyGrid;
    edited.replace(edited.find("\"seeds\": 1"), 10, "\"seeds\": 2");
    ParamGrid editedGrid = ParamGrid::fromJsonText(edited, "edited");
    EXPECT_DEATH(SweepDriver(editedGrid, fx.opts()),
                 "the grid was edited");
}

TEST(SweepDriverDeathTest, JournalFromAnotherBuildIsFatal)
{
    // A rebuilt binary must not resume an old build's journal: its
    // results may come from different code or defaults. A header
    // naming another build, or none, dies naming both digests.
    DriverFixture fx("builddeath");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 1;
        SweepDriver d(grid, o);
        d.run();
    }
    const std::string text = readFile(fx.journal);
    const std::string mine = SweepDriver::buildDigest();
    ASSERT_EQ(mine.size(), 16u);
    const std::string field = "\"build\": \"" + mine + "\"";
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos);
    // The same journal resumes under this build.
    EXPECT_EQ(SweepDriver(grid, fx.opts()).cellsDone(), 1u);

    std::string other = text;
    other.replace(at, field.size(), "\"build\": \"0123456789abcdef\"");
    writeFile(fx.journal, other);
    EXPECT_DEATH(SweepDriver(grid, fx.opts()),
                 "written by build 0123456789abcdef, but this binary "
                 "is build " + mine + ".*--fresh");

    std::string none = text;
    none.replace(at, field.size() + 2, "");  // the field and its ", "
    writeFile(fx.journal, none);
    EXPECT_DEATH(SweepDriver(grid, fx.opts()),
                 "written by build \\(none recorded\\), but this "
                 "binary is build " + mine + ".*--fresh");
}

TEST(SweepDriverDeathTest, CorruptMidJournalLineIsFatal)
{
    DriverFixture fx("corrupt");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    writeFile(fx.journal,
              "{\"type\": \"header\", \"grid\": \"tiny\", "
              "\"fingerprint\": \"" + grid.fingerprint() +
              "\", \"build\": \"" + SweepDriver::buildDigest() +
              "\", \"cells\": 4}\n"
              "not json at all\n"
              "{\"type\": \"cell\"}\n");
    EXPECT_DEATH(SweepDriver(grid, fx.opts()), "corrupt line 2");
}

TEST(SweepDriverDeathTest, DeeplyNestedJournalLineIsFatal)
{
    DriverFixture fx("deep");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    writeFile(fx.journal,
              "{\"type\": \"header\", \"grid\": \"tiny\", "
              "\"fingerprint\": \"" + grid.fingerprint() +
              "\", \"build\": \"" + SweepDriver::buildDigest() +
              "\", \"cells\": 4}\n" +
              std::string(100000, '[') + std::string(100000, ']') +
              "\n{\"type\": \"cell\"}\n");
    EXPECT_DEATH(SweepDriver(grid, fx.opts()),
                 "corrupt line 2: nesting deeper than 256 levels");
}

// ---- count parsing (sweep CLI flags, bench env knobs) -------------

TEST(ParseCount, AcceptsWholeNumbersAtOrAboveTheMinimum)
{
    EXPECT_EQ(parseCount("0", "--procs", 0), 0u);
    EXPECT_EQ(parseCount("1", "TOKENCMP_SEEDS", 1), 1u);
    EXPECT_EQ(parseCount("12", "--threads", 1), 12u);
}

TEST(ParseCountDeathTest, RejectsSignsJunkAndOverflowNamingTheSource)
{
    for (const char *bad : {"-1", "abc", "2x", "", " 3", "+3",
                            "99999999999"}) {
        SCOPED_TRACE(bad);
        EXPECT_DEATH(parseCount(bad, "TOKENCMP_PARALLEL", 1),
                     "TOKENCMP_PARALLEL");
    }
    EXPECT_DEATH(parseCount("0", "TOKENCMP_SEEDS", 1), "TOKENCMP_SEEDS");
}

TEST(SweepCli, RejectsNegativeAndNonNumericCounts)
{
    // The grid path does not exist: a flag that slipped through would
    // fail on the grid instead, without naming the flag.
    const std::string tool = TOKENCMP_SWEEP_TOOL;
    const std::string grid = tmpPath("no_such_grid.json");
    for (const char *flag : {"--threads", "--procs", "--stop-after"}) {
        for (const char *value : {"-1", "abc"}) {
            SCOPED_TRACE(std::string(flag) + " " + value);
            std::string out;
            EXPECT_EQ(runCommand(tool + " --grid " + grid + " " + flag +
                                     " " + value,
                                 out),
                      1);
            EXPECT_NE(out.find(flag), std::string::npos) << out;
        }
    }
    std::string out;
    EXPECT_EQ(runCommand(tool + " --grid " + grid + " --threads 0", out),
              1);
    EXPECT_NE(out.find("--threads"), std::string::npos) << out;
}

TEST(SweepCli, ZeroProcsAndStopAfterKeepTheirMeaning)
{
    const std::string grid = tmpPath("zero_counts.json");
    writeFile(grid, kTinyGrid);
    std::string out;
    EXPECT_EQ(runCommand(std::string(TOKENCMP_SWEEP_TOOL) + " --grid " +
                             grid + " --procs 0 --stop-after 0 --list",
                         out),
              0)
        << out;
    EXPECT_NE(out.find("grid tiny: 4 cells"), std::string::npos) << out;
}

} // namespace tokencmp::test
