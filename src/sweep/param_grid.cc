#include "sweep/param_grid.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "sim/logging.hh"
#include "sweep/json.hh"
#include "system/knobs.hh"
#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    return buf;
}

/** The workload-knob segment shared by the grid canonical form and
 *  every cell key. */
std::string
workloadKnobSegment(const WorkloadParams &wl)
{
    return "wl={ops=" + fmtU64(wl.opsPerProc) +
           ";keys=" + fmtU64(wl.keys) +
           ";theta=" + fmtNum(wl.theta) +
           ";write=" + fmtNum(wl.writeFrac) +
           ";thinkNs=" + fmtU64(wl.thinkMean / ticksPerNs) +
           ";jitterNs=" + fmtU64(wl.thinkJitter / ticksPerNs) +
           ";warmup=" + std::to_string(wl.warmupOps) + "}";
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

std::vector<std::string>
stringArray(const minijson::Value &grid, const std::string &key,
            const std::vector<std::string> &def,
            const std::string &what)
{
    const minijson::Value *v = grid.find(key);
    if (v == nullptr)
        return def;
    if (!v->isArray() || v->arr.empty())
        fatal("%s: \"%s\" must be a non-empty array of strings",
              what.c_str(), key.c_str());
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const minijson::Value &item : v->arr) {
        if (!item.isString())
            fatal("%s: \"%s\" entries must be strings", what.c_str(),
                  key.c_str());
        if (!seen.insert(item.str).second)
            fatal("%s: duplicate \"%s\" entry '%s'", what.c_str(),
                  key.c_str(), item.str.c_str());
        out.push_back(item.str);
    }
    return out;
}

/**
 * Whether `x` is a whole number in [min, max]. The range is checked
 * against T before any cast: converting an out-of-range double is
 * undefined, and a wrapped value could pass later checks.
 */
template <typename T>
bool
wholeNumberIn(double x, T min, T max)
{
    // 2^digits is exactly one past the type's maximum.
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    return x >= double(min) && x < limit && x == std::trunc(x) &&
           T(x) <= max;
}

/**
 * The integer at `key` (`def` when absent). Fatal, naming the key,
 * unless it is a whole number in [min, max].
 */
template <typename T>
T
intField(const minijson::Value &obj, const std::string &key, T def,
         T min, const std::string &what,
         T max = std::numeric_limits<T>::max())
{
    const minijson::Value *v = obj.find(key);
    if (v == nullptr)
        return def;
    const double x = v->isNumber() ? v->number : std::nan("");
    if (!wholeNumberIn(x, min, max)) {
        fatal("sweep grid %s: \"%s\" must be an integer in [%s, %s]",
              what.c_str(), key.c_str(), std::to_string(min).c_str(),
              std::to_string(max).c_str());
    }
    return T(x);
}

/** Nanosecond fields must not overflow when scaled to ticks. */
constexpr std::uint64_t kMaxNs =
    std::numeric_limits<Tick>::max() / ticksPerNs;

/**
 * Lay the workloadKnobs keys present in `obj` over `wl`, key by key;
 * an absent key keeps `wl`'s value. Fatal on an unknown key or an
 * out-of-range integer. Parses both the grid's "workloadKnobs" and a
 * workload entry's "knobs".
 */
void
overlayWorkloadKnobs(const minijson::Value &obj, WorkloadParams &wl,
                     const std::string &what)
{
    if (!obj.isObject())
        fatal("sweep grid %s: workloadKnobs must be an object",
              what.c_str());
    static const std::set<std::string> wl_keys = {
        "opsPerProc", "keys", "theta", "writeFrac", "thinkMeanNs",
        "thinkJitterNs", "warmupOps"};
    for (const auto &[key, value] : obj.obj) {
        (void)value;
        if (!wl_keys.count(key))
            fatal("sweep grid %s: unknown workloadKnobs key \"%s\"",
                  what.c_str(), key.c_str());
    }
    const std::string wk_what = what + " workloadKnobs";
    wl.opsPerProc = intField(obj, "opsPerProc", wl.opsPerProc, 0u,
                             wk_what);
    wl.keys = intField(obj, "keys", wl.keys, 0u, wk_what);
    wl.theta = obj.getNumber("theta", wl.theta);
    wl.writeFrac = obj.getNumber("writeFrac", wl.writeFrac);
    wl.thinkMean = ns(Tick(intField<std::uint64_t>(
        obj, "thinkMeanNs", wl.thinkMean / ticksPerNs, 0, wk_what,
        kMaxNs)));
    wl.thinkJitter = ns(Tick(intField<std::uint64_t>(
        obj, "thinkJitterNs", wl.thinkJitter / ticksPerNs, 0, wk_what,
        kMaxNs)));
    wl.warmupOps = intField(obj, "warmupOps", wl.warmupOps, -1, wk_what);
}

/** Whether `s` is non-empty and each char alphanumeric or in `extra`. */
bool
wordOf(const std::string &s, const char *extra)
{
    return !s.empty() && std::all_of(s.begin(), s.end(), [&](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               (c != '\0' && std::strchr(extra, c) != nullptr);
    });
}

/**
 * The "workloads" axis: each entry is a registry name or an object
 * {"name", "label", "knobs"}; labels are unique on the axis.
 */
std::vector<WorkloadEntry>
workloadAxis(const minijson::Value &grid, const WorkloadParams &shared,
             const std::string &what)
{
    const minijson::Value *v = grid.find("workloads");
    if (v == nullptr || !v->isArray() || v->arr.empty())
        fatal("sweep grid %s: missing \"workloads\" axis (a non-empty "
              "array)", what.c_str());
    std::vector<WorkloadEntry> out;
    std::set<std::string> labels;
    for (const minijson::Value &item : v->arr) {
        WorkloadEntry e;
        e.knobs = shared;
        if (item.isString()) {
            e.label = e.name = item.str;
        } else if (item.isObject()) {
            e.plain = false;
            for (const auto &[key, value] : item.obj) {
                (void)value;
                if (key != "name" && key != "label" && key != "knobs")
                    fatal("sweep grid %s: unknown workload entry key "
                          "\"%s\"", what.c_str(), key.c_str());
            }
            e.name = item.getString("name");
            e.label = item.getString("label");
            if (!wordOf(e.label, "_.@-"))
                fatal("sweep grid %s: workload entry '%s' needs a "
                      "\"label\" of [A-Za-z0-9_.@-] (it enters the cell "
                      "labels), not '%s'", what.c_str(), e.name.c_str(),
                      e.label.c_str());
            if (const minijson::Value *knobs = item.find("knobs"))
                overlayWorkloadKnobs(*knobs, e.knobs,
                                     what + " workload '" + e.label + "'");
        } else {
            fatal("sweep grid %s: \"workloads\" entries must be names "
                  "or objects", what.c_str());
        }
        if (!WorkloadRegistry::instance().known(e.name)) {
            fatal("sweep grid %s: unknown workload '%s' (registered: "
                  "%s)", what.c_str(), e.name.c_str(),
                  joinNames(WorkloadRegistry::instance().names())
                      .c_str());
        }
        if (!labels.insert(e.label).second)
            fatal("sweep grid %s: duplicate workload label '%s'",
                  what.c_str(), e.label.c_str());
        out.push_back(std::move(e));
    }
    return out;
}

/** A workload entry in the canonical form and the cell key: a plain
 *  entry is its bare name (the form that predates object entries). */
std::string
workloadKeySegment(const WorkloadEntry &e)
{
    return e.plain ? e.name : e.name + "[" + e.label + "]";
}

} // namespace

ParamGrid
ParamGrid::fromFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        fatal("sweep grid %s: cannot open", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return fromJsonText(text, path);
}

ParamGrid
ParamGrid::fromJsonText(const std::string &text,
                        const std::string &what)
{
    std::string err;
    minijson::Value g = minijson::parse(text, &err);
    if (!err.empty())
        fatal("sweep grid %s: %s", what.c_str(), err.c_str());
    if (!g.isObject())
        fatal("sweep grid %s: top level must be a JSON object",
              what.c_str());

    // Unknown keys are fatal: a typo'd axis name silently shrinking
    // the grid to its defaults is exactly the failure mode a
    // fingerprint exists to prevent.
    static const std::set<std::string> known_keys = {
        "name", "policies", "workloads", "shardMaps", "overrides", "seeds", "firstSeed", "shardWorkers",
        "horizonNs", "workloadKnobs"};
    for (const auto &[key, value] : g.obj) {
        (void)value;
        if (!known_keys.count(key))
            fatal("sweep grid %s: unknown key \"%s\"", what.c_str(),
                  key.c_str());
    }

    ParamGrid grid;
    grid._name = g.getString("name");
    if (grid._name.empty())
        fatal("sweep grid %s: missing \"name\"", what.c_str());
    if (!wordOf(grid._name, "_-")) {
        fatal("sweep grid %s: \"name\" must be [A-Za-z0-9_-] "
              "(it names journal and report files)", what.c_str());
    }

    grid._policies = stringArray(g, "policies", {}, what);
    if (grid._policies.empty())
        fatal("sweep grid %s: missing \"policies\" axis", what.c_str());
    // An unknown name dies in configFor() below, when every cell's
    // config is built at load.

    grid._maps = stringArray(g, "shardMaps", {"serial"}, what);
    for (const std::string &m : grid._maps) {
        if (m != "serial" && m != "perCmp") {
            fatal("sweep grid %s: unknown shardMap '%s' (serial, "
                  "perCmp)", what.c_str(), m.c_str());
        }
    }

    if (const minijson::Value *ov = g.find("overrides")) {
        if (!ov->isArray() || ov->arr.empty())
            fatal("sweep grid %s: \"overrides\" must be a non-empty "
                  "array", what.c_str());
        std::set<std::string> labels;
        for (const minijson::Value &entry : ov->arr) {
            KnobOverride o;
            o.label = entry.getString("label");
            if (o.label.empty())
                fatal("sweep grid %s: every override needs a "
                      "\"label\"", what.c_str());
            if (!labels.insert(o.label).second)
                fatal("sweep grid %s: duplicate override label '%s'",
                      what.c_str(), o.label.c_str());
            if (const minijson::Value *knobs = entry.find("knobs")) {
                if (!knobs->isObject())
                    fatal("sweep grid %s: override '%s' \"knobs\" "
                          "must be an object", what.c_str(),
                          o.label.c_str());
                for (const auto &[kname, kval] : knobs->obj) {
                    if (findKnob(kname) == nullptr) {
                        fatal("sweep grid %s: override '%s' names "
                              "unknown knob '%s' (knobs: %s)",
                              what.c_str(), o.label.c_str(),
                              kname.c_str(), knobNameList().c_str());
                    }
                    if (!kval.isNumber())
                        fatal("sweep grid %s: knob '%s' must be a "
                              "number", what.c_str(), kname.c_str());
                    const std::uint64_t max = findKnob(kname)->intMax;
                    if (!wholeNumberIn(kval.number, std::uint64_t(0),
                                       max)) {
                        fatal("sweep grid %s: knob '%s' must be an "
                              "integer in [0, %llu]", what.c_str(),
                              kname.c_str(), (unsigned long long)max);
                    }
                    o.knobs.emplace_back(kname, kval.number);
                }
                std::sort(o.knobs.begin(), o.knobs.end());
            }
            grid._overrides.push_back(std::move(o));
        }
    } else {
        grid._overrides.push_back({"default", {}});
    }

    grid._seeds = intField(g, "seeds", 1u, 1u, what);
    grid._firstSeed = intField<std::uint64_t>(g, "firstSeed", 1, 0, what);
    grid._shardWorkers = intField(g, "shardWorkers", 2u, 1u, what);
    grid._horizonNs = intField<std::uint64_t>(g, "horizonNs", 500000000,
                                              1, what, kMaxNs);
    grid._horizon = ns(Tick(grid._horizonNs));

    WorkloadParams shared;
    if (const minijson::Value *wk = g.find("workloadKnobs"))
        overlayWorkloadKnobs(*wk, shared, what);
    grid._workloads = workloadAxis(g, shared, what);

    // Canonical form: versioned, field order fixed. The fingerprint
    // over this string is what the resume journal checks, so any
    // semantic edit to the grid must change it (and a reformat of the
    // JSON file must not).
    std::string c = "gridv4|name=" + grid._name + "|policies=";
    for (const std::string &p : grid._policies)
        c += p + ",";
    c += "|workloads=";
    for (const WorkloadEntry &w : grid._workloads) {
        c += workloadKeySegment(w) +
             (w.plain ? "" : workloadKnobSegment(w.knobs)) + ",";
    }
    c += "|maps=";
    for (const std::string &m : grid._maps)
        c += m + ",";
    c += "|overrides=";
    for (const KnobOverride &o : grid._overrides) {
        c += o.label + "{";
        for (const auto &[k, v] : o.knobs)
            c += k + "=" + fmtNum(v) + ";";
        c += "},";
    }
    c += "|seeds=" + fmtU64(grid._seeds);
    c += "|firstSeed=" + fmtU64(grid._firstSeed);
    c += "|shardWorkers=" + fmtU64(grid._shardWorkers);
    c += "|horizonNs=" + fmtU64(grid._horizonNs);
    c += "|" + workloadKnobSegment(shared);
    grid._canonical = std::move(c);
    grid._fingerprint = hashHex(stableHash64(grid._canonical));

    grid.enumerate();
    if (grid._cells.empty())
        fatal("sweep grid %s: no valid cells after crossing the axes",
              what.c_str());

    // Fail at submission, not mid-night: run every cell's config
    // through SystemConfig::validate() (knob geometry, workload knob
    // ranges) before reporting the grid loadable.
    for (const SweepCell &cell : grid._cells)
        (void)grid.configFor(cell);

    return grid;
}

void
ParamGrid::enumerate()
{
    unsigned skipped_perfect = 0;
    unsigned index = 0;
    for (const std::string &p : _policies) {
        const ProtocolInfo *row = findProtocol(p);
        for (const WorkloadEntry &w : _workloads) {
            for (const std::string &m : _maps) {
                // PerfectL2's magic L2 bypasses the network, so it
                // cannot run sharded. Crossing axes makes such combos
                // inevitable in mixed grids — they are skipped
                // (deterministically), not fatal.
                if (row != nullptr && row->family == Family::Perfect &&
                    m != "serial") {
                    ++skipped_perfect;
                    continue;
                }
                for (const KnobOverride &o : _overrides) {
                    for (unsigned i = 0; i < _seeds; ++i) {
                        SweepCell cell;
                        cell.index = index++;
                        cell.policy = p;
                        cell.workload = w.label;
                        cell.shardMap = m;
                        cell.overrideLabel = o.label;
                        cell.seed = _firstSeed + i;

                        std::string k = "cellv4|policy=" + p +
                            "|workload=" + workloadKeySegment(w) +
                            "|map=" + m +
                            "|knobs=" + o.label + "{";
                        for (const auto &[kn, kv] : o.knobs)
                            k += kn + "=" + fmtNum(kv) + ";";
                        k += "}|seed=" + fmtU64(cell.seed) +
                             "|horizonNs=" + fmtU64(_horizonNs) + "|" +
                             workloadKnobSegment(w.knobs);
                        cell.key = std::move(k);
                        cell.hash = hashHex(stableHash64(cell.key));
                        cell.label = p + "/" + w.label + "/" + m + "/" +
                            o.label + "/s" + fmtU64(cell.seed);
                        _cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    if (skipped_perfect > 0) {
        warn("sweep grid %s: skipped %u perfect x sharded cells "
             "(PerfectL2 cannot run sharded)",
             _name.c_str(), skipped_perfect);
    }
}

SystemConfig
ParamGrid::configFor(const SweepCell &cell) const
{
    SystemConfig cfg = SystemConfig::select(cell.policy);
    for (const WorkloadEntry &w : _workloads) {
        if (w.label == cell.workload) {
            cfg.workloadName = w.name;
            cfg.workloadParams = w.knobs;
        }
    }

    if (cell.shardMap == "perCmp")
        cfg.shards = _shardWorkers;

    for (const KnobOverride &o : _overrides) {
        if (o.label != cell.overrideLabel)
            continue;
        for (const auto &[kname, kval] : o.knobs)
            findKnob(kname)->set(cfg, kval);
        break;
    }

    cfg.seed = cell.seed;
    cfg.validate();
    return cfg;
}

const SweepCell *
ParamGrid::cellByHash(const std::string &hash) const
{
    for (const SweepCell &c : _cells) {
        if (c.hash == hash)
            return &c;
    }
    return nullptr;
}

} // namespace tokencmp
