#include "system/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/logging.hh"
#include "system/knobs.hh"
#include "workload/workload_registry.hh"

namespace tokencmp {

namespace json {

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace json

namespace {

std::string
jsonSamples(const SeedSamples &s)
{
    std::string out = "{\"mean\": " + json::number(s.mean()) +
                      ", \"ci95\": " + json::number(s.errorBar()) +
                      ", \"perSeed\": [";
    bool first = true;
    for (double x : s.samples()) {
        out += (first ? "" : ", ") + json::number(x);
        first = false;
    }
    return out + "]}";
}

} // namespace

std::string
ExperimentResult::toJson(const std::string &label) const
{
    std::string out = "{";
    if (!label.empty())
        out += "\"label\": " + json::quote(label) + ", ";
    out += "\"protocol\": " + json::quote(protocol) + ", ";
    if (!knobHash.empty())
        out += "\"knobHash\": " + json::quote(knobHash) + ", ";
    out += "\"workload\": " + json::quote(workload) + ", ";
    out += "\"seeds\": " + std::to_string(seedsRequested) + ", ";
    out += "\"seedsCompleted\": " + std::to_string(runtime.count()) +
           ", ";
    out += std::string("\"allCompleted\": ") +
           (allCompleted ? "true" : "false") + ", ";
    out += "\"violations\": " + std::to_string(violations) + ", ";
    out += "\"runtime\": " + jsonSamples(runtime) + ", ";
    out += "\"interBytes\": " + jsonSamples(interBytes) + ", ";
    out += "\"intraBytes\": " + jsonSamples(intraBytes) + ", ";
    out += "\"stats\": {";
    bool first = true;
    for (const auto &[k, v] : stats) {
        out += (first ? "" : ", ") + json::quote(k) +
               ": {\"mean\": " + json::number(v.mean()) +
               ", \"ci95\": " + json::number(v.errorBar()) + "}";
        first = false;
    }
    return out + "}}";
}

Experiment
Experiment::of(const SystemConfig &cfg)
{
    return Experiment(cfg);
}

Experiment &
Experiment::seeds(unsigned n)
{
    _seeds = n;
    return *this;
}

Experiment &
Experiment::parallelism(unsigned n)
{
    _parallelism = n;
    return *this;
}

Experiment &
Experiment::horizon(Tick t)
{
    _horizon = t;
    return *this;
}

Experiment &
Experiment::firstSeed(std::uint64_t s)
{
    _firstSeed = s;
    return *this;
}

Experiment &
Experiment::onSeedDone(ProgressFn fn)
{
    _progress = std::move(fn);
    return *this;
}

ExperimentResult
Experiment::run() const
{
    if (_seeds == 0)
        fatal("Experiment: seeds must be >= 1");

    const SystemConfig &base = _cfg;
    base.validate();
    if (base.workloadName.empty()) {
        fatal("Experiment: no workload — name one via "
              "SystemConfig::workloadName");
    }

    const unsigned n = _seeds;
    std::vector<std::optional<System::RunResult>> results(n);
    std::string workload_name;
    std::mutex mu;  //!< guards progress, done count, workload name
    unsigned done = 0;

    auto run_one = [&](unsigned i) {
        SystemConfig cfg = base;
        cfg.seed = _firstSeed + i;
        // The registry is immutable once main() runs, so workers
        // create their instances without locking.
        const std::unique_ptr<Workload> wl =
            WorkloadRegistry::instance().create(base.workloadName,
                                                base.workloadParams);
        System sys(cfg);
        System::RunResult r = sys.run(*wl, _horizon);

        std::lock_guard<std::mutex> lock(mu);
        if (workload_name.empty())
            workload_name = wl->name();
        ++done;
        if (_progress) {
            SeedProgress p;
            p.seedIndex = i;
            p.seedValue = cfg.seed;
            p.seedsDone = done;
            p.seedsTotal = n;
            p.completed = r.completed;
            p.runtime = r.runtime;
            _progress(p);
        }
        results[i] = std::move(r);
    };

    const unsigned workers =
        std::min(std::max(_parallelism, 1u), n);
    if (workers <= 1) {
        for (unsigned i = 0; i < n; ++i)
            run_one(i);
    } else {
        std::atomic<unsigned> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&]() {
                for (unsigned i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    run_one(i);
                }
            });
        }
        for (auto &t : pool)
            t.join();
    }

    // Aggregate strictly in seed order: identical results no matter in
    // which order the workers finished.
    ExperimentResult exp;
    exp.protocol = base.displayName();
    exp.knobHash = knobOverrideHash(base);
    if (!exp.knobHash.empty())
        exp.protocol += "@" + exp.knobHash;
    exp.workload = workload_name;
    exp.seedsRequested = n;
    for (unsigned i = 0; i < n; ++i) {
        System::RunResult &r = *results[i];
        if (!r.completed) {
            exp.allCompleted = false;
            warn("%s: seed %llu did not complete within horizon",
                 exp.protocol.c_str(),
                 (unsigned long long)(_firstSeed + i));
            continue;
        }
        exp.runtime.add(double(r.runtime));
        exp.interBytes.add(r.stats.get("traffic.inter.total"));
        exp.intraBytes.add(r.stats.get("traffic.intra.total"));
        exp.violations += r.violations;
        for (const auto &[k, v] : r.stats.all())
            exp.stats[k].add(v);
        exp.perSeed.push_back(std::move(r));
    }
    return exp;
}

} // namespace tokencmp
