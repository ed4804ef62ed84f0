/**
 * @file
 * WorkloadRegistry implementation plus WorkloadParams range
 * validation. The concrete workloads register themselves from their
 * own translation units (locking.cc, barrier.cc, synthetic.cc,
 * oltp.cc, prodcons.cc).
 */

#include "workload/workload_registry.hh"

#include "sim/logging.hh"

namespace tokencmp {

void
WorkloadParams::validate(const std::string &workload) const
{
    const char *wl = workload.empty() ? "<unnamed>" : workload.c_str();
    if (theta >= 0.0 && theta >= 1.0) {
        panic("workload '%s': zipf theta %f out of range [0, 1) "
              "(the zeta series diverges at 1)",
              wl, theta);
    }
    if (writeFrac > 1.0) {
        panic("workload '%s': writeFrac %f out of range [0, 1]",
              wl, writeFrac);
    }
    if (thinkJitter > thinkMean) {
        panic("workload '%s': thinkJitter %llu ns exceeds thinkMean "
              "%llu ns (set thinkMean explicitly; a work time may not "
              "go below zero)",
              wl, (unsigned long long)(thinkJitter / ticksPerNs),
              (unsigned long long)(thinkMean / ticksPerNs));
    }
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry reg;
    return reg;
}

void
WorkloadRegistry::registerWorkload(const std::string &name,
                                   Factory factory)
{
    if (name.empty())
        panic("cannot register a workload with no name");
    if (_factories.count(name) != 0)
        panic("workload '%s' registered twice", name.c_str());
    _factories[name] = std::move(factory);
}

std::unique_ptr<Workload>
WorkloadRegistry::create(const std::string &name,
                         const WorkloadParams &params) const
{
    auto it = _factories.find(name);
    if (it == _factories.end()) {
        std::string have;
        for (const auto &[n, f] : _factories) {
            (void)f;
            have += std::string(have.empty() ? "" : ", ") + n;
        }
        fatal("no workload named '%s' (registered: %s); "
              "was the workload's translation unit linked in?",
              name.c_str(), have.c_str());
    }
    params.validate(name);
    return it->second(params);
}

bool
WorkloadRegistry::known(const std::string &name) const
{
    return _factories.count(name) != 0;
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_factories.size());
    for (const auto &[n, f] : _factories) {
        (void)f;
        out.push_back(n);
    }
    return out;
}

} // namespace tokencmp
