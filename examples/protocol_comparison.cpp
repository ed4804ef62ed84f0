/**
 * @file
 * Protocol comparison on a commercial-style workload: runs the OLTP
 * proxy synthetic-oltp (migratory, sharing-miss dominated — the
 * paper's headline case) on every registered protocol configuration
 * through the Experiment runner (3 perturbed seeds, run in parallel)
 * and prints runtime with 95% confidence bars, miss counts and
 * traffic.
 *
 * It then sweeps every performance policy in the PolicyRegistry on
 * the TokenCMP substrate — including "example-favorite", a throwaway
 * policy registered by *this file*, demonstrating (and smoke-testing)
 * that third-party plugins need nothing beyond a PolicyRegistrar in a
 * linked translation unit.
 *
 *   $ ./protocol_comparison [ops_per_proc]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/policy.hh"
#include "system/experiment.hh"
#include "workload/synthetic.hh"

using namespace tokencmp;

namespace {

/**
 * A deliberately simple third-party policy: broadcast everything, but
 * escalate with dst4's larger transient budget. Registering it here —
 * outside the core library — is the whole point of the example.
 */
class FavoritePolicy final : public PerformancePolicy
{
  public:
    using PerformancePolicy::PerformancePolicy;
    unsigned
    maxTransients(bool is_write) const override
    {
        (void)is_write;
        return 4;
    }
};

const PolicyRegistrar regFavorite(
    "example-favorite", [](const PolicyEnv &env) {
        return std::make_unique<FavoritePolicy>(env);
    });

} // namespace

int
main(int argc, char **argv)
{
    WorkloadParams wl;
    wl.opsPerProc = oltpParams().opsPerProc;
    if (argc > 1)
        wl.opsPerProc = unsigned(std::atoi(argv[1]));
    auto config = [&wl](const std::string &name) {
        SystemConfig cfg = SystemConfig::select(name);
        cfg.workloadName = "synthetic-oltp";
        cfg.workloadParams = wl;
        return cfg;
    };
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("OLTP proxy: %u ops/processor, 16 processors\n\n",
                wl.opsPerProc);
    std::printf("%-22s %16s %8s %10s %12s %12s\n", "protocol",
                "runtime", "vs Dir", "L1 misses", "inter bytes",
                "intra bytes");

    double dir_runtime = 0.0;
    for (const std::string &name : allProtocols()) {
        ExperimentResult e = Experiment::of(config(name))
                                 .seeds(3)
                                 .parallelism(hw ? hw : 1)
                                 .run();
        if (!e.allCompleted) {
            std::printf("%-22s DID NOT COMPLETE\n", e.protocol.c_str());
            return 1;
        }
        const double rt = e.runtime.mean() / double(ticksPerNs);
        const double err = e.runtime.errorBar() / double(ticksPerNs);
        if (name == "directory")
            dir_runtime = rt;
        std::printf("%-22s %8.0f±%5.0fns %7.2fx %10.0f %12.0f %12.0f\n",
                    e.protocol.c_str(), rt, err,
                    dir_runtime > 0 ? dir_runtime / rt : 1.0,
                    e.stats["l1.misses"].mean(), e.interBytes.mean(),
                    e.intraBytes.mean());
    }
    std::printf("\n(vs Dir > 1.0 means faster than DirectoryCMP)\n");

    // Every performance policy the registry knows about — Table 1
    // rows, the dst-group destination-set policy, and the plugin
    // registered by this very file.
    std::printf("\nregistered performance policies on the TokenCMP "
                "substrate:\n\n");
    std::printf("%-22s %16s %10s %10s %12s %12s\n", "policy",
                "runtime", "L1 misses", "msgs/miss", "inter bytes",
                "intra bytes");
    for (const std::string &name : PolicyRegistry::instance().names()) {
        const ExperimentResult e =
            Experiment::of(config(name))
                .seeds(3)
                .parallelism(hw ? hw : 1)
                .run();
        if (!e.allCompleted) {
            std::printf("%-22s DID NOT COMPLETE\n", name.c_str());
            return 1;
        }
        const double rt = e.runtime.mean() / double(ticksPerNs);
        const double err = e.runtime.errorBar() / double(ticksPerNs);
        const double misses = e.stats.at("l1.misses").mean();
        std::printf("%-22s %8.0f±%5.0fns %10.0f %10.2f %12.0f %12.0f\n",
                    name.c_str(), rt, err, misses,
                    misses > 0
                        ? e.stats.at("net.messages").mean() / misses
                        : 0.0,
                    e.interBytes.mean(), e.intraBytes.mean());
    }
    return 0;
}
