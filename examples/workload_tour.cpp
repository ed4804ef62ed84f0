/**
 * @file
 * Workload registry tour: enumerates every workload the
 * WorkloadRegistry knows about at runtime — the three ported paper
 * micro-benchmarks plus the production-shaped generators — and runs
 * each one on the TokenCMP substrate through the registry-named
 * Experiment path (SystemConfig::workloadName, no concrete workload
 * types in sight).
 *
 * It also registers "example-pingpong", a throwaway workload defined
 * by *this file*, demonstrating (and smoke-testing) that third-party
 * workloads need nothing beyond a WorkloadRegistrar in a linked
 * translation unit: two processors bouncing one block back and forth.
 *
 *   $ ./workload_tour [ops_per_proc]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "system/experiment.hh"
#include "workload/workload_registry.hh"

using namespace tokencmp;

namespace {

/**
 * A deliberately tiny third-party workload: processors 0 and 1 RMW
 * the same block in turn (everyone else finishes immediately), the
 * purest migratory ping-pong. Registering it here — outside the core
 * library — is the whole point of the example.
 */
class PingPongWorkload final : public Workload
{
  public:
    explicit PingPongWorkload(unsigned ops) : _ops(ops) {}

    class Thread : public ThreadContext
    {
      public:
        Thread(SimContext &ctx, Sequencer &seq, unsigned ops,
               std::uint64_t seed)
            : ThreadContext(ctx, seq), _ops(ops)
        {
            reseed(seed);
        }

        void
        start() override
        {
            if (procId() > 1) {
                finish();
                return;
            }
            step();
        }

      private:
        void
        step()
        {
            if (_done == _ops) {
                finish();
                return;
            }
            ++_done;
            atomic(0x77000000,
                   [](std::uint64_t v) { return v + 1; },
                   [this](std::uint64_t) {
                       think(ns(5), [this]() { step(); });
                   });
        }
        unsigned _ops;
        unsigned _done = 0;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t seed) override
    {
        return std::make_unique<Thread>(ctx, seq, _ops, seed);
    }

    std::string name() const override { return "example-pingpong"; }

  private:
    unsigned _ops;
};

const WorkloadRegistrar regPingPong(
    "example-pingpong", [](const WorkloadParams &wp) {
        return std::make_unique<PingPongWorkload>(
            wp.opsPerProc != 0 ? wp.opsPerProc : 100);
    });

} // namespace

int
main(int argc, char **argv)
{
    WorkloadParams knobs;
    if (argc > 1)
        knobs.opsPerProc = unsigned(std::atoi(argv[1]));
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("workloads registered with the WorkloadRegistry:\n");
    for (const std::string &n : WorkloadRegistry::instance().names())
        std::printf("  %s\n", n.c_str());

    std::printf("\neach on TokenCMP-dst1, selected purely by name:\n\n");
    std::printf("%-22s %16s %10s %10s %12s\n", "workload", "runtime",
                "L1 misses", "msgs/miss", "inter bytes");
    for (const std::string &n : WorkloadRegistry::instance().names()) {
        SystemConfig cfg = SystemConfig::select("dst1");
        cfg.workloadName = n;
        cfg.workloadParams = knobs;
        ExperimentResult e = Experiment::of(cfg)
                                 .seeds(2)
                                 .parallelism(hw ? hw : 1)
                                 .run();
        if (!e.allCompleted || e.violations != 0) {
            std::printf("%-22s FAILED (completed=%d violations=%llu)\n",
                        n.c_str(), int(e.allCompleted),
                        (unsigned long long)e.violations);
            return 1;
        }
        const double rt = e.runtime.mean() / double(ticksPerNs);
        const double err = e.runtime.errorBar() / double(ticksPerNs);
        const double misses = e.stats.at("l1.misses").mean();
        std::printf("%-22s %8.0f±%5.0fns %10.0f %10.2f %12.0f\n",
                    n.c_str(), rt, err, misses,
                    misses > 0
                        ? e.stats.at("net.messages").mean() / misses
                        : 0.0,
                    e.interBytes.mean());
    }

    std::printf("\n(the 'example-pingpong' row was registered by this "
                "example's own translation unit)\n");
    return 0;
}
