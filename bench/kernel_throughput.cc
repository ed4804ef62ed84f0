/**
 * @file
 * Event-kernel throughput benchmark: the repo's perf-trajectory
 * datapoint for the simulation core.
 *
 * Measures, in wall-clock events/sec and messages/sec:
 *
 *  1. the seed kernel reproduced in-binary (closure-per-event
 *     std::priority_queue, exactly PR 1's EventQueue), as the
 *     before-side of the trajectory;
 *  2. the pooled timing-wheel kernel (and the reference-heap backend)
 *     on the same self-rescheduling event chains;
 *  3. a full TokenCMP system run (locking workload), reporting
 *     simulated events/sec and messages/sec, with and without link
 *     bandwidth modeling.
 *
 * Results land in BENCH_kernel_throughput.json. The chains carry a
 * 64-byte payload matching Msg: that is what the seed network captured
 * into every per-hop closure, so the comparison reflects the real
 * delivery path, not an empty-lambda best case.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/locking.hh"

namespace tokencmp {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The seed event kernel, verbatim: one heap entry per closure. */
class SeedClosureHeapQueue
{
  public:
    using Action = std::function<void()>;

    Tick curTick() const { return _curTick; }

    void
    schedule(Tick delay, Action action)
    {
        _heap.push(Entry{_curTick + delay, _nextSeq++,
                         std::move(action)});
    }

    void
    run()
    {
        while (!_heap.empty()) {
            Entry e = std::move(const_cast<Entry &>(_heap.top()));
            _heap.pop();
            _curTick = e.when;
            e.action();
        }
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> _heap;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
};

/** Msg-sized payload captured into every chain closure. */
struct Payload
{
    std::uint64_t words[8] = {};
};

/** Protocol-like delay pattern: mostly 2/20 ns hops, some 0-delay. */
Tick
chainDelay(Random &rng)
{
    switch (rng.uniform(8)) {
      case 0: return 0;
      case 1: case 2: return ns(20);
      default: return ns(2);
    }
}

/**
 * Run `chains` self-rescheduling closures until `total` events fired;
 * each closure captures a Msg-sized payload. Returns events/sec.
 */
template <typename Queue>
double
chainThroughput(Queue &q, unsigned chains, std::uint64_t total)
{
    Random rng(42);
    std::uint64_t fired = 0;
    const auto start = Clock::now();

    std::function<void(const Payload &)> hop =
        [&](const Payload &p) {
            if (++fired >= total)
                return;
            Payload next = p;
            next.words[0] = fired;
            q.schedule(chainDelay(rng),
                       [&hop, next]() { hop(next); });
        };
    for (unsigned c = 0; c < chains; ++c)
        q.schedule(chainDelay(rng), [&hop, c]() {
            Payload p;
            p.words[1] = c;
            hop(p);
        });
    q.run();

    const double secs = secondsSince(start);
    return double(fired) / secs;
}

std::string
rawCell(const std::string &label, double events_per_sec,
        double msgs_per_sec = 0.0)
{
    std::string out = "{\"label\": " + json::quote(label) +
                      ", \"eventsPerSec\": " +
                      json::number(events_per_sec);
    if (msgs_per_sec > 0.0)
        out += ", \"messagesPerSec\": " + json::number(msgs_per_sec);
    return out + "}";
}

/** Full-system datapoint: TokenCMP + locking, one fixed seed. */
void
systemThroughput(bench::JsonReport &report, bool model_bandwidth)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.net.modelBandwidth = model_bandwidth;
    cfg.seed = 1;

    LockingParams p;
    p.numLocks = 16;
    p.acquiresPerProc = 400;
    LockingWorkload wl(p);
    wl.reset();

    System sys(cfg);
    const auto start = Clock::now();
    System::RunResult r = sys.run(wl);
    const double secs = secondsSince(start);

    const std::uint64_t events = sys.context().eventq.executed();
    const Network &net = *sys.context().net;
    const double ev_s = double(events) / secs;
    const double msg_s = double(net.totalMessages()) / secs;

    // The "unbatched" labels predate the removal of delivery batching;
    // they stay so the cells keep matching their recorded baselines.
    const std::string label =
        std::string("system_tokencmp_locking_unbatched") +
        (model_bandwidth ? "" : "_nobw");
    std::printf("%-34s %12.3e ev/s %12.3e msg/s  "
                "(completed=%d runtime=%llu)\n",
                label.c_str(), ev_s, msg_s, int(r.completed),
                static_cast<unsigned long long>(r.runtime));
    report.addRaw(rawCell(label, ev_s, msg_s));
}

} // namespace
} // namespace tokencmp

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Event-kernel throughput: the perf-trajectory datapoint for the serial simulation core.");
    using namespace tokencmp;

    bench::banner("kernel throughput",
                  "pooled timing-wheel kernel >= 2x the seed "
                  "closure-heap kernel in events/sec");

    bench::JsonReport report("kernel_throughput");

    const unsigned chains = 64;
    const std::uint64_t total = 2000000;

    SeedClosureHeapQueue seed_q;
    const double seed_eps = chainThroughput(seed_q, chains, total);
    std::printf("%-34s %12.3e events/sec\n", "seed_closure_heap", seed_eps);
    report.addRaw(rawCell("seed_closure_heap", seed_eps));

    EventQueue heap_q(SchedulerKind::ReferenceHeap);
    const double heap_eps = chainThroughput(heap_q, chains, total);
    std::printf("%-34s %12.3e events/sec\n", "pooled_reference_heap",
                heap_eps);
    report.addRaw(rawCell("pooled_reference_heap", heap_eps));

    EventQueue wheel_q(SchedulerKind::TimingWheel);
    const double wheel_eps = chainThroughput(wheel_q, chains, total);
    std::printf("%-34s %12.3e events/sec\n", "pooled_timing_wheel",
                wheel_eps);
    report.addRaw(rawCell("pooled_timing_wheel", wheel_eps));

    const double speedup = wheel_eps / seed_eps;
    std::printf("\nwheel vs seed kernel: %.2fx\n", speedup);
    report.addRaw("{\"label\": \"speedup_wheel_vs_seed\", \"ratio\": " +
                  json::number(speedup) + "}");

    std::printf("\n");
    systemThroughput(report, true);
    systemThroughput(report, false);

    if (speedup < 2.0) {
        std::printf("\nFAIL: wheel kernel below 2x seed kernel\n");
        return 1;
    }
    // Hot-path memory/layout pass floor: the seed kernel is frozen in
    // this file, so wheel/seed is the one number that compares across
    // runner classes. Pre-pass the committed ratio was 3.28x; the pass
    // lifted the wheel cell ~15% (measured back-to-back, best-of-3),
    // putting the expected ratio near 3.8. Gate at 3.6 — +10% over
    // pre-pass with headroom for run noise — and let the raised
    // absolute baseline in bench/baselines/kernel_throughput.json pin
    // the full +15% via check_regression.py on the same Release g++
    // CI leg.
    if (speedup < 3.6) {
        std::printf("\nFAIL: wheel kernel %.2fx seed kernel; the "
                    "hot-path pass requires >= 3.6x (pre-pass ratio "
                    "was 3.28x)\n", speedup);
        return 1;
    }
    std::printf("\nPASS: wheel kernel %.2fx seed kernel\n", speedup);
    return 0;
}
