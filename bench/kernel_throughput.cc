/**
 * @file
 * Event-kernel throughput benchmark: the repo's perf-trajectory
 * datapoint for the simulation core.
 *
 * Host speed is stated as same-process ratios against the in-tree
 * reference-heap kernel, never as absolute rates: a different host
 * moves both sides of a ratio together. The bench runs K short
 * slices; each slice times, back to back,
 *
 *  1. the reference-heap kernel (SchedulerKind::ReferenceHeap) on
 *     self-rescheduling event chains;
 *  2. the pooled timing-wheel kernel on the same chains;
 *  3. a full TokenCMP locking run, with and without link bandwidth
 *     modeling.
 *
 * Each ratio cell is the median of its per-slice ratios, so a host
 * stall that hits one slice moves one sample, not the result. The
 * system cells also record the run's simulated counts (executed
 * events, messages, delivery wakeups, runtime), which are exact for
 * the fixed seed. Absolute events/s and messages/s are medians over
 * the slices, reported for the trajectory and never gated.
 *
 * Results land in BENCH_kernel_throughput.json. The chains carry a
 * 64-byte payload matching Msg, so the comparison reflects the real
 * delivery path, not an empty-lambda best case.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/locking.hh"

namespace tokencmp {
namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kSlices = 15;
constexpr unsigned kChains = 64;
constexpr std::uint64_t kChainEvents = 1000000;
constexpr unsigned kAcquiresPerProc = 200;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

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
 * Run kChains self-rescheduling closures until kChainEvents fired;
 * each closure captures a Msg-sized payload. Returns events/sec.
 */
double
chainThroughput(EventQueue &q)
{
    q.reset();
    Random rng(42);
    std::uint64_t fired = 0;
    const auto start = Clock::now();

    std::function<void(const Payload &)> hop =
        [&](const Payload &p) {
            if (++fired >= kChainEvents)
                return;
            Payload next = p;
            next.words[0] = fired;
            q.schedule(chainDelay(rng),
                       [&hop, next]() { hop(next); });
        };
    for (unsigned c = 0; c < kChains; ++c)
        q.schedule(chainDelay(rng), [&hop, c]() {
            Payload p;
            p.words[1] = c;
            hop(p);
        });
    q.run();

    return double(fired) / secondsSince(start);
}

/** One full-system run's simulated counts and host rates. */
struct SystemSample
{
    bool completed = false;
    Tick runtime = 0;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::uint64_t wakeups = 0;
    double eventsPerSec = 0.0;
    double messagesPerSec = 0.0;
};

/** TokenCMP + locking, one fixed seed. */
SystemSample
systemThroughput(bool model_bandwidth)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    cfg.net.modelBandwidth = model_bandwidth;
    cfg.seed = 1;

    LockingParams p;
    p.numLocks = 16;
    p.acquiresPerProc = kAcquiresPerProc;
    LockingWorkload wl(p);
    wl.reset();

    System sys(cfg);
    const auto start = Clock::now();
    const System::RunResult r = sys.run(wl);
    const double secs = secondsSince(start);

    const Network &net = *sys.context().net;
    SystemSample s;
    s.completed = r.completed;
    s.runtime = r.runtime;
    s.events = sys.context().eventq.executed();
    s.messages = net.totalMessages();
    s.wakeups = net.deliveryWakeups();
    s.eventsPerSec = double(s.events) / secs;
    s.messagesPerSec = double(s.messages) / secs;
    return s;
}

std::string
rateCell(const std::string &label, double events_per_sec)
{
    return "{\"label\": " + json::quote(label) +
           ", \"eventsPerSec\": " + json::number(events_per_sec) + "}";
}

std::string
ratioCell(const std::string &label, double ratio)
{
    return "{\"label\": " + json::quote(label) +
           ", \"ratio\": " + json::number(ratio) + "}";
}

std::string
systemCell(const std::string &label, const SystemSample &s,
           double events_per_sec, double msgs_per_sec)
{
    return "{\"label\": " + json::quote(label) +
           ", \"completed\": " + (s.completed ? "true" : "false") +
           ", \"runtime\": " + std::to_string(s.runtime) +
           ", \"events\": " + std::to_string(s.events) +
           ", \"messages\": " + std::to_string(s.messages) +
           ", \"wakeups\": " + std::to_string(s.wakeups) +
           ", \"eventsPerSec\": " + json::number(events_per_sec) +
           ", \"messagesPerSec\": " + json::number(msgs_per_sec) + "}";
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
                  "host speed as same-process ratios against the "
                  "reference-heap kernel, median of interleaved slices");

    bench::JsonReport report("kernel_throughput");

    EventQueue heap_q(SchedulerKind::ReferenceHeap);
    EventQueue wheel_q(SchedulerKind::TimingWheel);

    // Per-slice rates; index 0/1 of the system vectors are with and
    // without bandwidth modeling.
    std::vector<double> ref_eps, wheel_eps, wheel_ratio;
    std::vector<double> sys_eps[2], sys_mps[2], sys_ratio[2];
    SystemSample sys[2];
    for (unsigned slice = 0; slice < kSlices; ++slice) {
        ref_eps.push_back(chainThroughput(heap_q));
        wheel_eps.push_back(chainThroughput(wheel_q));
        wheel_ratio.push_back(wheel_eps.back() / ref_eps.back());
        for (int nobw = 0; nobw < 2; ++nobw) {
            sys[nobw] = systemThroughput(nobw == 0);
            sys_eps[nobw].push_back(sys[nobw].eventsPerSec);
            sys_mps[nobw].push_back(sys[nobw].messagesPerSec);
            sys_ratio[nobw].push_back(sys[nobw].messagesPerSec /
                                      ref_eps.back());
        }
    }

    std::printf("median of %u slices (%llu-event chains, %u "
                "acquires/proc):\n\n", kSlices,
                static_cast<unsigned long long>(kChainEvents),
                kAcquiresPerProc);
    std::printf("%-34s %12.3e ev/s\n", "pooled_reference_heap",
                median(ref_eps));
    std::printf("%-34s %12.3e ev/s\n", "pooled_timing_wheel",
                median(wheel_eps));
    report.addRaw(rateCell("pooled_reference_heap", median(ref_eps)));
    report.addRaw(rateCell("pooled_timing_wheel", median(wheel_eps)));

    for (int nobw = 0; nobw < 2; ++nobw) {
        const std::string label =
            std::string("system_tokencmp_locking") + (nobw ? "_nobw" : "");
        const SystemSample &s = sys[nobw];
        std::printf("%-34s %12.3e ev/s %12.3e msg/s  (completed=%d "
                    "runtime=%llu events=%llu messages=%llu)\n",
                    label.c_str(), median(sys_eps[nobw]),
                    median(sys_mps[nobw]), int(s.completed),
                    static_cast<unsigned long long>(s.runtime),
                    static_cast<unsigned long long>(s.events),
                    static_cast<unsigned long long>(s.messages));
        report.addRaw(systemCell(label, s, median(sys_eps[nobw]),
                                 median(sys_mps[nobw])));
    }

    std::printf("\nratios (median per-slice, gated by "
                "check_regression.py):\n");
    const std::pair<const char *, const std::vector<double> *> ratios[] = {
        {"wheel_vs_reference_heap", &wheel_ratio},
        {"system_locking_vs_reference_heap", &sys_ratio[0]},
        {"system_locking_nobw_vs_reference_heap", &sys_ratio[1]},
    };
    for (const auto &[label, samples] : ratios) {
        const auto [lo, hi] =
            std::minmax_element(samples->begin(), samples->end());
        std::printf("%-38s %6.3f  (slices %.3f-%.3f)\n", label,
                    median(*samples), *lo, *hi);
        report.addRaw(ratioCell(label, median(*samples)));
    }
    return 0;
}
