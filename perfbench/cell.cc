/**
 * @file
 * One benchmark sample: build one System for a named workload in a
 * fresh process, run it once, and print one JSON object of raw host
 * timings and simulated counts on stdout. perfbench/run.py starts many
 * of these processes and turns them into metrics.
 *
 * Every layer is measured from outside, through public calls only:
 *  - System::System and System::run are timed directly;
 *  - TimedWorkload wraps the workload and timestamps makeThread (its
 *    first call starts the measured phase);
 *  - an L1Proxy per L1 controller, installed with Sequencer::bind,
 *    counts each cpuRequest and completion and records the simulated
 *    latency from MemResult; with --trace 1 it also times both calls;
 *  - System::verifyQuiescent is timed a second time after run();
 *  - EventQueue, Network and RunResult.stats counters are read as-is.
 *
 * Usage: perfbench_cell --workload <name> --seed <n> --trace <0|1>
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "system/system.hh"
#include "workload/synthetic.hh"
#include "workload/workload_registry.hh"

using namespace tokencmp;

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** --trace 1: time every L1 call and completion at the proxies. */
bool g_trace = false;

/** Set by the first makeThread: proxies count only measured ops.
 *  Written by the main thread between phases, when no shard worker
 *  runs (workers are started and joined inside each kernel run). */
bool g_measuring = false;

/** Host ns covered by finished child spans of the innermost open span
 *  on this thread; an L1 call and a completion callback nest in each
 *  other (a continuation issues the next op). */
thread_local std::int64_t t_childNs = 0;

/** Run `f`, returning its self time: duration minus nested spans. */
template <typename F>
std::int64_t
selfNs(F &&f)
{
    const std::int64_t saved = t_childNs;
    t_childNs = 0;
    const std::int64_t t0 = nowNs();
    f();
    const std::int64_t dur = nowNs() - t0;
    const std::int64_t self = dur - t_childNs;
    t_childNs = saved + dur;
    return self;
}

constexpr unsigned numOps = 4;  // MemOp::Load .. MemOp::Ifetch

/** Per-proxy accumulators for the measured phase. */
struct Tally
{
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t byOp[numOps] = {};
    std::vector<Tick> latency[numOps];
    std::int64_t l1SelfNs = 0;    //!< traced: self ns inside cpuRequest
    std::int64_t contSelfNs = 0;  //!< traced: self ns of completions
    std::int64_t lastDoneNs = 0;  //!< host time of the last completion
    std::uint64_t lastDoneEvents = 0;  //!< domain events executed then
};

/**
 * Stands between a Sequencer and one real L1 controller. The sequencer
 * has at most one operation outstanding, so the proxy parks the
 * continuation in one slot and hands the L1 a pointer-sized thunk, as
 * the sequencer itself does.
 */
class L1Proxy final : public L1CacheIF
{
  public:
    L1Proxy(L1CacheIF &inner, SimContext &ctx) : _inner(inner), _ctx(ctx) {}

    L1Proxy(const L1Proxy &) = delete;
    L1Proxy &operator=(const L1Proxy &) = delete;

    void
    cpuRequest(const MemRequest &req) override
    {
        MemRequest fwd = req;
        _parked = std::move(fwd.callback);
        _op = req.op;
        fwd.callback = [this](const MemResult &r) { complete(r); };
        if (!g_measuring) {
            _inner.cpuRequest(fwd);
            return;
        }
        ++tally.issued;
        if (!g_trace) {
            _inner.cpuRequest(fwd);
            return;
        }
        tally.l1SelfNs += selfNs([&] { _inner.cpuRequest(fwd); });
    }

    SimContext &context() const { return _ctx; }

    Tally tally;

  private:
    void
    complete(const MemResult &r)
    {
        MemCallback cb = std::move(_parked);
        if (!g_measuring) {
            cb(r);
            return;
        }
        const unsigned op = unsigned(_op);
        ++tally.completed;
        ++tally.byOp[op];
        tally.latency[op].push_back(r.latency);
        tally.lastDoneNs = nowNs();
        tally.lastDoneEvents = _ctx.eventq.executed();
        if (!g_trace) {
            cb(r);
            return;
        }
        tally.contSelfNs += selfNs([&] { cb(r); });
    }

    L1CacheIF &_inner;
    SimContext &_ctx;
    MemCallback _parked;
    MemOp _op = MemOp::Load;
};

/** Forwards to a workload and timestamps its measured-thread factory. */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner,
                  std::function<void()> on_measure_start)
        : _inner(std::move(inner)), _onMeasureStart(std::move(on_measure_start))
    {}

    std::unique_ptr<ThreadContext>
    makeWarmupThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
                     std::uint64_t seed) override
    {
        return _inner->makeWarmupThread(ctx, seq, num_procs, seed);
    }

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override
    {
        const std::int64_t t0 = nowNs();
        if (firstThreadNs == 0) {
            firstThreadNs = t0;
            _onMeasureStart();
        }
        auto th = _inner->makeThread(ctx, seq, num_procs, seed);
        makeThreadNs += nowNs() - t0;
        ++makeThreadCalls;
        return th;
    }

    void reset() override { _inner->reset(); }
    std::uint64_t violations() const override { return _inner->violations(); }
    Tick measureStart() const override { return _inner->measureStart(); }
    std::string name() const override { return _inner->name(); }

    std::int64_t firstThreadNs = 0;
    std::int64_t makeThreadNs = 0;
    std::uint64_t makeThreadCalls = 0;

  private:
    std::unique_ptr<Workload> _inner;
    std::function<void()> _onMeasureStart;
};

/** One benchmark workload: a machine configuration and its program. */
struct Cell
{
    SystemConfig cfg;
    std::function<std::unique_ptr<Workload>()> make;
};

// Sizes give each run >= 1e5 measured memory operations, so the p99.9
// latency has >= 100 samples beyond it.
constexpr unsigned oltpTxnsPerProc = 1100;
constexpr unsigned jbbOpsPerProc = 6500;
constexpr unsigned lockingAcquiresPerProc = 2000;

std::unique_ptr<Workload>
registryWorkload(const char *name, const WorkloadParams &wp)
{
    return WorkloadRegistry::instance().create(name, wp);
}

bool
makeCell(const std::string &name, std::uint64_t seed, Cell &cell)
{
    cell.cfg.seed = seed;
    if (name == "oltp-token" || name == "oltp-token-sharded") {
        cell.cfg.protocol = Protocol::TokenDst1;
        if (name == "oltp-token-sharded") {
            cell.cfg.shards = 2;
            cell.cfg.shardMap.kind = ShardMapKind::PerCmp;
        }
        cell.make = [] {
            WorkloadParams wp;
            wp.opsPerProc = oltpTxnsPerProc;
            return registryWorkload("oltp", wp);
        };
        return true;
    }
    if (name == "jbb-directory") {
        cell.cfg.protocol = Protocol::DirectoryCMP;
        cell.make = []() -> std::unique_ptr<Workload> {
            SyntheticParams p = jbbParams();
            p.opsPerProc = jbbOpsPerProc;
            return std::make_unique<SyntheticWorkload>(p);
        };
        return true;
    }
    if (name == "locking-hier") {
        cell.cfg.protocol = Protocol::HierCMP;
        cell.make = [] {
            WorkloadParams wp;
            wp.keys = 16;
            wp.opsPerProc = lockingAcquiresPerProc;
            return registryWorkload("locking", wp);
        };
        return true;
    }
    return false;
}

/** The real L1 at (cmp, idx): TokenL1 (HierL1 derives from it) or
 *  DirL1; nullptr if the family has none there. */
L1CacheIF *
realL1(System &sys, unsigned cmp, unsigned idx, bool icache)
{
    if (auto *t = sys.controller<TokenL1>(cmp, idx, icache))
        return t;
    return sys.controller<DirL1>(cmp, idx, icache);
}

/** Pin this process to the last `n` CPUs it may run on, as
 *  tools/sweep --pin does for sharded cells; the last ones because
 *  CPU 0 takes most interrupts. Returns the count pinned. */
unsigned
pinToLastCpus(unsigned n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned pinned = 0;
    for (int c = CPU_SETSIZE - 1; c >= 0 && pinned < n; --c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &set);
            ++pinned;
        }
    }
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return pinned;
}

/** Host ns per event of a bare EventQueue chain: `lanes` closures that
 *  each reschedule themselves at protocol-like delays, `events` in all. */
double
kernelNsPerEvent(std::uint64_t events, unsigned lanes)
{
    struct Chain
    {
        EventQueue q;
        std::uint64_t left = 0;

        void
        step(unsigned lane)
        {
            if (left == 0)
                return;
            --left;
            q.schedule(lane % 2 == 0 ? ns(2) : ns(20),
                       [this, lane]() { step(lane); });
        }
    } chain;
    chain.left = std::max<std::uint64_t>(events, lanes);
    for (unsigned l = 0; l < lanes; ++l)
        chain.step(l);
    const std::int64_t t0 = nowNs();
    chain.q.run();
    const std::int64_t dur = nowNs() - t0;
    return double(dur) / double(std::max<std::uint64_t>(1, chain.q.executed()));
}

/** Nearest-rank percentile of `v` (sorted in place), in ticks. */
Tick
percentile(std::vector<Tick> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(q * double(v.size()) + 0.999999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_cell --workload <oltp-token|jbb-directory|"
                 "locking-hier|oltp-token-sharded> --seed <n> --trace <0|1>\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--workload") == 0)
            workload = argv[i + 1];
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--trace") == 0)
            g_trace = std::strcmp(argv[i + 1], "0") != 0;
        else {
            usage();
            return 2;
        }
    }
    Cell cell;
    if (!makeCell(workload, seed, cell)) {
        usage();
        return 2;
    }
    // One CPU per kernel thread: a sample that migrates between CPUs
    // reads their speed differences on top of the host's own swings.
    const unsigned pinned = pinToLastCpus(std::max(1u, cell.cfg.shards));

    // Built before the clock starts: the workload's own tables (Zipf
    // CDF) are input generation, not simulator set-up.
    std::unique_ptr<Workload> program = cell.make();

    const std::int64_t tBuild = nowNs();
    System sys(cell.cfg);
    const std::int64_t tBuilt = nowNs();

    const Topology &topo = sys.config().topo;
    std::vector<std::unique_ptr<L1Proxy>> proxies;
    for (unsigned p = 0; p < topo.numProcs(); ++p) {
        const unsigned cmp = p / topo.procsPerCmp;
        const unsigned idx = p % topo.procsPerCmp;
        L1Proxy *bound[2] = {nullptr, nullptr};
        for (int icache = 0; icache < 2; ++icache) {
            L1CacheIF *l1 = realL1(sys, cmp, idx, icache != 0);
            if (l1 == nullptr)
                continue;
            proxies.push_back(
                std::make_unique<L1Proxy>(*l1, sys.contextForProc(p)));
            bound[icache] = proxies.back().get();
        }
        sys.sequencer(p).bind(bound[0], bound[1]);
    }

    std::uint64_t eventsAtStart = 0;
    std::uint64_t windowsAtStart = 0;
    std::int64_t cpuAtStart = 0;
    TimedWorkload timed(std::move(program), [&] {
        g_measuring = true;
        for (unsigned d = 0; d < sys.numDomains(); ++d)
            eventsAtStart += sys.domainContext(d).eventq.executed();
        windowsAtStart = sys.shardedWindows();
        cpuAtStart = processCpuNs();
    });

    const System::RunResult res = sys.run(timed);
    const std::int64_t tRan = nowNs();
    const std::int64_t cpuAtEnd = processCpuNs();
    g_measuring = false;

    // The run's own audit is fatal on a violation; this second, timed
    // pass gives the auditor's cost on its own.
    std::int64_t auditNs = 0;
    if (g_trace && res.completed) {
        const std::int64_t t0 = nowNs();
        sys.verifyQuiescent(true);
        auditNs = nowNs() - t0;
    }

    Tally all;
    std::map<const SimContext *, std::uint64_t> domainEvents;
    for (const auto &px : proxies) {
        const Tally &t = px->tally;
        all.issued += t.issued;
        all.completed += t.completed;
        for (unsigned o = 0; o < numOps; ++o) {
            all.byOp[o] += t.byOp[o];
            all.latency[o].insert(all.latency[o].end(), t.latency[o].begin(),
                                  t.latency[o].end());
        }
        all.l1SelfNs += t.l1SelfNs;
        all.contSelfNs += t.contSelfNs;
        all.lastDoneNs = std::max(all.lastDoneNs, t.lastDoneNs);
        std::uint64_t &ev = domainEvents[&px->context()];
        ev = std::max(ev, t.lastDoneEvents);
    }
    std::uint64_t eventsAtLastDone = 0;
    for (const auto &[ctx, ev] : domainEvents)
        eventsAtLastDone += ev;

    std::vector<Tick> every;
    for (unsigned o = 0; o < numOps; ++o)
        every.insert(every.end(), all.latency[o].begin(), all.latency[o].end());
    const Tick p50 = percentile(every, 0.5);
    const Tick p999 = percentile(every, 0.999);
    const Tick loadP999 = percentile(all.latency[unsigned(MemOp::Load)], 0.999);
    const Tick atomicP999 =
        percentile(all.latency[unsigned(MemOp::Atomic)], 0.999);

    const std::uint64_t measuredEvents =
        eventsAtLastDone > eventsAtStart ? eventsAtLastDone - eventsAtStart : 0;
    const double kernelNs =
        g_trace ? kernelNsPerEvent(measuredEvents, topo.numProcs()) : 0.0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    const Network &net = *sys.context().net;
    const std::int64_t measureStart =
        timed.firstThreadNs != 0 ? timed.firstThreadNs : tRan;
    const std::int64_t measureEnd =
        std::max(all.lastDoneNs, measureStart);

    // "host": wall-clock and CPU readings, different on every run.
    // "sim": simulated results and counts, identical for a fixed
    // (workload, seed) whatever the host does.
    std::printf("{\"host\": {");
    std::printf("\"setup_s\": %.9f, ", double(tBuilt - tBuild) * 1e-9);
    std::printf("\"warmup_s\": %.9f, ", double(measureStart - tBuilt) * 1e-9);
    std::printf("\"measured_s\": %.9f, ",
                double(measureEnd - measureStart) * 1e-9);
    std::printf("\"drain_audit_s\": %.9f, ", double(tRan - measureEnd) * 1e-9);
    std::printf("\"cell_wall_s\": %.9f, ", double(tRan - tBuild) * 1e-9);
    std::printf("\"post_start_s\": %.9f, ", double(tRan - measureStart) * 1e-9);
    std::printf("\"post_start_cpu_s\": %.9f, ",
                double(cpuAtEnd - cpuAtStart) * 1e-9);
    std::printf("\"audit_s\": %.9f, ", double(auditNs) * 1e-9);
    std::printf("\"l1_self_s\": %.9f, ", double(all.l1SelfNs) * 1e-9);
    std::printf("\"cont_self_s\": %.9f, ", double(all.contSelfNs) * 1e-9);
    std::printf("\"make_thread_s\": %.9f, ", double(timed.makeThreadNs) * 1e-9);
    std::printf("\"kernel_ns_per_event\": %.6f, ", kernelNs);
    std::printf("\"peak_rss_kb\": %ld, ", ru.ru_maxrss);
    std::printf("\"pinned_cpus\": %u, ", pinned);
    std::printf("\"traced\": %s", g_trace ? "true" : "false");
    std::printf("}, \"sim\": {");
    std::printf("\"completed\": %s, ", res.completed ? "true" : "false");
    std::printf("\"violations\": %" PRIu64 ", ", res.violations);
    std::printf("\"runtime_ticks\": %" PRIu64 ", ", res.runtime);
    std::printf("\"ops_issued\": %" PRIu64 ", ", all.issued);
    std::printf("\"ops_completed\": %" PRIu64 ", ", all.completed);
    std::printf("\"loads\": %" PRIu64 ", ", all.byOp[unsigned(MemOp::Load)]);
    std::printf("\"stores\": %" PRIu64 ", ", all.byOp[unsigned(MemOp::Store)]);
    std::printf("\"atomics\": %" PRIu64 ", ", all.byOp[unsigned(MemOp::Atomic)]);
    std::printf("\"ifetches\": %" PRIu64 ", ", all.byOp[unsigned(MemOp::Ifetch)]);
    std::printf("\"latency_p50_ticks\": %" PRIu64 ", ", p50);
    std::printf("\"latency_p999_ticks\": %" PRIu64 ", ", p999);
    std::printf("\"latency_samples\": %zu, ", every.size());
    std::printf("\"load_latency_p999_ticks\": %" PRIu64 ", ", loadP999);
    std::printf("\"atomic_latency_p999_ticks\": %" PRIu64 ", ", atomicP999);
    std::printf("\"measured_events\": %" PRIu64 ", ", measuredEvents);
    std::printf("\"post_start_windows\": %" PRIu64 ", ",
                sys.shardedWindows() - windowsAtStart);
    std::printf("\"net_messages\": %" PRIu64 ", ", net.totalMessages());
    std::printf("\"net_wakeups\": %" PRIu64 ", ", net.deliveryWakeups());
    std::printf("\"net_batched\": %" PRIu64 ", ", net.batchedMessages());
    std::printf("\"make_thread_calls\": %" PRIu64 ", ", timed.makeThreadCalls);
    std::printf("\"stats\": {");
    const char *sep = "";
    for (const auto &[key, val] : res.stats.all()) {
        std::printf("%s\"%s\": %.17g", sep, key.c_str(), val);
        sep = ", ";
    }
    std::printf("}}}\n");
    return 0;
}
