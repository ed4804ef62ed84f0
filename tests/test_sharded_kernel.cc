/**
 * @file
 * Sharded-kernel determinism battery.
 *
 * Kernel level: randomized actor networks exchanging cross-shard
 * pings through FlipMailbox channels must produce bit-identical
 * per-shard execution traces for every worker count, and the mailbox
 * machinery must deliver every handoff exactly once, at exactly its
 * arrival tick, in canonical (source shard, send order) sequence at
 * window boundaries. Adversarial same-tick multi-source bursts pin
 * the mailbox merge order exactly, cross-checked between the
 * TimingWheel and ReferenceHeap backends.
 *
 * System level: fixed-seed full-machine runs (token, directory and
 * hier protocols, one shard domain per CMP) must produce
 * bit-identical statistics for every `shards` worker count, with the
 * serial ReferenceHeap kernel as the ordering oracle for the sharded
 * wheel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/sharded_kernel.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {
namespace {

// ---------------------------------------------------------------------
// Kernel-level toy simulation: actors + cross-shard pings
// ---------------------------------------------------------------------

struct Ping
{
    Tick arrival = 0;
    unsigned srcShard = 0;
    std::uint64_t srcSeq = 0;  //!< per-(src,dst) send order
    std::uint64_t payload = 0;
};

struct TraceEntry
{
    Tick tick = 0;
    std::uint64_t payload = 0;

    bool
    operator==(const TraceEntry &o) const
    {
        return tick == o.tick && payload == o.payload;
    }
};

/**
 * A toy sharded simulation: every shard runs self-rescheduling actor
 * chains; a pseudo-random subset of hops sends a ping to another
 * shard, arriving `crossLatency` later. Ping handlers append to the
 * destination shard's trace and occasionally reply. All state is
 * per-shard; mailboxes are the only cross-shard channel.
 */
class ToySim
{
  public:
    static constexpr Tick lookahead = ns(2);
    static constexpr Tick crossLatency = ns(2);  //!< == lookahead

    ToySim(unsigned shards, unsigned chains, std::uint64_t hops,
           std::uint64_t seed)
        : _shards(shards), _hops(hops)
    {
        for (unsigned s = 0; s < shards; ++s)
            _queues.push_back(std::make_unique<EventQueue>());
        _state.resize(shards);
        _mail.resize(shards * shards);
        for (unsigned s = 0; s < shards; ++s) {
            _state[s].rng.reseed(seed * 977 + s);
            for (unsigned c = 0; c < chains; ++c)
                scheduleHop(s, ns(1) + c * 17);
        }
    }

    void
    run(unsigned workers)
    {
        ShardedKernel kernel(queuePtrs(), lookahead, workers);
        ShardedKernel::Hooks hooks;
        hooks.onBarrier = [this](std::vector<Tick> &earliest) {
            flip(earliest);
        };
        hooks.intake = [this](unsigned s) { intake(s); };
        kernel.setHooks(std::move(hooks));
        ASSERT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
        _windows = kernel.windows();
    }

    const std::vector<TraceEntry> &trace(unsigned s) const
    {
        return _state[s].trace;
    }

    std::uint64_t pingsSent() const
    {
        std::uint64_t n = 0;
        for (const Shard &st : _state)
            n += st.pingsSent;
        return n;
    }

    std::uint64_t pingsReceived() const
    {
        std::uint64_t n = 0;
        for (const Shard &st : _state)
            n += st.pingsReceived;
        return n;
    }

    std::uint64_t windows() const { return _windows; }

  private:
    struct Shard
    {
        Random rng{1};
        std::uint64_t hopCount = 0;
        std::uint64_t pingsSent = 0;
        std::uint64_t pingsReceived = 0;
        std::vector<std::uint64_t> sendSeq;  //!< per destination
        std::vector<std::uint64_t> lastSeqAt; //!< per source, ordering
        std::vector<Tick> lastTickFrom;       //!< per source, ordering
        std::vector<TraceEntry> trace;
    };

    std::vector<EventQueue *>
    queuePtrs()
    {
        std::vector<EventQueue *> qs;
        for (auto &q : _queues)
            qs.push_back(q.get());
        return qs;
    }

    void
    scheduleHop(unsigned s, Tick delay)
    {
        _queues[s]->schedule(delay, [this, s]() { hop(s); });
    }

    void
    hop(unsigned s)
    {
        Shard &st = _state[s];
        if (++st.hopCount > _hops)
            return;
        st.trace.push_back({_queues[s]->curTick(), st.hopCount});
        // A third of hops ping another shard.
        if (_shards > 1 && st.rng.chance(1.0 / 3.0)) {
            const auto d = unsigned(st.rng.uniform(_shards - 1));
            const unsigned dst = d >= s ? d + 1 : d;
            st.sendSeq.resize(_shards, 0);
            Ping p;
            p.arrival = _queues[s]->curTick() + crossLatency +
                        Tick(st.rng.uniform(ns(5)));
            p.srcShard = s;
            p.srcSeq = ++st.sendSeq[dst];
            p.payload = (std::uint64_t(s) << 48) ^ st.hopCount;
            _mail[s * _shards + dst].push(p, p.arrival);
            ++st.pingsSent;
        }
        scheduleHop(s, ns(1) + Tick(st.rng.uniform(ns(3))));
    }

    void
    flip(std::vector<Tick> &earliest)
    {
        for (unsigned src = 0; src < _shards; ++src) {
            for (unsigned dst = 0; dst < _shards; ++dst) {
                auto &mb = _mail[src * _shards + dst];
                mb.flip();
                earliest[dst] =
                    std::min(earliest[dst], mb.pendingMin());
            }
        }
    }

    void
    intake(unsigned dst)
    {
        Shard &st = _state[dst];
        st.lastSeqAt.resize(_shards, 0);
        st.lastTickFrom.resize(_shards, 0);
        for (unsigned src = 0; src < _shards; ++src) {
            auto &mb = _mail[src * _shards + dst];
            for (const Ping &p : mb.pending()) {
                // Exact-ordering checks at the window boundary:
                // handoffs from one source arrive in send order, and
                // never for a tick the consumer has already passed.
                EXPECT_EQ(p.srcShard, src);
                EXPECT_EQ(p.srcSeq, st.lastSeqAt[src] + 1);
                st.lastSeqAt[src] = p.srcSeq;
                EXPECT_GE(p.arrival, _queues[dst]->curTick());
                const Ping ping = p;
                _queues[dst]->scheduleAbs(p.arrival, [this, dst, ping]() {
                    Shard &me = _state[dst];
                    // Delivered exactly at the arrival tick.
                    EXPECT_EQ(_queues[dst]->curTick(), ping.arrival);
                    ++me.pingsReceived;
                    me.trace.push_back({ping.arrival, ping.payload});
                });
            }
            mb.clearPending();
        }
    }

    unsigned _shards;
    std::uint64_t _hops;
    std::uint64_t _windows = 0;
    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::vector<Shard> _state;
    std::vector<FlipMailbox<Ping>> _mail;
};

TEST(ShardedKernel, TracesBitIdenticalForEveryWorkerCount)
{
    // 4 shards x 8 chains, 2500 hops per shard -> ~10k traced events
    // plus a few thousand cross-shard pings.
    ToySim reference(4, 8, 2500, 42);
    reference.run(1);
    ASSERT_GT(reference.pingsSent(), 500u);
    EXPECT_EQ(reference.pingsSent(), reference.pingsReceived());

    for (unsigned workers : {2u, 3u, 4u, 8u}) {
        ToySim sim(4, 8, 2500, 42);
        sim.run(workers);
        EXPECT_EQ(sim.windows(), reference.windows());
        EXPECT_EQ(sim.pingsSent(), reference.pingsSent());
        EXPECT_EQ(sim.pingsReceived(), reference.pingsReceived());
        for (unsigned s = 0; s < 4; ++s) {
            ASSERT_EQ(sim.trace(s).size(), reference.trace(s).size())
                << "shard " << s << " workers " << workers;
            EXPECT_TRUE(sim.trace(s) == reference.trace(s))
                << "shard " << s << " trace diverged at workers="
                << workers;
        }
    }
}

TEST(ShardedKernel, MailboxStressDeliversEverythingInOrder)
{
    // Heavier randomized stress across several seeds: every ping must
    // be delivered exactly once, at its tick, in per-pair send order
    // (the EXPECTs inside ToySim::intake), independent of workers.
    for (std::uint64_t seed : {7u, 1234u, 99991u}) {
        ToySim serial(8, 4, 1250, seed);
        serial.run(1);
        ToySim parallel(8, 4, 1250, seed);
        parallel.run(4);
        EXPECT_EQ(serial.pingsSent(), serial.pingsReceived());
        EXPECT_EQ(parallel.pingsSent(), parallel.pingsReceived());
        EXPECT_EQ(parallel.pingsSent(), serial.pingsSent());
        for (unsigned s = 0; s < 8; ++s)
            EXPECT_TRUE(parallel.trace(s) == serial.trace(s));
    }
}

TEST(ShardedKernel, HorizonStopsBeforeCrossingEvents)
{
    EventQueue a, b;
    std::vector<Tick> fired;
    a.schedule(ns(1), [&]() { fired.push_back(ns(1)); });
    b.schedule(ns(5), [&]() { fired.push_back(ns(5)); });
    a.schedule(ns(50), [&]() { fired.push_back(ns(50)); });
    ShardedKernel kernel({&a, &b}, ns(2), 1);
    EXPECT_EQ(kernel.run(ns(10)), ShardedKernel::Outcome::Horizon);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
    EXPECT_EQ(fired.size(), 3u);
}

/**
 * Runs `events` (shard, tick) on a kernel with lookahead `la` and one
 * worker, and returns the window round each event executed in.
 */
std::vector<std::uint64_t>
windowOfEach(unsigned shards, Tick la,
             const std::vector<std::pair<unsigned, Tick>> &events)
{
    std::vector<std::unique_ptr<EventQueue>> qs;
    std::vector<EventQueue *> ptrs;
    for (unsigned s = 0; s < shards; ++s) {
        qs.push_back(std::make_unique<EventQueue>());
        ptrs.push_back(qs.back().get());
    }
    ShardedKernel kernel(ptrs, la, 1);
    std::vector<std::uint64_t> window(events.size(), 0);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto [shard, tick] = events[i];
        qs[shard]->scheduleAbs(
            tick, [&kernel, &window, i]() { window[i] = kernel.windows(); });
    }
    EXPECT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
    return window;
}

TEST(ShardedKernel, WindowBoundIsUniformLookaheadRule)
{
    const Tick la = 10;
    using W = std::vector<std::uint64_t>;

    // One active shard beside an idle one: only the round trip of its
    // own traffic (2L) constrains it, so it runs to f + 2L - 1.
    EXPECT_EQ(windowOfEach(2, la, {{0, 100}, {0, 119}, {0, 120}}),
              (W{1, 1, 2}));

    // Two active shards: each is bound by the other's frontier + L
    // (and its own + 2L). Shard 0 (f = 100) runs to 105 + L - 1 = 114;
    // shard 1 (f = 105) runs to 100 + L - 1 = 109.
    EXPECT_EQ(windowOfEach(2, la,
                           {{0, 100}, {0, 114}, {0, 115},
                            {1, 105}, {1, 109}, {1, 110}}),
              (W{1, 1, 2, 1, 1, 2}));

    // One shard has no round trip; only the cap applies.
    const Tick cap = ShardedKernel::maxWindow;
    EXPECT_EQ(windowOfEach(1, la, {{0, 100}, {0, 100 + cap},
                                   {0, 101 + cap}}),
              (W{1, 1, 2}));
    // The cap also binds two shards whose lookahead reaches past it.
    EXPECT_EQ(windowOfEach(2, 4 * cap, {{0, 100}, {0, 100 + cap},
                                        {0, 101 + cap}}),
              (W{1, 1, 2}));
}

// ---------------------------------------------------------------------
// Adversarial mailbox merge ordering
// ---------------------------------------------------------------------

/**
 * Same-tick multi-source bursts into one destination shard: sources
 * 1..S-1 each emit K pings per round, all arriving at the *same*
 * destination tick. The canonical drain order at the window boundary
 * is (source shard asc, send seq asc); since same-tick events execute
 * in insertion order, the destination's observed log must equal that
 * order exactly — for any worker count and for both scheduler
 * backends.
 */
class BurstSim
{
  public:
    BurstSim(unsigned shards, unsigned pings_per_burst,
             unsigned rounds, SchedulerKind kind)
        : _shards(shards), _k(pings_per_burst), _rounds(rounds)
    {
        for (unsigned s = 0; s < shards; ++s) {
            auto q = std::make_unique<EventQueue>(kind);
            _queues.push_back(std::move(q));
        }
        _mail.resize(shards * shards);
        _seq.assign(shards, 0);
        for (unsigned r = 0; r < rounds; ++r) {
            const Tick t = ns(10) * (r + 1);
            for (unsigned s = 1; s < shards; ++s) {
                _queues[s]->scheduleAbs(t, [this, s, t]() {
                    burst(s, t);
                });
            }
            // An adversarial local event at the destination for the
            // same arrival tick, scheduled *before* any handoff is
            // enqueued: it must stay ahead of the whole burst.
            _queues[0]->scheduleAbs(arrivalFor(t), [this, t]() {
                _log.push_back({arrivalFor(t), 0, 0});
            });
        }
    }

    void
    run(unsigned workers)
    {
        std::vector<EventQueue *> qs;
        for (auto &q : _queues)
            qs.push_back(q.get());
        ShardedKernel kernel(qs, lookahead, workers);
        ShardedKernel::Hooks hooks;
        hooks.onBarrier = [this](std::vector<Tick> &earliest) {
            for (unsigned src = 0; src < _shards; ++src) {
                for (unsigned dst = 0; dst < _shards; ++dst) {
                    auto &mb = _mail[src * _shards + dst];
                    mb.flip();
                    earliest[dst] =
                        std::min(earliest[dst], mb.pendingMin());
                }
            }
        };
        hooks.intake = [this](unsigned dst) {
            for (unsigned src = 0; src < _shards; ++src) {
                auto &mb = _mail[src * _shards + dst];
                for (const Ping &p : mb.pending()) {
                    const Ping ping = p;
                    _queues[dst]->scheduleAbs(
                        p.arrival, [this, ping]() {
                            _log.push_back({ping.arrival,
                                            ping.srcShard,
                                            ping.srcSeq});
                        });
                }
                mb.clearPending();
            }
        };
        kernel.setHooks(std::move(hooks));
        ASSERT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
    }

    struct LogEntry
    {
        Tick tick;
        unsigned src;
        std::uint64_t seq;

        bool
        operator==(const LogEntry &o) const
        {
            return tick == o.tick && src == o.src && seq == o.seq;
        }
    };

    const std::vector<LogEntry> &log() const { return _log; }

    /** The exact canonical expectation: per round, the local marker
     *  first, then sources ascending, send order within a source. */
    std::vector<LogEntry>
    expected() const
    {
        std::vector<LogEntry> e;
        std::vector<std::uint64_t> seq(_shards, 0);
        for (unsigned r = 0; r < _rounds; ++r) {
            const Tick a = arrivalFor(ns(10) * (r + 1));
            e.push_back({a, 0, 0});
            for (unsigned s = 1; s < _shards; ++s) {
                for (unsigned i = 0; i < _k; ++i)
                    e.push_back({a, s, ++seq[s]});
            }
        }
        return e;
    }

  private:
    static constexpr Tick lookahead = ns(2);

    static Tick arrivalFor(Tick t) { return t + ns(4); }

    void
    burst(unsigned s, Tick t)
    {
        for (unsigned i = 0; i < _k; ++i) {
            Ping p;
            p.arrival = arrivalFor(t);  // same tick from every source
            p.srcShard = s;
            p.srcSeq = ++_seq[s];
            _mail[s * _shards + 0].push(p, p.arrival);
        }
    }

    unsigned _shards;
    unsigned _k;
    unsigned _rounds;
    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::vector<FlipMailbox<Ping>> _mail;
    std::vector<std::uint64_t> _seq;
    std::vector<LogEntry> _log;
};

TEST(ShardedKernel, SameTickBurstsDrainInCanonicalSourceSeqOrder)
{
    for (unsigned workers : {1u, 2u, 5u}) {
        BurstSim sim(5, 7, 6, SchedulerKind::TimingWheel);
        sim.run(workers);
        const auto expect = sim.expected();
        ASSERT_EQ(sim.log().size(), expect.size())
            << "workers " << workers;
        EXPECT_TRUE(sim.log() == expect)
            << "canonical (srcDomain, sendSeq) order violated at "
            << "workers=" << workers;
    }
}

TEST(ShardedKernel, BurstMergeOrderIdenticalAcrossSchedulerBackends)
{
    BurstSim wheel(6, 5, 4, SchedulerKind::TimingWheel);
    wheel.run(3);
    BurstSim heap(6, 5, 4, SchedulerKind::ReferenceHeap);
    heap.run(3);
    ASSERT_EQ(wheel.log().size(), heap.log().size());
    EXPECT_TRUE(wheel.log() == heap.log());
    EXPECT_TRUE(wheel.log() == wheel.expected());
}

// ---------------------------------------------------------------------
// Full-system determinism sweep
// ---------------------------------------------------------------------

struct RunSummary
{
    bool completed = false;
    Tick runtime = 0;
    std::uint64_t violations = 0;
    std::map<std::string, double> stats;
};

RunSummary
runSystem(const std::string &name, unsigned shards, SchedulerKind sched,
          std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::select(name);
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.scheduler = sched;

    SyntheticParams p = oltpParams();
    p.opsPerProc = 40;  // fig6-style mix, test-sized
    SyntheticWorkload wl(p);

    System sys(cfg);
    System::RunResult r = sys.run(wl);
    RunSummary s;
    s.completed = r.completed;
    s.runtime = r.runtime;
    s.violations = r.violations;
    s.stats = r.stats.all();
    return s;
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

class ShardSweep
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{};

TEST_P(ShardSweep, StatsBitIdenticalAcrossWorkerCounts)
{
    const std::string name = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());

    // Worker-count invariance: shards=1 is the canonical sharded
    // execution; more workers only change the thread mapping.
    const RunSummary base =
        runSystem(name, 1, SchedulerKind::TimingWheel, 11);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.violations, 0u);

    const RunSummary run =
        runSystem(name, shards, SchedulerKind::TimingWheel, 11);
    expectSameRun(run, base, name + " shards=" + std::to_string(shards));
}

TEST_P(ShardSweep, ReferenceHeapOracleMatchesWheel)
{
    const std::string name = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());

    // The ReferenceHeap ordering oracle kept from the kernel overhaul:
    // per-shard wheels must order identically to per-shard heaps.
    const RunSummary wheel =
        runSystem(name, shards, SchedulerKind::TimingWheel, 23);
    const RunSummary heap =
        runSystem(name, shards, SchedulerKind::ReferenceHeap, 23);
    expectSameRun(wheel, heap,
                  name + " oracle shards=" + std::to_string(shards));
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByShards, ShardSweep,
    ::testing::Combine(::testing::Values("dst1", "directory", "hier"),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto &info) {
        return configTestName(std::get<0>(info.param)) + "_shards" +
               std::to_string(std::get<1>(info.param));
    });

TEST(ShardedSystem, SerialAndShardedAgreeSemantically)
{
    // The serial kernel and the sharded kernel order same-tick
    // cross-domain events differently, so per-run timing statistics
    // may legitimately diverge; the semantic outcome must not.
    for (const char *name : {"dst1", "directory", "hier"}) {
        const RunSummary serial =
            runSystem(name, 0, SchedulerKind::ReferenceHeap, 31);
        const RunSummary sharded =
            runSystem(name, 4, SchedulerKind::TimingWheel, 31);
        EXPECT_TRUE(serial.completed);
        EXPECT_TRUE(sharded.completed) << name;
        EXPECT_EQ(serial.violations, 0u);
        EXPECT_EQ(sharded.violations, 0u) << name;
    }
}

TEST(ShardedSystem, DomainsAreCmps)
{
    SystemConfig cfg;
    cfg.shards = 2;
    System sys(cfg);
    const Topology &t = sys.config().topo;
    ASSERT_EQ(sys.numDomains(), t.numCmps);
    for (unsigned c = 0; c < t.numCmps; ++c) {
        SimContext *home = &sys.domainContext(c);
        for (unsigned p = 0; p < t.procsPerCmp; ++p) {
            EXPECT_EQ(&sys.contextFor(t.l1d(c, p)), home);
            EXPECT_EQ(&sys.contextFor(t.l1i(c, p)), home);
            EXPECT_EQ(&sys.contextForProc(c * t.procsPerCmp + p), home);
        }
        for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
            EXPECT_EQ(&sys.contextFor(t.l2(c, b)), home);
        EXPECT_EQ(&sys.contextFor(t.mem(c)), home);
    }
}

} // namespace
} // namespace tokencmp::test
