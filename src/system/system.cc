#include "system/system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/sharded_kernel.hh"

namespace tokencmp {

System::System(const SystemConfig &cfg) : _cfg(cfg)
{
    _cfg.validate();
    const Family family = protocolInfo(_cfg.protocol).family;
    const bool sharded = _cfg.shards > 0;
    if (sharded && family == Family::Perfect) {
        panic("PerfectL2's magic shared L2 bypasses the network; "
              "it cannot run on the sharded kernel");
    }

    // One domain per CMP, so results are independent of how many
    // worker threads (cfg.shards) drive the domains.
    const unsigned domains = sharded ? _cfg.topo.numCmps : 1;
    for (unsigned d = 0; d < domains; ++d) {
        auto ctx = std::make_unique<SimContext>();
        ctx->eventq.setKind(_cfg.scheduler);
        ctx->topo = _cfg.topo;
        // d == 0 reproduces the serial seeding exactly.
        ctx->rng.reseed(_cfg.seed * 0x9e3779b97f4a7c15ull + 12345 +
                        d * 0x6a09e667f3bcc909ull);
        _ctxs.push_back(std::move(ctx));
    }

    _net = std::make_unique<Network>(_ctxs.front()->eventq, _cfg.topo,
                                     _cfg.net);
    if (sharded) {
        std::vector<EventQueue *> queues;
        queues.reserve(_ctxs.size());
        for (auto &ctx : _ctxs)
            queues.push_back(&ctx->eventq);
        _net->shard(queues);
    }
    for (auto &ctx : _ctxs)
        ctx->net = _net.get();

    for (unsigned p = 0; p < _cfg.topo.numProcs(); ++p) {
        _sequencers.push_back(
            std::make_unique<Sequencer>(contextForProc(p), p));
    }

    switch (family) {
      case Family::Token: _proto = makeTokenFamily(); break;
      case Family::Directory: _proto = makeDirectoryFamily(); break;
      case Family::Perfect: _proto = makePerfectFamily(); break;
      case Family::Hier: _proto = makeHierFamily(); break;
    }
    _proto->build(*this);
}

System::~System() = default;

void
System::adopt(std::unique_ptr<Controller> c, bool on_network)
{
    if (_byId.count(c->id()) != 0) {
        panic("duplicate controller %s adopted",
              c->id().toString().c_str());
    }
    if (on_network)
        _net->registerController(c.get());
    _byId[c->id()] = c.get();
    _controllers.push_back(std::move(c));
}

Controller *
System::controllerAt(MachineID id) const
{
    auto it = _byId.find(id);
    return it == _byId.end() ? nullptr : it->second;
}

void
System::harvest(StatSet &out) const
{
    for (unsigned lvl = 0; lvl < unsigned(NetLevel::NumLevels); ++lvl) {
        for (unsigned c = 0; c < unsigned(TrafficClass::NumClasses);
             ++c) {
            const auto level = NetLevel(lvl);
            const auto cls = TrafficClass(c);
            const std::string key =
                std::string("traffic.") + netLevelName(level) + "." +
                trafficClassName(cls);
            out.add(key, double(_net->bytes(level, cls)));
        }
        out.add(std::string("traffic.") + netLevelName(NetLevel(lvl)) +
                    ".total",
                double(_net->bytesByLevel(NetLevel(lvl))));
    }
    out.add("net.messages", double(_net->totalMessages()));
    // Deterministic per (config, workload) and invariant across
    // worker counts — the ShardSweep bit-identity tests cover it like
    // any other stat.
    out.add("kernel.windows", double(_shardedWindows));

    _proto->harvest(out);
}

bool
System::runSharded(unsigned num_threads, Tick horizon)
{
    // num_threads == 0 is the drain phase: no stop condition, run
    // windows until every queue and mailbox empties (or the bounded
    // horizon passes). Mailboxes flipped-but-undrained at a stop
    // carry over (FlipMailbox::flip appends behind leftovers).
    std::vector<EventQueue *> queues;
    queues.reserve(_ctxs.size());
    for (auto &ctx : _ctxs)
        queues.push_back(&ctx->eventq);

    ShardedKernel kernel(queues, _net->lookahead(), _cfg.shards);
    ShardedKernel::Hooks hooks;
    hooks.onBarrier = [this](std::vector<Tick> &earliest) {
        _net->flipMailboxes(earliest);
    };
    hooks.intake = [this](unsigned d) { _net->intakeMailboxes(d); };
    if (num_threads > 0) {
        hooks.stopRequested = [this, num_threads]() {
            return _finished.load(std::memory_order_relaxed) >=
                   num_threads;
        };
    }
    kernel.setHooks(std::move(hooks));
    const bool stopped =
        kernel.run(horizon) == ShardedKernel::Outcome::Stopped;
    _shardedWindows += kernel.windows();
    return stopped;
}

bool
System::runThreads(std::vector<std::unique_ptr<ThreadContext>> &threads,
                   Tick horizon)
{
    const unsigned n = unsigned(threads.size());
    _finished.store(0, std::memory_order_relaxed);
    for (unsigned p = 0; p < n; ++p) {
        ThreadContext *raw = threads[p].get();
        raw->notifyOnFinish(&_finished);
        contextForProc(p).eventq.schedule(0, [raw]() { raw->start(); });
    }
    if (_ctxs.size() == 1) {
        // Completion is a finish-counter comparison — O(1) per event
        // instead of scanning every thread after every event.
        auto all_done = [this, n]() {
            return _finished.load(std::memory_order_relaxed) >= n;
        };
        return context().eventq.runUntil(all_done, horizon);
    }
    return runSharded(n, horizon);
}

void
System::drain()
{
    if (_ctxs.size() == 1) {
        context().eventq.run(context().eventq.curTick() + ns(1000000));
        return;
    }
    Tick cur = 0;
    for (auto &ctx : _ctxs)
        cur = std::max(cur, ctx->eventq.curTick());
    runSharded(0, cur + ns(1000000));
}

System::RunResult
System::run(Workload &workload, Tick horizon)
{
    const unsigned n = _cfg.topo.numProcs();
    RunResult res;

    // Optional warm-up phase: run the workload's warm-up program to
    // completion, drain the in-flight protocol traffic it caused, and
    // snapshot/clear every counter — so the measured phase reports
    // only steady-state traffic, not cold misses (per-miss metrics
    // would otherwise be diluted).
    StatSet warm_snapshot;
    Tick measure_from = 0;
    {
        std::vector<std::unique_ptr<ThreadContext>> warm;
        warm.reserve(n);
        unsigned provided = 0;
        for (unsigned p = 0; p < n; ++p) {
            warm.push_back(workload.makeWarmupThread(
                contextForProc(p), sequencer(p), n,
                _cfg.seed * 7919 + p * 104729 + 500009));
            if (warm.back() != nullptr)
                ++provided;
        }
        if (provided != 0 && provided != n) {
            panic("workload '%s' provided warm-up threads for %u of %u "
                  "processors (warm-up is all-or-nothing)",
                  workload.name().c_str(), provided, n);
        }
        if (provided == n) {
            if (!runThreads(warm, horizon))
                return res;  // warm-up never finished: incomplete run
            drain();
            for (auto &ctx : _ctxs) {
                measure_from =
                    std::max(measure_from, ctx->eventq.curTick());
            }
            // A queue's clock rests at its *last executed* event, so
            // after a sharded drain the shard clocks diverge. Re-align
            // them on the common post-drain tick before the measured
            // threads start, or a shard left behind could deliver into
            // a shard ahead — "scheduling event in the past". The tick
            // is derived from the drained execution, which is
            // bit-identical across worker counts, so the alignment is
            // too.
            for (auto &ctx : _ctxs) {
                if (ctx->eventq.curTick() < measure_from) {
                    ctx->eventq.scheduleAbs(measure_from, []() {});
                    ctx->eventq.run(measure_from);
                }
            }
            // Network counters reset outright; protocol counters are
            // monotonic and owned by live controllers, so they are
            // snapshotted here (post-clearStats the network keys
            // snapshot as zero) and subtracted after the measured run.
            _net->clearStats();
            harvest(warm_snapshot);
            _proto->exportRunStats(warm_snapshot);
        }
    }

    std::vector<std::unique_ptr<ThreadContext>> threads;
    threads.reserve(n);
    for (unsigned p = 0; p < n; ++p) {
        threads.push_back(workload.makeThread(
            contextForProc(p), sequencer(p), n,
            _cfg.seed * 7919 + p * 104729 + 1));
    }
    res.completed = runThreads(threads, horizon);

    // Runtime comes from the finish ticks as of the completion check
    // (before the drain below, which may retire further threads in
    // horizon-truncated runs).
    for (const auto &th : threads)
        res.runtime = std::max(res.runtime, th->finishTick());
    // Exclude any cache-warming phase from the reported runtime —
    // whether the workload tracks its own (measureStart) or the
    // harness ran a separate warm-up program.
    const Tick measure_start =
        std::max(workload.measureStart(), measure_from);
    res.runtime -= std::min(res.runtime, measure_start);

    // Drain in-flight protocol traffic, then verify quiescence.
    drain();
    if (res.completed)
        _proto->verifyQuiescent(true);

    res.violations = workload.violations();
    harvest(res.stats);
    _proto->exportRunStats(res.stats);

    // Remove the warm-up phase's share of the monotonic counters.
    for (const auto &[key, warm_val] : warm_snapshot.all()) {
        if (res.stats.has(key)) {
            const double measured = res.stats.get(key) - warm_val;
            res.stats.set(key, measured < 0.0 ? 0.0 : measured);
        }
    }
    return res;
}

} // namespace tokencmp
