#include "sim/sharded_kernel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "sim/logging.hh"

namespace tokencmp {
namespace {

/** Tell the core this thread is spinning (frees pipeline resources for
 *  a sibling hyperthread); a no-op off x86. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

/**
 * Sense-reversing window barrier: the last worker to arrive runs the
 * completion step and then publishes the flipped sense with release
 * ordering; every other worker spins on the sense for up to
 * `spinBudget` and then blocks in std::atomic::wait until the last
 * arriver wakes it.
 *
 * A window is only 10-20 us of work per worker, so a worker that
 * parks on a futex at every barrier pays a scheduler wake-up (several
 * microseconds on a VM) per window. The budget covers a typical
 * window, so balanced workers never sleep; it is also short enough
 * that workers outnumbering CPUs (ctest -j, sanitizer builds, a
 * pinned single CPU) give their time slice back instead of burning
 * it while the thread they wait for cannot run.
 */
class WindowBarrier
{
  public:
    static constexpr auto spinBudget = std::chrono::microseconds(50);

    explicit WindowBarrier(unsigned workers)
        : _workers(workers), _left(workers)
    {}

    /**
     * Arrive and wait for every other worker. `sense` is the calling
     * worker's own copy of the barrier sense (starts at 0); the last
     * arriver runs `completion` before anyone leaves.
     */
    template <typename Completion>
    void
    arriveAndWait(std::uint32_t &sense, Completion &&completion)
    {
        sense ^= 1;
        if (_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            _left.store(_workers, std::memory_order_relaxed);
            completion();
            _sense.store(sense, std::memory_order_release);
            _sense.notify_all();
            return;
        }
        const auto give_up = std::chrono::steady_clock::now() + spinBudget;
        for (unsigned spins = 1;; ++spins) {
            if (_sense.load(std::memory_order_acquire) == sense)
                return;
            cpuRelax();
            // Read the clock only every 64 pauses: it costs more than
            // the pause itself.
            if (spins % 64 == 0 &&
                std::chrono::steady_clock::now() >= give_up)
                break;
        }
        for (std::uint32_t seen;
             (seen = _sense.load(std::memory_order_acquire)) != sense;)
            _sense.wait(seen, std::memory_order_acquire);
    }

  private:
    const unsigned _workers;
    /** Workers yet to arrive this round; written by every arrival. */
    alignas(64) std::atomic<unsigned> _left;
    /** Flipped once per round by the last arriver; read by spinners,
     *  so it lives on a line of its own. */
    alignas(64) std::atomic<std::uint32_t> _sense{0};
};

} // namespace

const char *
outcomeName(ShardedKernel::Outcome o)
{
    switch (o) {
      case ShardedKernel::Outcome::Stopped: return "stopped";
      case ShardedKernel::Outcome::Drained: return "drained";
      case ShardedKernel::Outcome::Horizon: return "horizon";
    }
    return "?";
}

ShardedKernel::ShardedKernel(std::vector<EventQueue *> queues,
                             Tick lookahead, unsigned workers)
    : _queues(std::move(queues)), _la(lookahead),
      _workers(std::clamp(workers, 1u, unsigned(_queues.size())))
{
    if (_queues.empty())
        panic("ShardedKernel needs at least one shard");
    for (const EventQueue *q : _queues) {
        if (q == nullptr)
            panic("ShardedKernel given a null shard queue");
    }
    if (lookahead == 0)
        panic("ShardedKernel lookahead must be >= 1 tick");
    const unsigned n = numShards();
    _bounds.assign(n, 0);
    _pending.assign(n, EventQueue::noTick);
    _frontier.assign(n, EventQueue::noTick);
}

std::uint64_t
ShardedKernel::executed() const
{
    std::uint64_t sum = 0;
    for (const EventQueue *q : _queues)
        sum += q->executed();
    return sum;
}

void
ShardedKernel::coordinate()
{
    // All workers are parked in the barrier: single-threaded section.
    const unsigned n = numShards();
    std::fill(_pending.begin(), _pending.end(), EventQueue::noTick);
    if (_hooks.onBarrier)
        _hooks.onBarrier(_pending);

    // Effective frontier of a shard: the earliest tick it could still
    // act at — its queue frontier or a flipped handoff it will enqueue
    // at intake, whichever is earlier.
    Tick f = EventQueue::noTick;
    for (unsigned s = 0; s < n; ++s) {
        _frontier[s] = std::min(_queues[s]->frontier(), _pending[s]);
        f = std::min(f, _frontier[s]);
    }

    if (_hooks.stopRequested && _hooks.stopRequested()) {
        _outcome = Outcome::Stopped;
        _stop = true;
        return;
    }
    if (f == EventQueue::noTick) {
        _outcome = Outcome::Drained;
        _stop = true;
        return;
    }
    if (f > _horizon) {
        _outcome = Outcome::Horizon;
        _stop = true;
        return;
    }

    // Jump straight to the frontier: window bounds derive from shard
    // frontiers plus the lookahead, so idle stretches are never
    // crossed one fixed-size window at a time. The cap keeps stop
    // polling at a bounded simulated-time cadence when every
    // constraint is far away (e.g. a single shard draining alone).
    const Tick cap = maxWindow < _horizon - f ? f + maxWindow : _horizon;
    for (unsigned d = 0; d < n; ++d) {
        Tick b = cap;
        for (unsigned s = 0; s < n; ++s) {
            // Another shard's traffic reaches d no sooner than L after
            // its frontier; d's own traffic comes back no sooner than
            // the 2L round trip, which needs a second shard. d may run
            // strictly below either. An idle shard (frontier noTick)
            // fails the overflow test and constrains nothing.
            if (s == d && n == 1)
                continue;
            const Tick la = s == d ? 2 * _la : _la;
            if (_frontier[s] > EventQueue::noTick - la)
                continue;
            b = std::min(b, _frontier[s] + la - 1);
        }
        _bounds[d] = b;
    }

    ++_windows;
}

void
ShardedKernel::runShardWindow(unsigned s)
{
    if (_hooks.intake)
        _hooks.intake(s);
    _queues[s]->run(_bounds[s]);
}

ShardedKernel::Outcome
ShardedKernel::run(Tick horizon)
{
    _horizon = horizon;
    _stop = false;
    _outcome = Outcome::Drained;

    WindowBarrier bar(_workers);

    auto loop = [this, &bar](unsigned w) {
        std::uint32_t sense = 0;
        for (;;) {
            // The completion step (coordinate()) runs when the last
            // worker arrives; the release/acquire on the barrier sense
            // orders its writes before every worker's reads below.
            bar.arriveAndWait(sense, [this]() { coordinate(); });
            if (_stop)
                return;
            for (unsigned s = w; s < numShards(); s += _workers)
                runShardWindow(s);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(_workers - 1);
    for (unsigned w = 1; w < _workers; ++w)
        pool.emplace_back(loop, w);
    loop(0);
    for (std::thread &t : pool)
        t.join();
    return _outcome;
}

} // namespace tokencmp
