/**
 * @file
 * Sharded parallel event kernel: conservative lookahead windows over
 * per-shard EventQueues.
 *
 * The simulation is partitioned into S *shards*, each owning one
 * EventQueue (and whatever model state schedules onto it). Shards
 * advance in lock-step windows, the classic conservative-PDES
 * null-message-free synchronization: because every cross-shard
 * interaction is a message whose delivery latency is at least a
 * uniform *lookahead* L (the inter-CMP link, one shard per CMP), a
 * shard executing its window can never receive an event for a tick it
 * has already passed. Within a window the shards share nothing, so any
 * number of worker threads may execute them in any order.
 *
 * At each barrier the coordinator computes, for every shard d, the
 * inclusive bound
 *
 *   bound(d) = min(cap, min over active s != d of frontier(s) + L,
 *                  frontier(d) + 2L) - 1
 *
 * where frontier(s) is the earliest tick shard s could still act at
 * (its queue frontier or a flipped-but-not-enqueued handoff, whichever
 * is earlier), "active" means that frontier exists, and cap bounds a
 * window's length beyond the global frontier. The frontier(d) + 2L
 * term is the earliest a reply to d's own traffic can land back at d
 * (an idle shard is not unconstraining: it can be woken this very
 * window and relay into d, but only a chain of at least L per hop
 * can reach d). With one shard there is no such round trip, so only
 * the cap applies.
 *
 * Cross-shard traffic travels through FlipMailbox channels: each
 * (src, dst) pair owns a single-producer single-consumer buffer the
 * producer fills during a window and the coordinator flips at the
 * barrier; the consumer drains the flipped side — in a canonical
 * (source shard, send order) sequence — before running its next
 * window. Producers maintain the running minimum arrival tick of the
 * buffered items as they push, so the barrier reads one precomputed
 * Tick per channel instead of rescanning every pending handoff: the
 * per-item work overlaps window execution on the producing thread
 * rather than serializing in the coordinator. All cross-thread
 * handover happens at the barrier, which makes the execution
 * *deterministic by construction*: for a fixed seed, the event orders,
 * clocks and statistics are bit-identical for every worker count and
 * every thread interleaving. Epoch/frontier bookkeeping (in the spirit
 * of timestamp-token frontier tracking) lets the coordinator jump idle
 * stretches: window bounds derive from shard frontiers, never from
 * fixed-size steps, so empty stretches cost one round, not many.
 */

#ifndef TOKENCMP_SIM_SHARDED_KERNEL_HH
#define TOKENCMP_SIM_SHARDED_KERNEL_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tokencmp {

/**
 * Single-producer single-consumer handoff buffer for one directed
 * shard pair, synchronized purely by the window barrier: the producer
 * appends during a window, the coordinator flips sides at the barrier
 * (single-threaded, so it needs no atomics), and the consumer drains
 * the flipped side before its next window. Capacity survives rounds,
 * so steady-state handoff performs no allocation.
 *
 * Each push carries the item's arrival tick so the mailbox can keep a
 * running minimum on the fill side; the coordinator's barrier step
 * then costs O(1) per channel (read `pendingMin()`) instead of
 * rescanning every pending item single-threaded.
 */
template <typename T>
class FlipMailbox
{
  public:
    /** Producer side: append one item arriving at tick `arrival`
     *  (during a window). */
    void
    push(T v, Tick arrival)
    {
        _fill.push_back(std::move(v));
        _fillMin = std::min(_fillMin, arrival);
    }

    /** Coordinator side: expose this round's items to the consumer.
     *  If the previous round's items were never drained (a run stopped
     *  between flip and intake), the new items append behind them, so
     *  per-pair FIFO order survives a stop/resume. */
    void
    flip()
    {
        if (_drain.empty()) {
            std::swap(_fill, _drain);
            _drainMin = _fillMin;
        } else {
            _drain.insert(_drain.end(),
                          std::make_move_iterator(_fill.begin()),
                          std::make_move_iterator(_fill.end()));
            _fill.clear();
            _drainMin = std::min(_drainMin, _fillMin);
        }
        _fillMin = EventQueue::noTick;
    }

    /** Consumer side: items flipped at the last barrier. Use
     *  clearPending() once the items are enqueued. */
    std::vector<T> &pending() { return _drain; }

    /** Earliest arrival tick among pending() items (as reported at
     *  push time); EventQueue::noTick when there are none. */
    Tick pendingMin() const { return _drainMin; }

    /** Consumer side: discard drained items (keeps capacity). */
    void
    clearPending()
    {
        _drain.clear();
        _drainMin = EventQueue::noTick;
    }

    /** Items the producer has buffered for the next flip. */
    std::size_t filled() const { return _fill.size(); }

  private:
    std::vector<T> _fill;
    std::vector<T> _drain;
    Tick _fillMin = EventQueue::noTick;
    Tick _drainMin = EventQueue::noTick;
};

/**
 * Lock-step window executor over per-shard EventQueues.
 *
 * The kernel does not know what a "message" is; model code supplies
 * three hooks:
 *
 *  - onBarrier: runs single-threaded at every window boundary (all
 *    workers parked). Flips the model's mailboxes and lowers
 *    `earliest[d]` to the earliest arrival tick among shard d's
 *    flipped-but-not-yet-enqueued handoffs (entries arrive preset to
 *    EventQueue::noTick). A conservative lower bound is fine: an
 *    overly-early entry just costs a shorter window.
 *  - intake: runs on the owning worker before each shard executes a
 *    window; enqueues the shard's flipped handoffs into its queue.
 *  - stopRequested: polled at each barrier; when it returns true the
 *    run stops with Outcome::Stopped (used by the System's
 *    finish-counter completion check, O(1) per window).
 */
class ShardedKernel
{
  public:
    /** Upper bound on one window's length beyond the global frontier,
     *  so stop requests are polled at a bounded simulated-time cadence
     *  even when every other shard is drained (~1 us simulated). */
    static constexpr Tick maxWindow = Tick(1) << 20;

    /** Why run() returned. */
    enum class Outcome {
        Stopped,  //!< stopRequested() returned true at a barrier
        Drained,  //!< every queue empty and no pending handoffs
        Horizon,  //!< the global frontier moved past the horizon
    };

    struct Hooks
    {
        std::function<void(std::vector<Tick> &earliest)> onBarrier;
        std::function<void(unsigned shard)> intake;
        std::function<bool()> stopRequested;
    };

    /**
     * Every cross-shard interaction takes at least `lookahead` ticks.
     *
     * @param queues    one EventQueue per shard (not owned)
     * @param lookahead minimum cross-shard latency (must be >= 1)
     * @param workers   worker threads; clamped to [1, #shards]. The
     *                  calling thread is worker 0.
     */
    ShardedKernel(std::vector<EventQueue *> queues, Tick lookahead,
                  unsigned workers);

    ShardedKernel(const ShardedKernel &) = delete;
    ShardedKernel &operator=(const ShardedKernel &) = delete;

    void setHooks(Hooks hooks) { _hooks = std::move(hooks); }

    /** Replace just the stop condition (e.g. for a drain phase). */
    void
    setStopRequested(std::function<bool()> stop)
    {
        _hooks.stopRequested = std::move(stop);
    }

    /**
     * Execute windows until a stop request, a global drain, or the
     * first frontier beyond `horizon`. May be called repeatedly; each
     * call spawns and joins its worker threads.
     */
    Outcome run(Tick horizon = EventQueue::noTick);

    unsigned numShards() const { return unsigned(_queues.size()); }
    unsigned workers() const { return _workers; }

    /** Window rounds executed across all run() calls. */
    std::uint64_t windows() const { return _windows; }

    /** Events executed across all shards. */
    std::uint64_t executed() const;

  private:
    void coordinate();      //!< barrier completion step
    void runShardWindow(unsigned s);  //!< one shard's window (worker)

    std::vector<EventQueue *> _queues;
    Tick _la;  //!< minimum cross-shard latency
    unsigned _workers;
    Hooks _hooks;

    // Window state, written by coordinate() between barriers and read
    // by the workers after it (the barrier orders both).
    Tick _horizon = EventQueue::noTick;
    std::vector<Tick> _bounds;    //!< per-shard inclusive run bound
    std::vector<Tick> _pending;   //!< onBarrier scratch: handoff mins
    std::vector<Tick> _frontier;  //!< per-shard effective frontier
    bool _stop = false;
    Outcome _outcome = Outcome::Drained;
    std::uint64_t _windows = 0;
};

/** Printable outcome name. */
const char *outcomeName(ShardedKernel::Outcome o);

} // namespace tokencmp

#endif // TOKENCMP_SIM_SHARDED_KERNEL_HH
