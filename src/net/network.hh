/**
 * @file
 * Interconnect model for the M-CMP target (paper Table 3).
 *
 * Three physical levels:
 *  - intra-CMP: directly-connected on-chip crossbar, 2 ns, 64 GB/s per
 *    source port;
 *  - inter-CMP: directly-connected global links, 20 ns (including
 *    interface, wire and synchronization), 16 GB/s per directed pair;
 *  - memory links: 20 ns off-chip link between each CMP and its memory
 *    controller.
 *
 * A message from one cache to another on the same chip traverses one
 * intra segment; a cross-chip cache-to-cache message traverses one
 * inter segment (the 20 ns figure subsumes the chip interfaces); a
 * message to/from a remote memory controller traverses an inter segment
 * plus the destination's memory link. Bandwidth is modeled per link with
 * store-and-forward serialization, producing queueing under load.
 *
 * Delivery is one pooled DeliverEvent per message: no closure or heap
 * allocation per hop, and every arrival takes its own (tick, seq) slot
 * in the event queue, so the delivery order is exactly the send order
 * within a tick.
 *
 * A protocol fan-out is one multicast(): the same link traversal,
 * arrival ticks, traffic bytes, message count and event keys as one
 * send() per destination in order. Two things make it cheaper:
 *
 *  - Closed-form on-chip routing. When the sender is a cache and every
 *    destination is a cache on its own chip (the token transient
 *    request, the L2's relay of an external one, hier's recall Inv),
 *    all n copies leave back to back through the sender's one intra
 *    port: copy i arrives at start + (i+1)*ser + lat with start =
 *    max(now + delay, port.nextFree), and the port's nextFree
 *    advances by n*ser (without bandwidth modelling every copy
 *    arrives at now + delay + lat). Bytes and the message count are
 *    added once, and the n event keys are reserved at once
 *    (EventQueue::reserveSeqs), so copy i's key is the seq its own
 *    scheduleEvent() would have drawn. Every other fan-out
 *    (escalations, persistent broadcasts) routes copy by copy.
 *
 *  - Parking. The sender passes a park mask: bit i parks copy i, a
 *    copy its same-domain destination would ignore on arrival (the
 *    token family's transient requests and relays, and hier's recall
 *    Inv, set it for L1s its per-CMP holder mask says hold neither
 *    tokens nor valid data for the block). A fan-out with parked
 *    copies appends one record to its domain's FIFO: the Msg, the
 *    mask of copies still parked, the fan-out's destinations, and its
 *    keys in closed form (copy i at firstWhen + i*step, seq base + i;
 *    a copy-by-copy route parks each copy in a record of its own). No
 *    event is scheduled for a parked copy. When a destination's
 *    state changes so that it could act on such a copy, it calls
 *    wake(), which schedules its copies for the block still ahead of
 *    the running event at their reserved (tick, seq) keys and drops
 *    the ones already behind it. A record retires once the clock
 *    passes its last parked key. Execution order is therefore
 *    exactly the order of eager delivery; only the no-op events are
 *    gone. Parked copies count as sent but are neither in flight nor
 *    delivery wakeups.
 *
 * Sharded delivery (shard()): when the System runs the sharded kernel,
 * every CMP is one shard *domain* with its own EventQueue and
 * DomainState (delivery pool, traffic counters), so domains share no
 * mutable state inside a window. Same-CMP messages deliver exactly as
 * in serial mode; a cross-CMP message is computed to its final arrival
 * tick on source-owned links, stamped with a canonical band-1 key
 * (source domain, send sequence), and handed to the destination
 * domain through a per-(src, dst) FlipMailbox. The destination drains
 * its inboxes at the window boundary and schedules each handoff at its
 * key, so the delivery order is independent of worker count.
 *
 * Every link a sender crosses belongs to the sender's CMP — the
 * directed inter-CMP links included — except a remote CMP's memory
 * ingress link. That one splits into one *virtual channel per source
 * CMP* when sharded, each with the full link bandwidth, so the sender
 * still owns every link on its path and knows the final arrival tick
 * at send time. Serial runs keep one shared ingress link per CMP.
 *
 * Every cross-domain message crosses an inter-CMP link, so the
 * sharded kernel windows on one uniform lookahead: the inter-CMP
 * latency plus, with bandwidth modeled, the serialization of the
 * smallest (control) message on that link.
 *
 * The network also owns the Figure 7 traffic accounting: bytes per
 * (level, traffic class), kept per domain and summed on read.
 */

#ifndef TOKENCMP_NET_NETWORK_HH
#define TOKENCMP_NET_NETWORK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/machine.hh"
#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_kernel.hh"
#include "sim/types.hh"

namespace tokencmp {

class Controller;
class Network;

/** Link latencies and bandwidths (paper Table 3 defaults). */
struct NetworkParams
{
    Tick intraLatency = ns(2);
    double intraBytesPerNs = 64.0;  //!< 64 GB/s
    Tick interLatency = ns(20);
    double interBytesPerNs = 16.0;  //!< 16 GB/s
    Tick memLinkLatency = ns(20);
    double memLinkBytesPerNs = 16.0;
    bool modelBandwidth = true;     //!< serialize on link bandwidth
};

/** Physical network levels for traffic accounting. */
enum class NetLevel : std::uint8_t { Intra, Inter, MemLink, NumLevels };

/** Printable name of a network level. */
const char *netLevelName(NetLevel l);

/** Pooled arrival event: one wakeup hands one message to one
 *  controller. */
class DeliverEvent final : public Event
{
  public:
    DeliverEvent() = default;

    void process() override;
    void release() override;

  private:
    friend class Network;

    Network *_net = nullptr;
    Controller *_dst = nullptr;
    unsigned _domIdx = 0;  //!< owning delivery domain
    Msg _msg;
};

/**
 * The interconnect: routes messages between registered controllers,
 * modeling latency, per-link bandwidth and per-class traffic counters.
 */
class Network
{
  public:
    Network(EventQueue &eq, const Topology &topo,
            const NetworkParams &params);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Attach a controller; must be called before any send() to it. */
    void registerController(Controller *c);

    /**
     * Enter sharded-delivery mode with one domain per CMP: CMP c
     * delivers through `queues[c]`. Must be called before any
     * traffic; `queues[0]` must be the queue the network was
     * constructed with. Splits every CMP's memory ingress link into
     * per-source-CMP virtual channels.
     */
    void shard(const std::vector<EventQueue *> &queues);

    /** True once shard() has installed multiple domains. */
    bool sharded() const { return _eqs.size() > 1; }

    unsigned numDomains() const { return unsigned(_eqs.size()); }

    /**
     * Minimum latency of any cross-domain message, the sharded
     * kernel's window lookahead: the inter-CMP latency plus, with
     * bandwidth modeled, one control message's serialization on the
     * inter-CMP link (20.5 ns on Table 3, 20 ns without bandwidth).
     */
    Tick
    lookahead() const
    {
        return _p.interLatency +
               (_p.modelBandwidth ? _serInter.control() : 0);
    }

    // -- Sharded-kernel hooks (see ShardedKernel::Hooks) -------------

    /**
     * Flip every cross-domain mailbox (single-threaded, at the window
     * barrier) and lower `earliest[d]` to the earliest handoff arrival
     * now pending for domain d; the per-item minima were accumulated
     * by the producers at push time, so this scan is O(1) per channel.
     */
    void flipMailboxes(std::vector<Tick> &earliest);

    /**
     * Drain `domain`'s flipped inboxes in canonical (source domain,
     * send order) sequence: each handoff is enqueued at its band-1
     * key, so the delivery order is a pure function of the
     * execution — never of worker count or barrier timing.
     */
    void intakeMailboxes(unsigned domain);

    /**
     * Send a message after `sender_delay` ticks of local processing
     * (the sender's tag/directory access latency).
     */
    void send(const Msg &msg, Tick sender_delay = 0);

    /**
     * Send one copy of `msg` to each of `dsts`, in order: identical to
     * one send() per destination (duplicates included), except that
     * copy i is parked rather than scheduled when bit i of `park_mask`
     * is set (see the file comment). A nonzero mask requires at most
     * 64 destinations, and every parked copy's destination must be in
     * the sender's domain.
     */
    void multicast(const Msg &msg, const std::vector<MachineID> &dsts,
                   Tick sender_delay = 0, std::uint64_t park_mask = 0);

    /**
     * `id` may now act on messages for `addr`'s block: schedule its
     * parked copies for the block that are keyed after the running
     * event, at their reserved keys, and drop the ones keyed before
     * it. Must run on `id`'s own domain.
     */
    void wake(const MachineID &id, Addr addr);

    /** Messages currently in flight (for quiescence detection). Sums
     *  per-domain counters, so call it only while no domain runs. */
    std::uint64_t inFlight() const;

    /** Total messages ever sent. */
    std::uint64_t totalMessages() const;

    /** Delivery events fired (one per delivered message). */
    std::uint64_t deliveryWakeups() const;

    /** Always 0: every message is its own delivery event. Kept only
     *  for readers of the old batching statistic. */
    std::uint64_t batchedMessages() const { return 0; }

    /** Bytes moved on a level for one traffic class. */
    std::uint64_t bytes(NetLevel level, TrafficClass cls) const;

    /** Bytes moved on a level across all classes. */
    std::uint64_t bytesByLevel(NetLevel level) const;

    /** Reset traffic statistics (not link occupancy). */
    void clearStats();

    const Topology &topology() const { return _topo; }

    /** Domain 0's queue (the construction queue; the only one in
     *  serial mode). */
    EventQueue &eventQueue() { return *_eqs.front(); }

  private:
    friend class DeliverEvent;

    /** Occupancy of one serializing link (or virtual channel). */
    struct Link
    {
        Tick nextFree = 0;
    };

    /** A message crossing a domain boundary: its final arrival tick
     *  (every link on the path is source-owned, so the sender computes
     *  it completely) and its canonical band-1 delivery key. */
    struct Handoff
    {
        Msg msg;
        Tick tick = 0;
        std::uint64_t key = 0;
    };

    /**
     * One fan-out's parked copies. Copy i of the fan-out would have
     * arrived at firstWhen + i * step under key seqBase + i, at
     * parkedDsts[dstsAt + i]; bit i of `parked` is set while it is
     * still parked (a copy-by-copy route parks each copy in a record
     * of its own, with one destination).
     */
    struct ParkRecord
    {
        Msg msg;
        std::uint64_t seqBase = 0;
        Tick firstWhen = 0;
        Tick step = 0;
        std::uint64_t parked = 0;
        Tick lastWhen = 0;          //!< latest parked key: once the
        std::uint64_t lastSeq = 0;  //!< clock passes it, retire
        std::uint32_t dstsAt = 0;
    };

    /** Retired records at which retireParked() compacts the FIFOs. */
    static constexpr std::size_t kParkedCompactAt = 256;

    /** Keyed at or before `eq`'s running event: already due. */
    static bool
    behind(Tick when, std::uint64_t seq, const EventQueue &eq)
    {
        return when < eq.curTick() ||
               (when == eq.curTick() && seq <= eq.curSeq());
    }

    /** Mutable delivery state owned by exactly one domain, on cache
     *  lines of its own so domains running concurrently never write
     *  the same line. */
    struct alignas(64) DomainState
    {
        EventPool<DeliverEvent> pool;
        std::uint64_t inFlight = 0;
        /** Handoffs this domain pushed into a mailbox minus those it
         *  took in: negative on a pure receiver, and summed over the
         *  domains it counts the handoffs not yet enqueued. */
        std::int64_t handoffs = 0;
        std::uint64_t totalMsgs = 0;
        std::uint64_t wakeups = 0;
        std::uint64_t sendSeq = 0;  //!< band-1 key source
        /** Parked fan-outs in send order; those before `parkedHead`
         *  are retired. Their destination lists sit in `parkedDsts`. */
        std::vector<ParkRecord> parked;
        std::vector<MachineID> parkedDsts;
        std::size_t parkedHead = 0;
        std::array<std::array<std::uint64_t,
                              unsigned(TrafficClass::NumClasses)>,
                   unsigned(NetLevel::NumLevels)>
            bytes{};
    };

    /**
     * Advance a message across one link.
     *
     * @param link     the link's occupancy state
     * @param earliest when the message is ready to enter the link
     * @param latency  propagation latency
     * @param ser      store-and-forward serialization time (from the
     *                 per-level SerTicks table — never recomputed on
     *                 the per-message path)
     * @return arrival time at the far end
     */
    Tick
    traverse(Link &link, Tick earliest, Tick latency, Tick ser)
    {
        if (!_p.modelBandwidth)
            return earliest + latency;
        const Tick start = std::max(earliest, link.nextFree);
        link.nextFree = start + ser;
        return start + ser + latency;
    }

    /**
     * Serialization ticks for the two wire shapes on one level,
     * indexed by Msg::hasData. Precomputed once from the level's
     * bytes/ns with the same rounding send() used to apply per
     * message — the double divide + llround this replaces was a
     * measurable slice of every hop.
     */
    struct SerTicks
    {
        Tick byShape[2] = {0, 0};  //!< [0] control 8B, [1] data 72B
        Tick of(const Msg &m) const { return byShape[m.hasData]; }
        Tick control() const { return byShape[0]; }
    };

    static SerTicks serTicks(double bytes_per_ns);

    void account(NetLevel level, const Msg &msg, unsigned domain);

    /** Traverse every link on `msg`'s path from sender domain `sd`,
     *  accounting its bytes; returns the arrival tick. */
    Tick route(const Msg &msg, Tick sender_delay, unsigned sd);

    /** Hand a routed message to its destination: scheduled at `when`
     *  on its own domain, or mailboxed across domains. */
    void deliver(const Msg &msg, Tick when, unsigned sd);

    /** True when `src` is a cache and every one of `dsts` is another
     *  cache on its chip: the fan-out routes in closed form. */
    static bool onChip(const MachineID &src,
                       const std::vector<MachineID> &dsts);

    /** Record the copies `mask` names of the fan-out of `msg` to
     *  dsts[0, n): copy i at (first + i * step, seq_base + i). */
    void parkCopies(DomainState &ds, const EventQueue &eq, const Msg &msg,
                    const MachineID *dsts, std::size_t n, Tick first,
                    Tick step, std::uint64_t seq_base, std::uint64_t mask);

    /** Retire the records whose last parked key the clock has passed. */
    void retireParked(DomainState &ds, const EventQueue &eq);

    /** A delivery event for `msg`, drawn from `domain`'s pool and
     *  counted in flight; the caller schedules it. */
    DeliverEvent *makeDelivery(const Msg &msg, unsigned domain);

    /** Domain that owns a controller: its CMP when sharded. */
    unsigned
    domain(const MachineID &id) const
    {
        return sharded() ? id.cmp : 0;
    }

    /** The directed inter-CMP link scmp -> dcmp. */
    Link &
    interLink(unsigned scmp, unsigned dcmp)
    {
        return _interLinks[scmp * _topo.numCmps + dcmp];
    }

    FlipMailbox<Handoff> &
    mailbox(unsigned src, unsigned dst)
    {
        return _mail[src * numDomains() + dst];
    }

    /** Virtual channel of a CMP's memory ingress link for one source
     *  domain — source-owned like the inter-CMP links, so a sender
     *  can finish the whole path (and know the final arrival tick) at
     *  send time. */
    Link &
    memIngressLink(unsigned cmp, unsigned src_domain)
    {
        return _memIngress[cmp * numDomains() + src_domain];
    }

    Topology _topo;
    NetworkParams _p;

    /** Per-level serialization ticks, indexed by Msg::hasData. */
    SerTicks _serIntra, _serInter, _serMem;

    std::vector<Controller *> _controllers;       //!< by global index
    std::vector<Link> _intraPorts;                //!< per source port
    std::vector<Link> _intraGateways;             //!< inbound, per CMP
    std::vector<Link> _interLinks;  //!< per (src CMP, dst CMP)
    std::vector<Link> _memEgress;   //!< mem -> CMP, per CMP
    std::vector<Link> _memIngress;  //!< CMP -> mem, per CMP x src domain

    std::vector<EventQueue *> _eqs;   //!< per-domain queues ({&_eq} serial)
    std::vector<DomainState> _dom;    //!< per-domain delivery state
    std::vector<FlipMailbox<Handoff>> _mail;  //!< numDomains^2 channels
};

} // namespace tokencmp

#endif // TOKENCMP_NET_NETWORK_HH
