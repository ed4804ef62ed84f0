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
 * Sharded delivery (shard()): when the System runs the sharded kernel,
 * the machine decomposes into shard *domains* under an arbitrary
 * controller-to-domain map (per CMP, per L1 bank, or explicit — see
 * SystemConfig::shardMap). Each domain owns an EventQueue and one
 * DomainState (delivery pool, traffic counters),
 * so domains share no mutable state inside a window. Same-domain
 * messages deliver exactly as in serial mode; a cross-domain message
 * is computed to its final arrival tick on source-owned links, stamped
 * with a canonical band-1 key (source domain, send sequence), and
 * handed to the destination domain through a per-(src, dst)
 * FlipMailbox. The destination drains its inboxes at the window
 * boundary and schedules each handoff at its key, so the
 * delivery order is independent of worker count.
 *
 * Because a sub-CMP map places several domains on one chip, each
 * directed inter-CMP link splits into *per-source-domain virtual
 * channels*: one Link occupancy record per (src CMP, dst CMP, src
 * domain), so co-located domains never serialize through — or race
 * on — a shared occupancy word. Each virtual channel sees the full
 * link bandwidth (the standard conservative-PDES decomposition
 * compromise); with one domain per CMP, or in serial mode, exactly one
 * channel per link exists and the model is unchanged. Under this
 * regime every link's occupancy is touched by exactly one domain and
 * the execution is deterministic for any worker count.
 *
 * The minimum latency between each ordered pair of domains forms the
 * *lookahead matrix* the sharded kernel windows on: 2 ns between
 * domains sharing a chip, 20 ns chip-to-chip, 22/40 ns through memory
 * links — so the conservative window only shrinks to 2 ns for pairs
 * that actually share a crossbar.
 *
 * The network also owns the Figure 7 traffic accounting: bytes per
 * (level, traffic class), kept per domain and summed on read.
 */

#ifndef TOKENCMP_NET_NETWORK_HH
#define TOKENCMP_NET_NETWORK_HH

#include <algorithm>
#include <array>
#include <atomic>
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

    /**
     * Derive the sharded lookahead matrix from per-message-type
     * minimum wire sizes: each link on a (src, dst) path contributes
     * its latency plus the serialization of the smallest message the
     * protocol vocabulary allows between those machine types (8-byte
     * control vs 72-byte data), instead of latency alone. Widens every
     * conservative window when bandwidth is modeled; no effect on
     * serial runs or on message timing itself.
     */
    bool typeAwareLookahead = true;
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
     * Enter sharded-delivery mode under an arbitrary shard map:
     * `domain_of[i]` is the shard domain of the controller with
     * global index i (every value < `queues.size()`), and domain d
     * delivers through `queues[d]`. Must be called before any
     * traffic; `queues[0]` must be the queue the network was
     * constructed with. Splits every inter-CMP link into per-source-
     * domain virtual channels and computes the (src, dst) lookahead
     * matrix.
     */
    void shard(const std::vector<EventQueue *> &queues,
               const std::vector<unsigned> &domain_of);

    /** True once shard() has installed multiple domains. */
    bool sharded() const { return _eqs.size() > 1; }

    unsigned numDomains() const { return unsigned(_eqs.size()); }

    /**
     * Row-major numDomains()^2 (src, dst) lookahead matrix for the
     * sharded kernel ({noTick} in serial mode): entry (s, d) is the
     * minimum latency of any message path from a controller in s to
     * a controller in d (EventQueue::noTick when no such path
     * exists). Intra-CMP pairs bottom out at the 2 ns crossbar
     * latency, cross-CMP pairs at the 20 ns global link.
     */
    const std::vector<Tick> &lookaheadMatrix() const
    {
        return _lookahead;
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

    /** Messages currently in flight (for quiescence detection). */
    std::uint64_t inFlight() const;

    /** Total messages ever sent. */
    std::uint64_t totalMessages() const;

    /** Delivery events fired (one per delivered message). */
    std::uint64_t deliveryWakeups() const;

    /** Always 0: every message is its own delivery event. Kept only
     *  for readers of the old batching statistic. */
    std::uint64_t batchedMessages() const { return 0; }

    /** Messages that crossed a shard mailbox (0 in serial mode). */
    std::uint64_t handoffs() const
    {
        return _handoffsTotal.load(std::memory_order_relaxed);
    }

    /** Occupancy snapshot of one outbound inter-CMP virtual channel. */
    struct LinkOccupancy
    {
        Tick busyTicks = 0;  //!< cumulative serialization time
        Tick backlog = 0;    //!< ticks until the channel frees again
        Tick now = 0;        //!< the owning domain's current tick
    };

    /**
     * Occupancy of the outbound inter-CMP virtual channel
     * src.cmp -> dst_cmp owned by `src`'s shard domain — the raw
     * occupancy feed for bandwidth-adaptive performance policies.
     * Deterministic under sharding: reads only link state the
     * caller's own domain owns. Zeroes (with the current tick) when
     * the CMPs coincide or bandwidth modeling is off.
     */
    LinkOccupancy interOccupancy(const MachineID &src,
                                 unsigned dst_cmp) const;

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
        Tick busy = 0;  //!< cumulative serialization (busy) time
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

    /** Mutable delivery state owned by exactly one domain. */
    struct DomainState
    {
        EventPool<DeliverEvent> pool;
        std::uint64_t inFlight = 0;
        std::uint64_t totalMsgs = 0;
        std::uint64_t wakeups = 0;
        std::uint64_t sendSeq = 0;  //!< band-1 key source
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
        link.busy += ser;
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

    /** A delivery event for `msg`, drawn from `domain`'s pool and
     *  counted in flight; the caller schedules it. */
    DeliverEvent *makeDelivery(const Msg &msg, unsigned domain);

    /** Domain that owns a controller under the installed shard map. */
    unsigned
    domainOf(const MachineID &id) const
    {
        return sharded() ? _ctrlDomain[_topo.globalIndex(id)] : 0;
    }

    /** Virtual channel of a directed inter-CMP link for one source
     *  domain (the only channel in serial / one-domain-per-CMP use). */
    const Link &
    interLink(unsigned scmp, unsigned dcmp, unsigned src_domain) const
    {
        return _interLinks[(scmp * _topo.numCmps + dcmp) * _numVC +
                           src_domain];
    }

    Link &
    interLink(unsigned scmp, unsigned dcmp, unsigned src_domain)
    {
        return const_cast<Link &>(
            static_cast<const Network *>(this)->interLink(
                scmp, dcmp, src_domain));
    }

    FlipMailbox<Handoff> &
    mailbox(unsigned src, unsigned dst)
    {
        return _mail[src * numDomains() + dst];
    }

    /** Virtual channel of a CMP's memory ingress link for one source
     *  domain — source-owned like the inter-CMP channels, so a sender
     *  can finish the whole path (and know the final arrival tick) at
     *  send time. */
    Link &
    memIngressLink(unsigned cmp, unsigned src_domain)
    {
        return _memIngress[cmp * _numVC + src_domain];
    }

    /**
     * Minimum time any message can take between two controllers
     * (EventQueue::noTick for invalid pairs, e.g. mem-to-mem). Sums
     * per-link latency; with typeAwareLookahead and modeled bandwidth
     * it also adds each link's minimum serialization, derived from the
     * smallest wire size the message vocabulary admits between the two
     * machine types (minWireBytes).
     */
    Tick minPathDelta(const MachineID &src, const MachineID &dst) const;

    /** Fill _lookahead from the shard map (called by shard()). */
    void buildLookaheadMatrix();

    Topology _topo;
    NetworkParams _p;

    /** Per-level serialization ticks, indexed by Msg::hasData. */
    SerTicks _serIntra, _serInter, _serMem;

    std::vector<Controller *> _controllers;       //!< by global index
    std::vector<Link> _intraPorts;                //!< per source port
    std::vector<Link> _intraGateways;             //!< inbound, per CMP
    std::vector<Link> _interLinks;  //!< (src CMP, dst CMP) x src domain
    std::vector<Link> _memEgress;   //!< mem -> CMP, per CMP
    std::vector<Link> _memIngress;  //!< CMP -> mem, per CMP x src domain

    std::vector<EventQueue *> _eqs;   //!< per-domain queues ({&_eq} serial)
    std::vector<DomainState> _dom;    //!< per-domain delivery state
    std::vector<FlipMailbox<Handoff>> _mail;  //!< numDomains^2 channels
    std::vector<unsigned> _ctrlDomain;  //!< controller -> domain
    std::vector<Tick> _lookahead;       //!< numDomains^2 (src, dst)
    unsigned _numVC = 1;  //!< virtual channels per inter-CMP link

    /** Handoffs pushed but not yet enqueued at a destination; relaxed
     *  increments/decrements from domain workers, read at barriers. */
    std::atomic<std::uint64_t> _mailboxed{0};
    std::atomic<std::uint64_t> _handoffsTotal{0};
};

} // namespace tokencmp

#endif // TOKENCMP_NET_NETWORK_HH
