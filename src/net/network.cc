#include "net/network.hh"

#include <algorithm>
#include <cmath>

#include "net/controller.hh"
#include "sim/logging.hh"

namespace tokencmp {

const char *
netLevelName(NetLevel l)
{
    switch (l) {
      case NetLevel::Intra: return "intra";
      case NetLevel::Inter: return "inter";
      case NetLevel::MemLink: return "memlink";
      case NetLevel::NumLevels: break;
    }
    return "?";
}

void
DeliverEvent::process()
{
    ++_net->_dom[_domIdx].wakeups;
    _dst->handleMsg(_msg);
}

void
DeliverEvent::release()
{
    // Runs after process(), and also when the queue drops the event
    // unfired (EventQueue::reset()/releaseAll()): either way the
    // message has left the network.
    Network::DomainState &ds = _net->_dom[_domIdx];
    --ds.inFlight;
    ds.pool.recycle(this);
}

Network::Network(EventQueue &eq, const Topology &topo,
                 const NetworkParams &params)
    : _topo(topo), _p(params)
{
    _serIntra = serTicks(_p.intraBytesPerNs);
    _serInter = serTicks(_p.interBytesPerNs);
    _serMem = serTicks(_p.memLinkBytesPerNs);
    _eqs.assign(1, &eq);
    _controllers.assign(_topo.numControllers(), nullptr);
    _intraPorts.assign(_topo.numControllers(), Link{});
    _intraGateways.assign(_topo.numCmps, Link{});
    _interLinks.assign(_topo.numCmps * _topo.numCmps, Link{});
    _memEgress.assign(_topo.numCmps, Link{});
    _memIngress.assign(_topo.numCmps, Link{});
    _dom = std::vector<DomainState>(1);
}

Network::~Network()
{
    // Pending DeliverEvents recycle into per-domain pools that die
    // with this object; retire exactly our own events from every
    // domain queue (other owners' events stay scheduled), so teardown
    // no longer depends on the System destroying queue and network
    // together.
    auto mine = [this](const Event &e) {
        const auto *d = dynamic_cast<const DeliverEvent *>(&e);
        return d != nullptr && d->_net == this;
    };
    for (EventQueue *eq : _eqs)
        eq->releaseAll(mine);
}

void
Network::registerController(Controller *c)
{
    const unsigned idx = _topo.globalIndex(c->id());
    if (_controllers.at(idx) != nullptr)
        panic("duplicate controller registration: %s",
              c->id().toString().c_str());
    _controllers[idx] = c;
}

void
Network::shard(const std::vector<EventQueue *> &queues)
{
    if (queues.size() != _topo.numCmps)
        panic("shard: %zu domain queues for %u CMPs", queues.size(),
              _topo.numCmps);
    if (queues[0] != _eqs.front())
        panic("shard: domain 0 must keep the construction queue");
    if (totalMessages() != 0 || inFlight() != 0)
        panic("shard after traffic started");

    _eqs = queues;
    _dom = std::vector<DomainState>(_eqs.size());
    _mail = std::vector<FlipMailbox<Handoff>>(_eqs.size() *
                                              _eqs.size());
    // Split every CMP's memory ingress link into one virtual channel
    // per source CMP, so every path is traversed entirely by its
    // sender.
    _memIngress.assign(_topo.numCmps * numDomains(), Link{});
}

Network::SerTicks
Network::serTicks(double bytes_per_ns)
{
    // Same arithmetic the per-message path used to run per hop, done
    // once per level at construction — identical rounding, identical
    // link timing.
    SerTicks s;
    s.byShape[0] = static_cast<Tick>(std::llround(
        double(kControlBytes) * double(ticksPerNs) / bytes_per_ns));
    s.byShape[1] = static_cast<Tick>(std::llround(
        double(kDataBytes) * double(ticksPerNs) / bytes_per_ns));
    return s;
}

void
Network::account(NetLevel level, const Msg &msg, unsigned domain)
{
    _dom[domain].bytes[unsigned(level)][unsigned(msg.trafficClass())] +=
        msg.size();
}

void
Network::send(const Msg &msg, Tick sender_delay)
{
    if (msg.src == msg.dst)
        panic("message to self: %s at %s", msgTypeName(msg.type),
              msg.src.toString().c_str());

    const bool src_is_mem = msg.src.type == MachineType::Mem;
    const bool dst_is_mem = msg.dst.type == MachineType::Mem;
    const unsigned scmp = msg.src.cmp;
    const unsigned dcmp = msg.dst.cmp;
    const unsigned sd = domain(msg.src);
    const unsigned dd = domain(msg.dst);

    // The sender executes on its own domain; every link below is
    // source-owned (the home memory ingress through its per-source
    // virtual channel).
    Tick t = _eqs[sd]->curTick() + sender_delay;
    const Tick ser_intra = _serIntra.of(msg);
    const Tick ser_inter = _serInter.of(msg);
    const Tick ser_mem = _serMem.of(msg);

    if (src_is_mem) {
        // Off the memory controller onto its CMP...
        t = traverse(_memEgress[scmp], t, _p.memLinkLatency, ser_mem);
        account(NetLevel::MemLink, msg, sd);
        if (dst_is_mem)
            panic("memory-to-memory message");
        if (scmp != dcmp) {
            t = traverse(interLink(scmp, dcmp), t,
                         _p.interLatency, ser_inter);
            account(NetLevel::Inter, msg, sd);
        } else {
            // Home CMP delivery crosses the on-chip network.
            t = traverse(_intraGateways[dcmp], t, _p.intraLatency,
                         ser_intra);
            account(NetLevel::Intra, msg, sd);
        }
    } else if (dst_is_mem) {
        if (scmp != dcmp) {
            t = traverse(interLink(scmp, dcmp), t,
                         _p.interLatency, ser_inter);
            account(NetLevel::Inter, msg, sd);
        } else {
            t = traverse(_intraPorts[_topo.globalIndex(msg.src)], t,
                         _p.intraLatency, ser_intra);
            account(NetLevel::Intra, msg, sd);
        }
        // The home memory ingress link is a per-source-domain virtual
        // channel, so even a remote sender finishes the whole path —
        // the arrival tick below is final.
        t = traverse(memIngressLink(dcmp, sd), t, _p.memLinkLatency,
                     ser_mem);
        account(NetLevel::MemLink, msg, sd);
    } else if (scmp == dcmp) {
        // On-chip cache-to-cache hop.
        t = traverse(_intraPorts[_topo.globalIndex(msg.src)], t,
                     _p.intraLatency, ser_intra);
        account(NetLevel::Intra, msg, sd);
    } else {
        // Cross-chip cache-to-cache: the 20 ns inter link subsumes the
        // chip interfaces (Table 3).
        t = traverse(interLink(scmp, dcmp), t, _p.interLatency,
                     ser_inter);
        account(NetLevel::Inter, msg, sd);
    }

    ++_dom[sd].totalMsgs;

    if (sd != dd) {
        // The canonical delivery key: (source domain, send order).
        const Handoff h{msg, t, handoffKey(sd, _dom[sd].sendSeq++)};
        _mailboxed.fetch_add(1, std::memory_order_relaxed);
        mailbox(sd, dd).push(h, t);
        return;
    }
    _eqs[dd]->scheduleEvent(makeDelivery(msg, dd), t);
}

DeliverEvent *
Network::makeDelivery(const Msg &msg, unsigned domain)
{
    Controller *dst = _controllers.at(_topo.globalIndex(msg.dst));
    if (dst == nullptr)
        panic("message to unregistered controller %s",
              msg.dst.toString().c_str());

    DomainState &ds = _dom[domain];
    ++ds.inFlight;
    DeliverEvent *d = ds.pool.acquire();
    d->_net = this;
    d->_dst = dst;
    d->_domIdx = domain;
    d->_msg = msg;
    return d;
}

void
Network::flipMailboxes(std::vector<Tick> &earliest)
{
    const unsigned n = numDomains();
    for (unsigned src = 0; src < n; ++src) {
        for (unsigned dst = 0; dst < n; ++dst) {
            FlipMailbox<Handoff> &mb = _mail[src * n + dst];
            mb.flip();
            earliest[dst] = std::min(earliest[dst], mb.pendingMin());
        }
    }
}

void
Network::intakeMailboxes(unsigned domain)
{
    const unsigned n = numDomains();
    for (unsigned src = 0; src < n; ++src) {
        FlipMailbox<Handoff> &mb = mailbox(src, domain);
        for (const Handoff &h : mb.pending()) {
            _eqs[domain]->scheduleKeyed(makeDelivery(h.msg, domain),
                                        h.tick, h.key);
            _mailboxed.fetch_sub(1, std::memory_order_relaxed);
        }
        mb.clearPending();
    }
}

Network::LinkOccupancy
Network::interOccupancy(const MachineID &src, unsigned dst_cmp) const
{
    LinkOccupancy o;
    o.now = _eqs[domain(src)]->curTick();
    if (!_p.modelBandwidth || src.cmp == dst_cmp)
        return o;
    const Link &l = _interLinks[src.cmp * _topo.numCmps + dst_cmp];
    o.busyTicks = l.busy;
    o.backlog = l.nextFree > o.now ? l.nextFree - o.now : 0;
    return o;
}

std::uint64_t
Network::inFlight() const
{
    std::uint64_t sum = _mailboxed.load(std::memory_order_relaxed);
    for (const DomainState &d : _dom)
        sum += d.inFlight;
    return sum;
}

std::uint64_t
Network::totalMessages() const
{
    std::uint64_t sum = 0;
    for (const DomainState &d : _dom)
        sum += d.totalMsgs;
    return sum;
}

std::uint64_t
Network::deliveryWakeups() const
{
    std::uint64_t sum = 0;
    for (const DomainState &d : _dom)
        sum += d.wakeups;
    return sum;
}

std::uint64_t
Network::bytes(NetLevel level, TrafficClass cls) const
{
    std::uint64_t sum = 0;
    for (const DomainState &d : _dom)
        sum += d.bytes[unsigned(level)][unsigned(cls)];
    return sum;
}

std::uint64_t
Network::bytesByLevel(NetLevel level) const
{
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < unsigned(TrafficClass::NumClasses); ++c)
        sum += bytes(level, TrafficClass(c));
    return sum;
}

void
Network::clearStats()
{
    for (DomainState &d : _dom) {
        for (auto &lvl : d.bytes)
            lvl.fill(0);
        d.totalMsgs = 0;
        d.wakeups = 0;
    }
}

} // namespace tokencmp
