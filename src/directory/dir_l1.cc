#include "directory/dir_l1.hh"

#include "sim/logging.hh"

namespace tokencmp {

DirL1::DirL1(SimContext &ctx, MachineID id, DirGlobals &g,
             std::uint64_t size_bytes, unsigned assoc)
    : Controller(ctx, id), _array(size_bytes, assoc), g(g)
{
    if (id.type != MachineType::L1D && id.type != MachineType::L1I)
        panic("DirL1 requires an L1 machine id");
}

L1State
DirL1::peekState(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? line->st.state : L1State::I;
}

// ---------------------------------------------------------------------
// CPU interface
// ---------------------------------------------------------------------

void
DirL1::cpuRequest(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    if (_id.type == MachineType::L1I && req.op != MemOp::Ifetch)
        panic("non-fetch op at L1I");
    if (_txns.find(addr))
        panic("duplicate outstanding miss at %s", _id.toString().c_str());

    // A block mid-writeback: replay the request when the writeback
    // completes (bounded three-phase exchange).
    if (_wb.find(addr)) {
        _wbWaiters.get(addr).push_back(req);
        return;
    }

    Line *line = _array.probe(addr);
    const bool is_write = isWriteOp(req.op);

    if (line != nullptr && line->st.state != L1State::I) {
        DirL1St &st = line->st;
        const bool hit =
            is_write ? (st.state == L1State::M || st.state == L1State::E)
                     : true;
        if (hit) {
            ++stats.hits;
            _array.touch(line);
            std::uint64_t old = st.value;
            if (is_write) {
                applyWrite(line, req, old);
            }
            const Tick lat = g.machine.l1Latency;
            auto cb = req.callback;
            ctx.eventq.schedule(lat, [cb, old, lat]() {
                cb(MemResult{old, lat});
            });
            return;
        }
    }

    ++stats.misses;
    startMiss(req);
}

void
DirL1::applyWrite(Line *line, const MemRequest &req, std::uint64_t &old)
{
    DirL1St &st = line->st;
    const bool was_exclusive =
        st.state == L1State::M || st.state == L1State::E;
    old = st.value;
    st.value =
        req.op == MemOp::Atomic ? req.rmw(old) : req.operand;
    st.state = L1State::M;  // silent E->M upgrade on stores
    st.dirty = true;
    st.locallyStored = true;
    // The response-delay window protects a critical section from its
    // acquisition; a plain store *hit* (typically the release) must
    // not extend it and delay the handoff.
    if (req.op == MemOp::Atomic || !was_exclusive)
        st.holdUntil = ctx.now() + g.machine.responseDelay;
}

void
DirL1::startMiss(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    Txn &txn = _txns.get(addr);
    txn.req = req;
    txn.isWrite = isWriteOp(req.op);

    if (txn.isWrite)
        ++stats.getX;
    else
        ++stats.getS;
    send(dirMsg(txn.isWrite ? MsgType::GetX : MsgType::GetS, addr,
                myL2(addr), _id),
         g.machine.l1Latency);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

DirL1::Line *
DirL1::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victimWhere(addr, [this](const Line &l) {
        const Addr tag = _array.tagOf(l);
        return !_txns.find(tag) && !_wb.find(tag);
    });
    if (victim == nullptr)
        panic("all L1 ways pinned at %s", _id.toString().c_str());
    if (_array.isValid(*victim))
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
DirL1::evictLine(Line *line)
{
    const Addr addr = _array.tagOf(*line);
    const DirL1St &st = line->st;
    if (st.state == L1State::M || st.state == L1State::E) {
        // Three-phase writeback: ask permission, keep answering
        // forwards from the buffered copy until granted.
        _wb.get(addr) = PendingWb{st.value, st.dirty};
        ++stats.writebacks;
        send(PendingWb::request(addr, myL2(addr), _id),
             g.machine.l1Latency);
    }
    // S lines are dropped silently; the intra directory tolerates
    // stale sharer bits (spurious Invs are acked from state I).
    _array.invalidate(line);
}

void
DirL1::complete(Addr addr, std::uint64_t value)
{
    const Txn *txn = _txns.find(addr);
    if (txn == nullptr)
        panic("completing unknown transaction");
    const MemRequest req = txn->req;
    _txns.erase(addr);
    MemResult res;
    res.value = value;
    res.latency = ctx.now() - req.issued;
    req.callback(res);
}

// ---------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------

void
DirL1::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::Data:
        onData(msg, false);
        return;
      case MsgType::DataEx:
        onData(msg, true);
        return;
      case MsgType::Inv:
        onInv(msg);
        return;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        onFwd(msg, false);
        return;
      case MsgType::WbGrant:
        onWbGrant(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
DirL1::onData(const Msg &m, bool exclusive)
{
    const Addr addr = m.addr;
    Txn *pending = _txns.find(addr);
    if (pending == nullptr)
        panic("data response without transaction at %s",
              _id.toString().c_str());
    Txn &txn = *pending;

    Line *line = allocLine(addr);
    DirL1St &st = line->st;
    st.value = m.value;

    std::uint64_t old = st.value;
    if (txn.isWrite) {
        if (!exclusive)
            panic("write transaction got a shared response");
        applyWrite(line, txn.req, old);
    } else if (exclusive) {
        // Migratory or clean-exclusive grant on a read.
        st.state = m.dirty ? L1State::M : L1State::E;
        st.dirty = m.dirty;
    } else {
        st.state = L1State::S;
        st.dirty = false;
    }
    complete(addr, old);
}

void
DirL1::onInv(const Msg &m)
{
    ++stats.invsServed;
    Line *line = _array.probe(m.addr);
    if (line != nullptr) {
        if (line->st.state == L1State::M ||
            line->st.state == L1State::E) {
            panic("Inv delivered to an exclusive holder at %s",
                  _id.toString().c_str());
        }
        _array.invalidate(line);
    }
    send(invAckMsg(m.addr, m.src, _id, m.reqId), g.machine.l1Latency);
}

void
DirL1::onFwd(const Msg &m, bool force)
{
    const Addr addr = m.addr;
    const bool wants_exclusive = m.type == MsgType::FwdGetX;

    // Forwards to a block mid-writeback are served from the buffer.
    if (PendingWb *wb = _wb.find(addr)) {
        ++stats.fwdsServed;
        send(wb->reply(m, _id, false), g.machine.l1Latency);
        return;
    }

    Line *line = _array.probe(addr);
    if (line == nullptr || line->st.state == L1State::I ||
        line->st.state == L1State::S) {
        panic("%s: forward but not exclusive holder",
              _id.toString().c_str());
    }
    DirL1St &st = line->st;

    // Response-delay window: finish the critical section first
    // (bounded, so this cannot deadlock).
    if (!force && st.holdUntil > ctx.now()) {
        const Msg deferred = m;
        ctx.eventq.scheduleAbs(st.holdUntil, [this, deferred]() {
            onFwd(deferred, true);
        });
        return;
    }

    ++stats.fwdsServed;
    // Migratory sharing hands the reader read/write permission.
    const bool migrate = !wants_exclusive && g.machine.migratory &&
                         st.state == L1State::M && st.locallyStored;
    // Data routes through the L2 (the intra-CMP directory).
    Msg r = dataMsg(wants_exclusive || migrate, addr, m.src, m.requestor,
                    st.value, st.dirty);
    r.reqId = m.reqId;
    if (wants_exclusive || migrate) {
        if (migrate)
            ++stats.migratorySends;
        _array.invalidate(line);
    } else {
        // Downgrade; the L2 copy becomes the on-chip authority.
        st.state = L1State::S;
        st.dirty = false;
        st.locallyStored = false;
    }
    send(std::move(r), g.machine.l1Latency);
}

void
DirL1::onWbGrant(const Msg &m)
{
    const Addr addr = m.addr;
    const PendingWb *pending = _wb.find(addr);
    if (pending == nullptr)
        panic("WbGrant without a pending writeback");
    const PendingWb wb = *pending;
    _wb.erase(addr);

    if (wb.cancelled)
        ++stats.wbCancels;
    send(wb.grantReply(addr, m.src, _id), g.machine.l1Latency);

    // Replay any CPU requests that arrived during the writeback.
    if (std::vector<MemRequest> *waiters = _wbWaiters.find(addr)) {
        const std::vector<MemRequest> queued = std::move(*waiters);
        _wbWaiters.erase(addr);
        for (const MemRequest &req : queued)
            cpuRequest(req);
    }
}

} // namespace tokencmp
