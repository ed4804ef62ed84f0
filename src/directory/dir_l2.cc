#include "directory/dir_l2.hh"

#include <bit>
#include <cstdio>

#include "sim/logging.hh"

namespace tokencmp {

DirL2::DirL2(SimContext &ctx, MachineID id, DirGlobals &g,
             std::uint64_t size_bytes, unsigned assoc)
    : Controller(ctx, id), _array(size_bytes, assoc), g(g)
{
    if (id.type != MachineType::L2Bank)
        panic("DirL2 requires an L2 machine id");
}

ChipState
DirL2::peekChip(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? line->st.chip : ChipState::I;
}

void
DirL2::debugDump() const
{
    auto hdr = [this](Addr a, const char *kind) {
        std::fprintf(stderr, "  %s block %llx: %s",
                     _id.toString().c_str(),
                     static_cast<unsigned long long>(a), kind);
    };
    _home.forEach([&](Addr a, const HomeTxn &t) {
        hdr(a, "HOME");
        std::fprintf(stderr,
                     " isWrite=%d hasData=%d extAcks=%d/%d "
                     "localAcks=%d/%d l1=%s\n",
                     t.isWrite, t.fetch.hasData, t.fetch.acksGot,
                     t.fetch.acksNeeded, t.localAcksGot,
                     t.localAcksNeeded, t.l1Req.toString().c_str());
    });
    _local.forEach([&](Addr a, const LocalTxn &t) {
        hdr(a, "LOCAL");
        std::fprintf(stderr, " isWrite=%d acks=%d/%d waitData=%d\n",
                     t.isWrite, t.acksGot, t.acksNeeded,
                     t.waitingData);
    });
    _ext.forEach([&](Addr a, const ExtSvc &t) {
        hdr(a, "EXT");
        std::fprintf(stderr, " isWrite=%d isInv=%d acks=%d/%d "
                     "waitData=%d\n",
                     t.isWrite, t.isInv, t.acksGot, t.acksNeeded,
                     t.waitingData);
    });
    _wbLocal.forEach([&](Addr a, const WbLocal &t) {
        hdr(a, "WBLOCAL");
        std::fprintf(stderr, " l1=%s\n", t.l1.toString().c_str());
    });
    _wbHome.forEach([&](Addr a, const PendingWb &t) {
        hdr(a, "WBHOME");
        std::fprintf(stderr, " dirty=%d cancelled=%d\n", t.dirty,
                     t.cancelled);
    });
    _deferred.forEach([&](Addr a, const std::vector<Msg> &q) {
        hdr(a, "DEFER");
        for (const Msg &m : q)
            std::fprintf(stderr, " [%s from %s]", msgTypeName(m.type),
                         m.requestor.toString().c_str());
        std::fprintf(stderr, "\n");
    });
}

unsigned
DirL2::l1Slot(const MachineID &id) const
{
    return id.type == MachineType::L1D
               ? id.index
               : ctx.topo.procsPerCmp + id.index;
}

MachineID
DirL2::l1OfSlot(unsigned slot) const
{
    const unsigned p = ctx.topo.procsPerCmp;
    return slot < p ? ctx.topo.l1d(_id.cmp, slot)
                    : ctx.topo.l1i(_id.cmp, slot - p);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

DirL2::Line *
DirL2::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;

    auto idle = [this](const Line &l) {
        return !busyForLocal(_array.tagOf(l));
    };
    Line *victim = _array.victimWhere(addr, [&](const Line &l) {
        return idle(l) && l.st.sharers == 0 && l.st.ownerSlot < 0;
    });
    if (victim == nullptr) {
        // Fall back to a sharers-only line: drop it with
        // fire-and-forget local invalidations; the home tolerates the
        // stale presence bit (a later Inv is acked from state I).
        victim = _array.victimWhere(addr, [&](const Line &l) {
            return idle(l) && l.st.ownerSlot < 0 &&
                   (l.st.chip == ChipState::S ||
                    l.st.chip == ChipState::I);
        });
        if (victim == nullptr) {
            // Every way is pinned by an L1 owner: recall one
            // (inclusion-victim recall) through a side buffer.
            victim = _array.victimWhere(addr, [&](const Line &l) {
                return idle(l) && l.st.ownerSlot >= 0;
            });
            if (victim == nullptr)
                panic("no evictable L2 way at %s",
                      _id.toString().c_str());
            startRecall(victim);
            _array.install(victim, addr);
            return victim;
        }
        if (_array.isValid(*victim) && victim->st.sharers != 0) {
            // Service id 0: the acks are ignored.
            invalidateL1s(_array.tagOf(*victim), victim->st.sharers, 0);
            _array.invalidate(victim);
        }
    }
    if (_array.isValid(*victim))
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
DirL2::startRecall(Line *victim)
{
    const Addr addr = _array.tagOf(*victim);
    const DirL2St st = victim->st;
    _array.invalidate(victim);

    RecallSvc &svc = _recall.get(addr);
    svc.svcId = ++_svcSeq;

    // Pull the data back from the owning L1; when it arrives the
    // block flows home through the ordinary three-phase writeback,
    // whose buffer already serves racing forwards.
    send(dirMsg(MsgType::FwdGetX, addr, l1OfSlot(unsigned(st.ownerSlot)),
                _id, svc.svcId),
         g.params.l2Latency);
}

void
DirL2::startHomeWb(Addr addr, std::uint64_t value, bool dirty)
{
    _wbHome.get(addr) = PendingWb{value, dirty};
    ++stats.wbHomeOut;
    send(PendingWb::request(addr, ctx.topo.homeOf(addr), _id),
         g.params.l2Latency);
}

void
DirL2::invalidateL1s(Addr addr, std::uint8_t slots, MsgSeq svc_id)
{
    Msg inv = dirMsg(MsgType::Inv, addr, MachineID{}, _id, svc_id);
    for (unsigned s = 0; s < 2 * ctx.topo.procsPerCmp; ++s) {
        if (slots & (1u << s)) {
            inv.dst = l1OfSlot(s);
            send(inv, g.params.l2Latency);
        }
    }
}

void
DirL2::evictLine(Line *line)
{
    const Addr addr = _array.tagOf(*line);
    const DirL2St &st = line->st;
    if (st.chip == ChipState::M || st.chip == ChipState::O) {
        if (!st.l2DataValid)
            panic("evicting owner line without data");
        // Three-phase writeback to the home directory.
        startHomeWb(addr, st.value, st.l2Dirty);
    }
    // Chip-S lines are dropped silently at the inter level.
    _array.invalidate(line);
}

void
DirL2::invalidateChipLine(Addr addr, Line *line)
{
    if (_home.find(addr)) {
        // A home transaction still needs the line as its landing slot.
        line->st = DirL2St{};
    } else {
        _array.invalidate(line);
    }
}

// ---------------------------------------------------------------------
// Deferral machinery (per-block busy states, paper Section 2)
// ---------------------------------------------------------------------

void
DirL2::defer(const Msg &m)
{
    ++stats.deferrals;
    _deferred.get(m.addr).push_back(m);
}

void
DirL2::pump(Addr addr)
{
    std::vector<Msg> *q = _deferred.find(addr);
    if (q == nullptr || busyForLocal(addr))
        return;
    const Msg next = q->front();
    q->erase(q->begin());
    if (q->empty())
        _deferred.erase(addr);
    // Re-dispatch from a fresh event to bound recursion, and keep
    // draining: an immediately-granted request creates no busy state,
    // so it must not strand the rest of the queue.
    ctx.eventq.schedule(0, [this, next]() {
        handleMsg(next);
        pump(next.addr);
    });
}

// ---------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------

void
DirL2::handleMsg(const Msg &msg)
{
    const Addr addr = msg.addr;
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
        // FIFO fairness: new requests may not overtake deferred ones.
        if (busyForLocal(addr) || _deferred.find(addr)) {
            defer(msg);
            pump(addr);
            return;
        }
        dispatchLocal(msg);
        return;

      case MsgType::WbRequest:
        onWbRequest(msg);
        return;

      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::Inv:
        startExtSvc(msg);
        return;

      case MsgType::Data:
      case MsgType::DataEx:
        if (msg.src.type == MachineType::Mem ||
            msg.src.cmp != _id.cmp) {
            onHomeData(msg);
        } else {
            onL1Data(msg);
        }
        return;

      case MsgType::AckCount:
        onHomeData(msg);
        return;

      case MsgType::InvAck:
        onInvAck(msg);
        return;

      case MsgType::WbData:
      case MsgType::WbCancel:
        onWbDataOrCancel(msg);
        return;

      case MsgType::WbGrant:
        onWbGrantFromHome(msg);
        return;

      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Local requests
// ---------------------------------------------------------------------

void
DirL2::grantExclusiveLocal(Line *line, const MachineID &l1,
                           bool for_write)
{
    DirL2St &st = line->st;
    ++stats.grants;
    Msg r = dataMsg(true, _array.tagOf(*line), l1, l1, st.value, st.l2Dirty);
    st.ownerSlot = std::int8_t(l1Slot(l1));
    st.sharers = 0;
    st.l2DataValid = false;
    st.chip = ChipState::M;
    if (for_write)
        st.storedHere = true;
    send(std::move(r), g.params.l2Latency);
}

void
DirL2::dispatchLocal(const Msg &m)
{
    const Addr addr = m.addr;
    const bool is_write = m.type == MsgType::GetX;
    Line *line = _array.probe(addr);

    if (is_write)
        ++stats.localGetX;
    else
        ++stats.localGetS;

    if (line == nullptr || line->st.chip == ChipState::I) {
        startHomeTxn(m, line);
        return;
    }
    DirL2St &st = line->st;

    if (!is_write) {
        if (st.ownerSlot >= 0) {
            LocalTxn &t = _local.get(addr);
            t.isWrite = false;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.waitingData = true;
            send(dirMsg(MsgType::FwdGetS, addr,
                        l1OfSlot(unsigned(st.ownerSlot)), m.requestor,
                        t.svcId),
                 g.params.l2Latency);
            return;
        }
        if (!st.l2DataValid)
            panic("chip-valid line without data or owner");
        if (st.chip == ChipState::M && st.sharers == 0) {
            // Clean/dirty exclusive grant on a read.
            grantExclusiveLocal(line, m.requestor, false);
            return;
        }
        ++stats.grants;
        Msg r = dataMsg(false, addr, m.requestor, m.requestor, st.value,
                        false);
        st.sharers |= (1u << l1Slot(m.requestor));
        _array.touch(line);
        send(std::move(r), g.params.l2Latency);
        return;
    }

    // GetX.
    if (st.chip == ChipState::M) {
        if (st.ownerSlot >= 0) {
            LocalTxn &t = _local.get(addr);
            t.isWrite = true;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.waitingData = true;
            send(dirMsg(MsgType::FwdGetX, addr,
                        l1OfSlot(unsigned(st.ownerSlot)), m.requestor,
                        t.svcId),
                 g.params.l2Latency);
            return;
        }
        const std::uint8_t invs =
            st.sharers & ~std::uint8_t(1u << l1Slot(m.requestor));
        if (invs != 0) {
            LocalTxn &t = _local.get(addr);
            t.isWrite = true;
            t.l1Req = m.requestor;
            t.svcId = ++_svcSeq;
            t.acksNeeded = std::popcount(invs);
            invalidateL1s(addr, invs, t.svcId);
            st.sharers &= std::uint8_t(1u << l1Slot(m.requestor));
            return;
        }
        grantExclusiveLocal(line, m.requestor, true);
        return;
    }

    // Chip S or O: the home must invalidate remote sharers.
    startHomeTxn(m, line);
}

void
DirL2::startHomeTxn(const Msg &m, Line *line)
{
    const Addr addr = m.addr;
    const bool is_write = m.type == MsgType::GetX;
    if (line == nullptr)
        line = allocLine(addr);

    HomeTxn &t = _home.get(addr);
    t.isWrite = is_write;
    t.l1Req = m.requestor;
    t.svcId = ++_svcSeq;

    if (is_write) {
        DirL2St &st = line->st;
        if (st.chip == ChipState::O && st.l2DataValid) {
            // Owner upgrade: we may complete on acks alone.
            t.fetch.preset(st.value, st.l2Dirty);
        }
        const std::uint8_t invs =
            st.sharers & ~std::uint8_t(1u << l1Slot(m.requestor));
        if (invs != 0) {
            t.localAcksNeeded = std::popcount(invs);
            invalidateL1s(addr, invs, t.svcId);
            st.sharers &= std::uint8_t(1u << l1Slot(m.requestor));
        }
        ++stats.homeGetX;
    } else {
        ++stats.homeGetS;
    }

    send(dirMsg(m.type, addr, ctx.topo.homeOf(addr), _id),
         g.params.l2Latency);
}

void
DirL2::checkHomeComplete(Addr addr)
{
    HomeTxn *pending = _home.find(addr);
    if (pending == nullptr)
        return;
    HomeTxn &t = *pending;
    if (!t.fetch.ready() || t.localAcksGot < t.localAcksNeeded)
        return;

    Line *line = _array.probe(addr);
    if (line == nullptr)
        panic("home transaction lost its line");
    DirL2St &st = line->st;

    const bool excl = t.isWrite || t.fetch.exclusive;
    st.value = t.fetch.value;
    if (excl) {
        st.chip = ChipState::M;
        st.l2Dirty = t.fetch.dirty;
        st.l2DataValid = false;
        st.sharers = 0;
        st.ownerSlot = std::int8_t(l1Slot(t.l1Req));
        if (t.isWrite)
            st.storedHere = true;
    } else {
        st.chip = ChipState::S;
        st.l2Dirty = false;
        st.l2DataValid = true;
        st.sharers |= (1u << l1Slot(t.l1Req));
    }
    ++stats.grants;
    send(dataMsg(excl, addr, t.l1Req, t.l1Req, t.fetch.value,
                 excl && t.fetch.dirty),
         g.params.l2Latency);
    send(t.fetch.unblock(addr, ctx.topo.homeOf(addr), _id, t.isWrite),
         g.params.l2Latency);
    _array.touch(line);
    _home.erase(addr);
    pump(addr);
}

void
DirL2::onHomeData(const Msg &m)
{
    HomeTxn *pending = _home.find(m.addr);
    if (pending == nullptr)
        panic("%s without home transaction at %s", msgTypeName(m.type),
              _id.toString().c_str());
    pending->fetch.absorb(m);
    checkHomeComplete(m.addr);
}

// ---------------------------------------------------------------------
// Local forwards and acknowledgments
// ---------------------------------------------------------------------

void
DirL2::onL1Data(const Msg &m)
{
    const Addr addr = m.addr;

    LocalTxn *lt = _local.find(addr);
    if (lt != nullptr && lt->svcId == m.reqId) {
        LocalTxn &t = *lt;
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("local transaction lost its line");
        DirL2St &st = line->st;
        const int old_owner = st.ownerSlot;

        ++stats.grants;
        const bool shared = !t.isWrite && m.type == MsgType::Data;
        Msg r = dataMsg(!shared, addr, t.l1Req, t.l1Req, m.value,
                        !shared && m.dirty);
        if (shared) {
            // Owner downgraded; the L2 copy becomes the on-chip
            // authority and both L1s end up sharers.
            st.l2DataValid = true;
            st.l2Dirty = m.dirty;
            st.value = m.value;
            if (old_owner >= 0)
                st.sharers |= (1u << unsigned(old_owner));
            st.ownerSlot = -1;
            st.sharers |= (1u << l1Slot(t.l1Req));
        } else {
            // Migratory read grant or write grant: new exclusive L1.
            st.ownerSlot = std::int8_t(l1Slot(t.l1Req));
            st.sharers = 0;
            st.l2DataValid = false;
            if (t.isWrite)
                st.storedHere = true;
        }
        send(std::move(r), g.params.l2Latency);
        _local.erase(addr);
        pump(addr);
        return;
    }

    const RecallSvc *recall = _recall.find(addr);
    if (recall != nullptr && recall->svcId == m.reqId) {
        // Inclusion-victim recall completed: write the line home.
        _recall.erase(addr);
        startHomeWb(addr, m.value, m.dirty);
        pump(addr);
        return;
    }

    ExtSvc *ext = _ext.find(addr);
    if (ext != nullptr && ext->svcId == m.reqId) {
        ExtSvc &svc = *ext;
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("external service lost its line");
        DirL2St &st = line->st;
        svc.waitingData = false;
        svc.value = m.value;
        svc.dirty = m.dirty;

        if (svc.isWrite || m.type == MsgType::DataEx) {
            // Owner L1 gave up the block (write steal or migratory).
            st.ownerSlot = -1;
            svc.migratory = !svc.isWrite;
        } else {
            // Owner downgraded to S; L2 copy now authoritative.
            if (st.ownerSlot >= 0)
                st.sharers |= (1u << unsigned(st.ownerSlot));
            st.ownerSlot = -1;
            st.l2DataValid = true;
            st.l2Dirty = m.dirty;
            st.value = m.value;
        }
        if (svc.acksGot >= svc.acksNeeded)
            finishExtSvc(addr);
        return;
    }

    panic("%s: unmatched L1 data response", _id.toString().c_str());
}

void
DirL2::onInvAck(const Msg &m)
{
    const Addr addr = m.addr;
    const bool from_remote = m.src.cmp != _id.cmp ||
                             m.src.type == MachineType::Mem;

    if (from_remote) {
        onHomeData(m);
        return;
    }

    // Local ack: route by service id.
    HomeTxn *home = _home.find(addr);
    if (home != nullptr && home->svcId == m.reqId) {
        ++home->localAcksGot;
        checkHomeComplete(addr);
        return;
    }
    LocalTxn *lt = _local.find(addr);
    if (lt != nullptr && lt->svcId == m.reqId) {
        LocalTxn &t = *lt;
        ++t.acksGot;
        if (t.acksGot >= t.acksNeeded && !t.waitingData) {
            Line *line = _array.probe(addr);
            if (line == nullptr)
                panic("local transaction lost its line");
            grantExclusiveLocal(line, t.l1Req, t.isWrite);
            _local.erase(addr);
            pump(addr);
        }
        return;
    }
    ExtSvc *ext = _ext.find(addr);
    if (ext != nullptr && ext->svcId == m.reqId) {
        ExtSvc &svc = *ext;
        ++svc.acksGot;
        if (svc.acksGot >= svc.acksNeeded && !svc.waitingData)
            finishExtSvc(addr);
        return;
    }
    // Ack for a fire-and-forget eviction invalidation: ignore.
}

// ---------------------------------------------------------------------
// Home-forwarded requests (never deferred behind home-bound work)
// ---------------------------------------------------------------------

void
DirL2::startExtSvc(const Msg &m)
{
    const Addr addr = m.addr;

    // Strictly-local work completes without home involvement; defer
    // behind it (bounded, deadlock-free). Never defer behind _home.
    if (_local.find(addr) || _wbLocal.find(addr) ||
        _recall.find(addr)) {
        defer(m);
        return;
    }
    if (_ext.find(addr))
        panic("home forwarded two requests for one block");

    // Block mid-writeback to home: serve from the buffer.
    if (PendingWb *wb = _wbHome.find(addr)) {
        send(wb->reply(m, _id, true), g.params.l2Latency);
        return;
    }

    Line *line = _array.probe(addr);

    if (m.type == MsgType::Inv) {
        ++stats.invsIn;
        if (line == nullptr || line->st.chip == ChipState::I ||
            line->st.sharers == 0) {
            if (line != nullptr)
                invalidateChipLine(addr, line);
            send(invAckMsg(addr, m.requestor, _id), g.params.l2Latency);
            return;
        }
        ExtSvc &svc = _ext.get(addr);
        svc.isInv = true;
        svc.remote = m.requestor;
        svc.svcId = ++_svcSeq;
        svc.acksNeeded = std::popcount(line->st.sharers);
        invalidateL1s(addr, line->st.sharers, svc.svcId);
        line->st.sharers = 0;
        return;
    }

    ++stats.fwdsIn;
    const bool wants_x = m.type == MsgType::FwdGetX;
    if (line == nullptr || line->st.chip == ChipState::I)
        panic("%s: forward but chip holds nothing",
              _id.toString().c_str());
    DirL2St &st = line->st;

    ExtSvc &svc = _ext.get(addr);
    svc.isWrite = wants_x;
    svc.remote = m.requestor;
    svc.fwdAcks = m.acks;
    svc.svcId = ++_svcSeq;

    if (st.ownerSlot >= 0) {
        svc.waitingData = true;
        send(dirMsg(m.type, addr, l1OfSlot(unsigned(st.ownerSlot)),
                    m.requestor, svc.svcId),
             g.params.l2Latency);
        return;
    }

    if (!st.l2DataValid)
        panic("forward to chip without data");
    svc.value = st.value;
    svc.dirty = st.l2Dirty;

    // msg.owner on a FwdGetS means the home saw no other sharers, so
    // a migratory transfer is permitted.
    svc.migratory = !wants_x && g.params.migratory &&
                    st.chip == ChipState::M && st.storedHere &&
                    m.owner;

    const std::uint8_t invs =
        (wants_x || svc.migratory) ? st.sharers : 0;
    if (invs != 0) {
        svc.acksNeeded = std::popcount(invs);
        invalidateL1s(addr, invs, svc.svcId);
        st.sharers = 0;
        return;
    }

    finishExtSvc(addr);
}

void
DirL2::finishExtSvc(Addr addr)
{
    const ExtSvc *pending = _ext.find(addr);
    if (pending == nullptr)
        panic("finishing unknown external service");
    const ExtSvc svc = *pending;
    _ext.erase(addr);

    Line *line = _array.probe(addr);
    if (svc.isInv) {
        if (line != nullptr)
            invalidateChipLine(addr, line);
        send(invAckMsg(addr, svc.remote, _id), g.params.l2Latency);
    } else {
        // Exclusive handoff (write or migratory), or a shared forward
        // after which we remain the owner chip.
        const bool exclusive = svc.isWrite || svc.migratory;
        Msg r = dataMsg(exclusive, addr, svc.remote, svc.remote, svc.value,
                        exclusive && svc.dirty);
        r.acks = svc.fwdAcks;
        if (!exclusive) {
            if (line != nullptr)
                line->st.chip = ChipState::O;
        } else {
            if (svc.migratory)
                ++stats.migratoryChip;
            if (line != nullptr)
                invalidateChipLine(addr, line);
            // A pending upgrade just lost its data.
            if (HomeTxn *t = _home.find(addr))
                t->fetch.hasData = false;
        }
        send(std::move(r), g.params.l2Latency);
    }
    pump(addr);
}

// ---------------------------------------------------------------------
// Writebacks
// ---------------------------------------------------------------------

void
DirL2::onWbRequest(const Msg &m)
{
    const Addr addr = m.addr;
    if (busyForLocal(addr)) {
        defer(m);
        return;
    }
    _wbLocal.get(addr).l1 = m.requestor;
    send(dirMsg(MsgType::WbGrant, addr, m.requestor, m.requestor),
         g.params.l2Latency);
}

void
DirL2::onWbDataOrCancel(const Msg &m)
{
    const Addr addr = m.addr;
    if (_wbLocal.find(addr) == nullptr)
        panic("writeback data without grant window");
    ++stats.wbLocalIn;

    if (m.type == MsgType::WbData) {
        Line *line = _array.probe(addr);
        if (line == nullptr)
            panic("local writeback to missing line");
        DirL2St &st = line->st;
        st.ownerSlot = -1;
        st.l2DataValid = true;
        if (m.hasData) {
            st.value = m.value;
            st.l2Dirty = true;
        }
        _array.touch(line);
    }
    _wbLocal.erase(addr);
    pump(addr);
}

void
DirL2::onWbGrantFromHome(const Msg &m)
{
    const Addr addr = m.addr;
    const PendingWb *pending = _wbHome.find(addr);
    if (pending == nullptr)
        panic("home WbGrant without pending writeback");
    const PendingWb wb = *pending;
    _wbHome.erase(addr);
    send(wb.grantReply(addr, ctx.topo.homeOf(addr), _id),
         g.params.l2Latency);
    pump(addr);
}

} // namespace tokencmp
