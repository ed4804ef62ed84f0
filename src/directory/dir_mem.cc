#include "directory/dir_mem.hh"

#include <bit>

#include "sim/logging.hh"

namespace tokencmp {

DirMem::DirMem(SimContext &ctx, MachineID id, DirGlobals &g)
    : Controller(ctx, id), g(g)
{
    if (id.type != MachineType::Mem)
        panic("DirMem requires a Mem machine id");
}

DirState
DirMem::peekState(Addr addr) const
{
    const Entry *e = _dir.find(addr);
    return e == nullptr ? DirState::Uncached : e->state;
}

bool
DirMem::quiescent() const
{
    bool idle = _deferred.size() == 0;
    _dir.forEach([&idle](Addr, const Entry &e) { idle = idle && !e.busy; });
    return idle;
}

void
DirMem::handleMsg(const Msg &msg)
{
    Entry &e = _dir.get(msg.addr);
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::WbRequest:
        if (e.busy) {
            ++stats.deferrals;
            _deferred.get(msg.addr).push_back(msg);
            return;
        }
        dispatch(msg, e);
        return;

      case MsgType::Unblock:
      case MsgType::UnblockEx:
        onUnblock(msg, e);
        return;

      case MsgType::WbData:
      case MsgType::WbCancel:
        onWbData(msg, e);
        return;

      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
DirMem::dispatch(const Msg &m, Entry &e)
{
    e.busy = true;
    switch (m.type) {
      case MsgType::GetS:
        onGetS(m, e);
        return;
      case MsgType::GetX:
        onGetX(m, e);
        return;
      case MsgType::WbRequest:
        onWbRequest(m, e);
        return;
      default:
        panic("bad dispatch");
    }
}

void
DirMem::release(Addr addr, Entry &e)
{
    e.busy = false;
    std::vector<Msg> *q = _deferred.find(addr);
    if (q == nullptr)
        return;
    const Msg next = q->front();
    q->erase(q->begin());
    if (q->empty())
        _deferred.erase(addr);
    ctx.eventq.schedule(0, [this, next]() { handleMsg(next); });
}

void
DirMem::sendInvs(Addr addr, Entry &e, std::uint8_t targets,
                 const MachineID &collector)
{
    Msg inv = dirMsg(MsgType::Inv, addr, MachineID{}, collector);
    for (unsigned c = 0; c < ctx.topo.numCmps; ++c) {
        if (targets & (1u << c)) {
            inv.dst = ctx.topo.l2BankFor(c, addr);
            send(inv, dispatchLat(false));
            ++stats.invalidations;
        }
    }
    e.presence &= ~targets;
}

void
DirMem::onGetS(const Msg &m, Entry &e)
{
    ++stats.getS;
    const Addr addr = blockAlign(m.addr);

    switch (e.state) {
      case DirState::Uncached:
      case DirState::Shared:
        // Uncached: an exclusive-clean grant (MOESI E) to the sole
        // requester.
        ++stats.memResponses;
        send(dataMsg(e.state == DirState::Uncached, addr, m.requestor,
                     m.requestor, _store.read(addr), false),
             dispatchLat(true));
        return;
      case DirState::Owned:
      case DirState::Modified: {
        // Sharing miss: the indirection TokenCMP avoids.
        ++stats.forwards;
        Msg f = dirMsg(MsgType::FwdGetS, addr,
                       ctx.topo.l2BankFor(unsigned(e.ownerCmp), addr),
                       m.requestor);
        // Migratory transfer permitted only with no other sharers.
        f.owner = e.presence == 0;
        send(std::move(f), dispatchLat(false));
        return;
      }
    }
}

void
DirMem::onGetX(const Msg &m, Entry &e)
{
    ++stats.getX;
    const Addr addr = blockAlign(m.addr);
    const unsigned req_cmp = m.requestor.cmp;
    const std::uint8_t req_bit = std::uint8_t(1u << req_cmp);

    switch (e.state) {
      case DirState::Uncached:
      case DirState::Shared: {
        // Memory supplies the data. An Uncached block has no sharers
        // (presence 0), so it sends no Invs and expects no acks.
        const std::uint8_t invs = e.presence & ~req_bit;
        sendInvs(addr, e, invs, m.requestor);
        ++stats.memResponses;
        Msg r = dataMsg(true, addr, m.requestor, m.requestor,
                        _store.read(addr), false);
        r.acks = std::popcount(invs);
        send(std::move(r), dispatchLat(true));
        return;
      }
      case DirState::Owned:
      case DirState::Modified: {
        if (unsigned(e.ownerCmp) == req_cmp) {
            // Owner upgrade: acks only, no data.
            const std::uint8_t invs = e.presence & ~req_bit;
            sendInvs(addr, e, invs, m.requestor);
            Msg a = dirMsg(MsgType::AckCount, addr, m.requestor,
                           m.requestor);
            a.acks = std::popcount(invs);
            send(std::move(a), dispatchLat(false));
            return;
        }
        const std::uint8_t invs = e.presence & ~req_bit;
        sendInvs(addr, e, invs, m.requestor);
        ++stats.forwards;
        Msg f = dirMsg(MsgType::FwdGetX, addr,
                       ctx.topo.l2BankFor(unsigned(e.ownerCmp), addr),
                       m.requestor);
        f.acks = std::popcount(invs);
        send(std::move(f), dispatchLat(false));
        return;
      }
    }
}

void
DirMem::onUnblock(const Msg &m, Entry &e)
{
    if (!e.busy)
        panic("unblock while not busy");
    const unsigned req_cmp = m.requestor.cmp;

    if (m.type == MsgType::UnblockEx) {
        e.state = DirState::Modified;
        e.ownerCmp = std::int8_t(req_cmp);
        e.presence = 0;
    } else {
        e.presence |= std::uint8_t(1u << req_cmp);
        e.state = e.ownerCmp >= 0 ? DirState::Owned : DirState::Shared;
    }

    // Directory update occupies the controller briefly before the
    // next deferred request dispatches.
    ctx.eventq.schedule(g.machine.memCtrlLatency, [this, addr = m.addr]() {
        release(addr, _dir.get(addr));
    });
}

void
DirMem::onWbRequest(const Msg &m, Entry &e)
{
    (void)e;
    send(dirMsg(MsgType::WbGrant, m.addr, m.requestor, m.requestor),
         dispatchLat(false));
}

void
DirMem::onWbData(const Msg &m, Entry &e)
{
    if (!e.busy)
        panic("writeback data while not busy");

    if (m.type == MsgType::WbCancel) {
        ++stats.writebacksCancelled;
    } else {
        ++stats.writebacks;
        const unsigned src_cmp = m.src.cmp;
        if (m.hasData)
            _store.write(m.addr, m.value);
        if (e.ownerCmp == std::int8_t(src_cmp)) {
            e.ownerCmp = -1;
            e.state = e.presence != 0 ? DirState::Shared
                                      : DirState::Uncached;
        } else {
            // Stale writeback from a chip that lost ownership; drop.
            e.presence &= ~std::uint8_t(1u << src_cmp);
        }
    }

    ctx.eventq.schedule(g.machine.memCtrlLatency, [this, addr = m.addr]() {
        release(addr, _dir.get(addr));
    });
}

} // namespace tokencmp
