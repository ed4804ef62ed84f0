#include "hier/hier_shim.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

HierShim::HierShim(SimContext &ctx, MachineID id, TokenGlobals &tg,
                   unsigned residency_cap)
    : TokenController(ctx, id, tg), _residencyCap(residency_cap),
      _arbiter(*this,
               [this](Addr, std::vector<MachineID> &out) {
                   localL1Targets(this->ctx.topo, _id.cmp, _id, out);
               },
               tg.machine.l2Latency)
{
    if (id.type != MachineType::L2Bank)
        panic("HierShim requires an L2 machine id");
}

HierShim::Blk &
HierShim::ensureBlock(Addr addr)
{
    bool inserted = false;
    Blk &b = _blocks.get(addr, &inserted);
    if (inserted) {
        // The CMP's private token space materializes here: all T
        // tokens (and the owner token) at the shim, but *no* data —
        // data authority at chip I is the home store, reached by a
        // directory fetch.
        b.tokens = g.params.totalTokens;
        b.owner = true;
        g.auditor.initBlock(addr);
    }
    return b;
}

int
HierShim::tokensHeld(Addr addr) const
{
    const Blk *b = _blocks.find(addr);
    return b == nullptr ? -1 : b->tokens;
}

bool
HierShim::ownerHeld(Addr addr) const
{
    const Blk *b = _blocks.find(addr);
    return b != nullptr && b->owner;
}

ChipState
HierShim::peekChip(Addr addr) const
{
    const Blk *b = _blocks.find(addr);
    return b == nullptr ? ChipState::I : b->chip;
}

bool
HierShim::quiescent() const
{
    bool idle = _wb.size() == 0;
    _blocks.forEach([&idle](Addr, const Blk &b) {
        idle = idle && !b.fetching && !b.extPending &&
               b.recall == Recall::None;
    });
    return idle;
}

void
HierShim::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onLocalTransient(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onTokensIn(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistDeactivate:
        ensureBlock(msg.addr);
        handlePersistTableMsg(msg);
        return;
      case MsgType::PersistArbRequest:
        ensureBlock(msg.addr);
        _arbiter.onRequest(msg);
        return;
      case MsgType::PersistArbDone:
        _arbiter.onDone(msg);
        return;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::Inv:
        startExternal(msg);
        return;
      case MsgType::Data:
      case MsgType::DataEx:
      case MsgType::AckCount:
        onHomeData(msg);
        return;
      case MsgType::InvAck:
        onInvAck(msg);
        return;
      case MsgType::WbGrant:
        onWbGrant(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Intra half: transient serving (TokenMem role, gated by chip rights)
// ---------------------------------------------------------------------

void
HierShim::onLocalTransient(const Msg &m)
{
    if (m.requestor.cmp != _id.cmp)
        panic("%s: transient from remote CMP", _id.toString().c_str());
    Blk &b = ensureBlock(m.addr);
    if (ptable.activeFor(m.addr) >= 0)
        return;  // tokens are reserved for the persistent winner
    const Addr addr = blockAlign(m.addr);
    if (b.recall != Recall::None || b.extPending || _wb.find(addr))
        return;  // external request first; the L1 will retry

    const bool is_write = m.type == MsgType::TokWriteReq;

    switch (b.chip) {
      case ChipState::I:
        // No chip rights: trigger a directory fetch, stay silent.
        startFetch(addr, b, m.requestor, is_write);
        return;
      case ChipState::S:
      case ChipState::O:
        if (is_write) {
            // Upgrade to M before any token that could complete a
            // write leaves the shim (anchor invariant).
            startFetch(addr, b, m.requestor, true);
            return;
        }
        serveLocal(addr, b, m.requestor, false);
        return;
      case ChipState::M:
        serveLocal(addr, b, m.requestor, is_write);
        return;
    }
}

bool
HierShim::serveLocal(Addr addr, Blk &b, const MachineID &requestor,
                     bool is_write)
{
    int tokens;
    bool owner = false;
    if (b.chip == ChipState::M) {
        // Full TokenMem semantics: the chip owns the block outright.
        if (is_write) {
            if (b.tokens == 0 && !b.owner)
                return false;
            if (b.owner && !b.validData)
                panic("chip-M owner token without data at shim");
            tokens = b.tokens;
            owner = b.owner;
            b.chipStored = true;
        } else {
            if (!b.owner || b.tokens == 0)
                return false;  // some local L1 owns; it will serve
            if (!b.validData)
                panic("chip-M owner token without data at shim");
            tokens = b.tokens == g.params.totalTokens
                         ? b.tokens
                         : std::min(g.params.cTokens, b.tokens);
            owner = tokens == b.tokens;
        }
    } else if (b.chip == ChipState::S || b.chip == ChipState::O) {
        // Anchor invariant: the owner token never leaves below M, so
        // only plain tokens (plus a data copy) may be handed out.
        if (is_write || b.tokens < 2)
            return false;
        if (!b.owner || !b.validData)
            panic("chip-%s shim lost its anchor",
                  chipStateName(b.chip));
        tokens = std::min(g.params.cTokens, b.tokens - 1);
    } else {
        return false;
    }

    ++stats.localServes;
    // Data rides with the owner token and with every read grant.
    giveTokens(b, MsgType::TokResponse, addr, requestor, tokens, owner,
               owner || !is_write, g.machine.l2Latency);
    return true;
}

void
HierShim::onTokensIn(const Msg &m)
{
    Blk &b = ensureBlock(m.addr);
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    if (m.owner && !m.hasData)
        panic("owner token arrived at shim without data");
    absorbTokens(b, m);
    if (b.recall != Recall::None)
        checkRecallDone(blockAlign(m.addr), b);
    onPersistentTableChange(m.addr);
}

void
HierShim::onPersistentTableChange(Addr addr)
{
    const int active = ptable.activeFor(addr);
    if (active < 0)
        return;
    const auto &entry = ptable.entry(unsigned(active));

    Blk *found = _blocks.find(addr);
    if (found == nullptr)
        return;
    Blk &b = *found;
    // While servicing an external request the shim is a pure token
    // sink; completion re-invokes this hook.
    if (b.recall != Recall::None || b.extPending || _wb.find(addr))
        return;

    if (b.chip == ChipState::I) {
        // The persistent winner needs rights the chip does not hold.
        startFetch(blockAlign(addr), b, entry.initiator,
                   !entry.isRead);
        return;
    }

    const Tick lat = g.machine.l2Latency;
    if (b.chip == ChipState::M) {
        // Memory-role plan: give everything (chip M may shed the
        // owner token).
        if (givePersistent(b, blockAlign(addr), entry, false, lat) &&
            !entry.isRead) {
            b.chipStored = true;
        }
        return;
    }

    // Chip S/O: the anchor (owner token) stays; spare plain tokens
    // flow, and a persistent *read* is additionally owed data — even
    // with no spare token to carry it (sibling L1s supply the tokens,
    // only the shim holds the chip's authoritative copy).
    if (!b.owner || !b.validData)
        panic("chip-%s shim lost its anchor", chipStateName(b.chip));
    const int spare = b.tokens - 1;
    if (entry.isRead) {
        const bool served = b.prServedPrio == std::uint8_t(active) &&
                            b.prServedSeq == entry.seq;
        if (spare <= 0 && served)
            return;
        b.prServedPrio = std::uint8_t(active);
        b.prServedSeq = entry.seq;
        giveTokens(b, MsgType::TokResponse, blockAlign(addr),
                   entry.initiator, std::max(spare, 0), false, true, lat);
        return;
    }
    // Persistent write: shed spare tokens, upgrade for the rest.
    if (spare > 0) {
        giveTokens(b, MsgType::TokResponse, blockAlign(addr),
                   entry.initiator, spare, false, false, lat);
    }
    startFetch(blockAlign(addr), b, entry.initiator, true);
}

// ---------------------------------------------------------------------
// Inter half: home fetches (the DirL2 home-transaction role)
// ---------------------------------------------------------------------

void
HierShim::startFetch(Addr addr, Blk &b, const MachineID &demand,
                     bool is_write)
{
    if (b.fetching || _wb.find(addr) || b.extPending ||
        b.recall != Recall::None) {
        return;  // one outstanding; demand re-arrives via retries
    }
    b.fetching = true;
    b.fetch = HomeFetch{};
    b.fetchFor = demand;
    b.fetchForWrite = is_write;
    b.fetchForValid = true;

    // An owner upgrade may complete on an AckCount alone.
    if (b.chip == ChipState::O)
        b.fetch.preset(b.value, b.dirty);

    ++stats.fetches;
    send(dirMsg(is_write ? MsgType::GetX : MsgType::GetS, addr,
                ctx.topo.homeOf(addr), _id),
         g.machine.l2Latency);
}

void
HierShim::onHomeData(const Msg &m)
{
    Blk &b = ensureBlock(m.addr);
    if (!b.fetching)
        panic("%s: home response without fetch",
              _id.toString().c_str());
    if (b.recall != Recall::None || b.extPending)
        panic("home response while servicing an external request");
    b.fetch.absorb(m);
    checkFetchComplete(blockAlign(m.addr), b);
}

void
HierShim::onInvAck(const Msg &m)
{
    if (m.src.cmp == _id.cmp && m.src.type != MachineType::Mem)
        panic("local InvAck at shim (recalls use token responses)");
    Blk &b = ensureBlock(m.addr);
    if (!b.fetching)
        panic("%s: InvAck without fetch", _id.toString().c_str());
    b.fetch.absorb(m);
    checkFetchComplete(blockAlign(m.addr), b);
}

void
HierShim::checkFetchComplete(Addr addr, Blk &b)
{
    if (!b.fetching || !b.fetch.ready())
        return;
    const bool excl = b.fetch.exclusive || b.fetchForWrite;
    const bool upgrade = b.chip != ChipState::I;
    b.fetching = false;

    // The shim holds the intra owner token in every fetch-start state
    // (I, S and O all anchor it), so it is the intra data authority:
    // adopt the fetched value.
    if (!b.owner)
        panic("fetch completed without the intra owner token home");
    b.value = b.fetch.value;
    b.validData = true;
    b.dirty = b.fetch.dirty;
    if (excl) {
        b.chip = ChipState::M;
        if (b.fetchForWrite)
            b.chipStored = true;
    } else {
        b.chip = ChipState::S;
    }
    if (upgrade)
        ++stats.fetchUpgrades;

    send(b.fetch.unblock(addr, ctx.topo.homeOf(addr), _id,
                         b.fetchForWrite),
         g.machine.l2Latency);

    becomeResident(addr, b);

    // Serve the demand that triggered the fetch without waiting for a
    // retry round; a persistent winner outranks it.
    const MachineID demand = b.fetchFor;
    const bool demand_write = b.fetchForWrite;
    const bool demand_valid = b.fetchForValid;
    b.fetchForValid = false;
    if (ptable.activeFor(addr) >= 0)
        onPersistentTableChange(addr);
    else if (demand_valid)
        serveLocal(addr, b, demand, demand_write);

    maybeEvict(addr);
}

// ---------------------------------------------------------------------
// External directory requests (Fwd-GetS/GetX, Inv) and token recalls
// ---------------------------------------------------------------------

void
HierShim::startExternal(const Msg &m)
{
    const Addr addr = blockAlign(m.addr);
    Blk &b = ensureBlock(addr);

    switch (m.type) {
      case MsgType::Inv:     ++stats.extInvs; break;
      case MsgType::FwdGetS: ++stats.extFwdGetS; break;
      default:               ++stats.extFwdGetX; break;
    }

    // Mid-writeback: serve from the buffer.
    if (PendingWb *wb = _wb.find(addr)) {
        send(wb->reply(m, _id, true), g.machine.l2Latency);
        return;
    }

    if (b.extPending)
        panic("home forwarded two requests for one block");
    b.ext = m;
    b.extPending = true;
    tryFinishExternal(addr, b);
}

void
HierShim::tryFinishExternal(Addr addr, Blk &b)
{
    const Msg m = b.ext;
    const int total = g.params.totalTokens;

    if (m.type == MsgType::Inv) {
        if (b.chip == ChipState::M || b.chip == ChipState::O)
            panic("home invalidated the owner chip");
        if (b.tokens != total) {
            startRecall(addr, b, Recall::Full);
            return;
        }
        // All intra tokens home (always true at chip I): ack and drop.
        b.extPending = false;
        b.chip = ChipState::I;
        b.validData = false;
        b.dirty = false;
        b.chipStored = false;
        leaveResident(b);
        send(invAckMsg(addr, m.requestor, _id), g.machine.l2Latency);
        onPersistentTableChange(addr);
        return;
    }

    if (b.chip == ChipState::I)
        panic("%s: forward but chip holds nothing",
              _id.toString().c_str());

    if (m.type == MsgType::FwdGetS) {
        // m.owner = home saw no other sharers (migratory permitted).
        const bool mig = g.machine.migratory && m.owner &&
                         b.chip == ChipState::M && b.chipStored;
        if (!mig) {
            if (!b.owner || !b.validData) {
                startRecall(addr, b, Recall::Down);
                return;
            }
            b.extPending = false;
            b.chip = ChipState::O;
            // Clean: we keep the dirty owner copy (O).
            Msg r = dataMsg(false, addr, m.requestor, m.requestor,
                            b.value, false);
            r.acks = m.acks;
            send(std::move(r), g.machine.l2Latency);
            onPersistentTableChange(addr);
            return;
        }
        if (b.tokens != total) {
            startRecall(addr, b, Recall::Full);
            return;
        }
        ++stats.migratoryChip;
        // Fall through to the exclusive handoff below.
    } else if (b.tokens != total) {  // FwdGetX
        startRecall(addr, b, Recall::Full);
        return;
    }

    // Exclusive handoff (Fwd-GetX or migratory Fwd-GetS): all intra
    // tokens are home, so the shim's copy is the chip's only one.
    if (!b.owner || !b.validData)
        panic("exclusive handoff without data at shim");
    b.extPending = false;
    Msg r = dataMsg(true, addr, m.requestor, m.requestor, b.value,
                    b.dirty);
    r.acks = m.acks;
    b.chip = ChipState::I;
    b.validData = false;
    b.dirty = false;
    b.chipStored = false;
    leaveResident(b);
    // A pending owner upgrade just lost its data: the home will
    // answer the demoted GetX with a full DataEx instead.
    if (b.fetching)
        b.fetch.hasData = false;
    send(std::move(r), g.machine.l2Latency);
    onPersistentTableChange(addr);
}

void
HierShim::startRecall(Addr addr, Blk &b, Recall kind)
{
    b.recall = kind;
    if (kind == Recall::Full)
        ++stats.recallsFull;
    else
        ++stats.recallsDown;
    broadcastRecall(addr, kind);
    scheduleRecallRetry(addr, b.recallGen);
}

void
HierShim::broadcastRecall(Addr addr, Recall kind)
{
    Msg inv = dirMsg(MsgType::Inv, addr, MachineID{}, _id);
    inv.isRead = (kind == Recall::Down);
    // Copies to L1s holding neither tokens nor data for the block
    // park: they would be no-ops (HierL1::onRecall).
    const std::vector<MachineID> &l1s = g.chipL1s(_id.cmp);
    multicast(inv, l1s, g.machine.l2Latency,
              g.parkMask(_id.cmp, addr, l1s));
}

void
HierShim::scheduleRecallRetry(Addr addr, std::uint64_t gen)
{
    // Deterministic sweep: tokens that persistent-table forwarding
    // keeps routing to a local initiator (the paper's external-inv vs
    // in-flight-persistent race) are re-collected every period; each
    // round strictly grows the shim's sink, so the recall converges.
    const Tick period =
        4 * (g.machine.l1Latency + g.machine.l2Latency);
    ctx.eventq.schedule(period, [this, addr, gen]() {
        const Blk *found = _blocks.find(addr);
        if (found == nullptr)
            return;
        const Blk &b = *found;
        if (b.recall == Recall::None || b.recallGen != gen)
            return;
        ++stats.recallRebroadcasts;
        broadcastRecall(addr, b.recall);
        scheduleRecallRetry(addr, gen);
    });
}

void
HierShim::checkRecallDone(Addr addr, Blk &b)
{
    if (b.recall == Recall::Full) {
        if (b.tokens != g.params.totalTokens)
            return;
    } else {
        if (!b.owner || !b.validData)
            return;
    }
    b.recall = Recall::None;
    ++b.recallGen;
    if (!b.extPending)
        panic("recall completed without an external request");
    tryFinishExternal(addr, b);
}

// ---------------------------------------------------------------------
// Residency cap and chip-level writebacks
// ---------------------------------------------------------------------

void
HierShim::becomeResident(Addr addr, Blk &b)
{
    if (b.inLru)
        return;
    b.inLru = true;
    _lru.push_back(addr);
    ++_resident;
}

void
HierShim::leaveResident(Blk &b)
{
    if (!b.inLru)
        return;
    b.inLru = false;
    --_resident;
}

void
HierShim::maybeEvict(Addr just_fetched)
{
    if (_residencyCap == 0)
        return;
    std::size_t scans = _lru.size();
    while (_resident > _residencyCap && scans-- > 0 && !_lru.empty()) {
        const Addr a = _lru.front();
        _lru.pop_front();
        Blk *found = _blocks.find(a);
        if (found == nullptr || !found->inLru)
            continue;  // stale queue entry
        Blk &b = *found;
        const bool busy = b.fetching || b.recall != Recall::None ||
                          _wb.find(a) ||
                          b.extPending || ptable.activeFor(a) >= 0;
        if (busy || b.tokens != g.params.totalTokens ||
            a == just_fetched) {
            _lru.push_back(a);  // rotate; soft cap
            continue;
        }
        if (b.chip == ChipState::S) {
            // All tokens home, so no local L1 can read a stale copy
            // after the home re-grants the block elsewhere.
            b.chip = ChipState::I;
            b.validData = false;
            b.dirty = false;
            leaveResident(b);
            ++stats.silentDrops;
        } else {
            startWb(a, b);
        }
    }
}

void
HierShim::startWb(Addr addr, Blk &b)
{
    if (!b.owner || !b.validData)
        panic("writeback without the owner copy");
    _wb.get(addr) = PendingWb{b.value, b.dirty};
    b.chip = ChipState::I;
    b.validData = false;
    b.dirty = false;
    b.chipStored = false;
    leaveResident(b);
    ++stats.writebacksOut;
    send(PendingWb::request(addr, ctx.topo.homeOf(addr), _id),
         g.machine.l2Latency);
}

void
HierShim::onWbGrant(const Msg &m)
{
    const Addr addr = blockAlign(m.addr);
    const PendingWb *pending = _wb.find(addr);
    if (pending == nullptr)
        panic("home WbGrant without pending writeback");
    const PendingWb wb = *pending;
    _wb.erase(addr);
    if (wb.cancelled)
        ++stats.writebacksCancelled;
    send(wb.grantReply(addr, ctx.topo.homeOf(addr), _id),
         g.machine.l2Latency);
    // A demand queued behind the writeback re-fires through the
    // persistent path (transients re-trigger via their own retries).
    onPersistentTableChange(addr);
}

} // namespace tokencmp
