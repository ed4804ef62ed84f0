#include "core/token_l2.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

TokenL2::TokenL2(SimContext &ctx, MachineID id, TokenGlobals &g,
                 std::uint64_t size_bytes, unsigned assoc)
    : TokenController(ctx, id, g), _array(size_bytes, assoc)
{
    if (id.type != MachineType::L2Bank)
        panic("TokenL2 requires an L2 machine id");
}

const TokenSt *
TokenL2::peek(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? &line->st : nullptr;
}

TokenL2::Line *
TokenL2::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victim(addr);
    if (_array.isValid(*victim))
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
TokenL2::evictLine(Line *line)
{
    const Addr addr = _array.tagOf(*line);
    TokenSt &st = line->st;
    if (st.tokens > 0 || st.owner) {
        ++stats.writebacksOut;
        evictTokens(st, addr, ctx.topo.homeOf(addr), g.machine.l2Latency);
    }
    _array.invalidate(line);
}

void
TokenL2::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        if (msg.requestor.cmp == _id.cmp)
            onLocalRequest(msg);
        else
            onExternalRequest(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onWriteback(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistArbActivate:
        // Fresh activations (not stale or duplicate broadcasts) from
        // remote chips train the destination-set predictors: the
        // persistent requester is about to hold the block's tokens.
        if (applyPersistMsg(msg)) {
            if (msg.requestor.cmp != _id.cmp) {
                _policy->onPersistentActivate(msg.addr, msg.requestor,
                                              msg.isRead);
            }
            onPersistentTableChange(msg.addr);
        }
        return;
      case MsgType::PersistDeactivate:
      case MsgType::PersistArbDeactivate:
        handlePersistTableMsg(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenL2::escalate(const Msg &m)
{
    // The policy chooses the inter-CMP fan-out. Under the default
    // broadcast policies that is every other CMP's responsible bank —
    // the home memory controller is reached through its own CMP's
    // memory interface (Figure 1), so the Section 8 example costs
    // exactly three inter-CMP request messages; only when *this* CMP
    // hosts the home does the request go straight down the local
    // memory link. Narrowing policies may target any subset: a
    // transient request that reaches nobody simply times out.
    ++stats.escalations;
    _destScratch.clear();
    _policy->destinationSet(m.addr, DestKind::L2Escalate,
                            m.type == MsgType::TokWriteReq, m.attempt,
                            _destScratch);
    Msg fwd = m;
    for (const MachineID &t : _destScratch) {
        fwd.dst = t;
        send(fwd, g.machine.l2Latency);
    }
}

void
TokenL2::onLocalRequest(const Msg &m)
{
    ++stats.localReqs;
    _policy->onLocalRequest(m.addr, m.requestor);

    Line *line = _array.probe(m.addr);
    const bool is_write = m.type == MsgType::TokWriteReq;
    const int total = g.params.totalTokens;

    // An active persistent request owns all tokens for the block;
    // the requester's own escalation path will resolve the miss.
    if (ptable.activeFor(m.addr) >= 0)
        return;

    if (line == nullptr || line->st.tokens == 0) {
        escalate(m);
        return;
    }

    TokenSt &st = line->st;
    const Tick lat = g.machine.l2Latency;
    if (is_write) {
        const bool full = st.tokens == total && st.validData;
        ++stats.localResponses;
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor,
                   st.tokens, st.owner, st.owner, lat);
        _array.invalidate(line);
        if (!full)
            escalate(m);
        return;
    }

    // Read request.
    if (!st.validData) {
        escalate(m);
        return;
    }
    const bool migratory = g.machine.migratory && st.owner &&
                           st.dirty && st.tokens == total;
    ++stats.localResponses;
    if (migratory || st.tokens == 1) {
        // Hand over everything we hold (for a single token this is
        // the only way to supply data without losing conservation).
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor,
                   st.tokens, st.owner, true, lat);
        _array.invalidate(line);
    } else {
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor, 1,
                   false, true, lat);
        _array.touch(line);
    }
}

void
TokenL2::relayToL1s(const Msg &m)
{
    Msg fwd = m;
    const std::uint32_t mask = _policy->filterExternal(m.addr);

    for (unsigned p = 0; p < ctx.topo.procsPerCmp; ++p) {
        const MachineID d = ctx.topo.l1d(_id.cmp, p);
        const MachineID i = ctx.topo.l1i(_id.cmp, p);
        if (mask & (1u << l1SlotOf(ctx.topo, d))) {
            fwd.dst = d;
            send(fwd, g.machine.l2Latency);
            ++stats.relaysToL1;
        } else {
            ++stats.filteredRelays;
        }
        if (mask & (1u << l1SlotOf(ctx.topo, i))) {
            fwd.dst = i;
            send(fwd, g.machine.l2Latency);
            ++stats.relaysToL1;
        } else {
            ++stats.filteredRelays;
        }
    }
}

void
TokenL2::onExternalRequest(const Msg &m)
{
    ++stats.externalReqs;
    _policy->onExternalRequest(m.addr, m.requestor,
                               m.type == MsgType::TokWriteReq);

    // This CMP hosts the block's home memory controller: forward the
    // request down the local memory interface (Figure 1).
    if (ctx.topo.homeCmpOf(m.addr) == _id.cmp) {
        Msg fwd = m;
        fwd.dst = ctx.topo.homeOf(m.addr);
        send(fwd, g.machine.l2Latency);
    }

    Line *line = _array.probe(m.addr);
    const bool is_write = m.type == MsgType::TokWriteReq;
    const int total = g.params.totalTokens;

    // Relay onto the on-chip network so local L1s can respond
    // directly to the remote requester — unless the L2's own state
    // proves no L1 can contribute: an owner-holding L2 means no L1 is
    // the owner (so none may answer an external read), and an L2
    // holding all T tokens leaves nothing for a write to collect.
    // (Never filtered for persistent requests; these are only hints.)
    const bool l2_covers =
        line != nullptr && ptable.activeFor(m.addr) < 0 &&
        (is_write ? line->st.tokens == total
                  : line->st.owner && line->st.validData);
    if (!l2_covers)
        relayToL1s(m);

    if (line == nullptr || line->st.tokens == 0)
        return;
    if (ptable.activeFor(m.addr) >= 0)
        return;

    TokenSt &st = line->st;
    const Tick lat = g.machine.l2Latency;
    if (is_write) {
        ++stats.externalResponses;
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor,
                   st.tokens, st.owner, st.owner, lat);
        _array.invalidate(line);
        return;
    }

    // External read: only the owner responds (Section 4), including
    // C tokens when possible to seed the requesting CMP.
    if (!st.owner || !st.validData)
        return;
    const bool migratory = g.machine.migratory && st.dirty &&
                           st.tokens == total;
    const int k = migratory ? st.tokens
                            : std::min(g.params.cTokens, st.tokens);
    ++stats.externalResponses;
    giveTokens(st, MsgType::TokResponse, m.addr, m.requestor, k,
               k == st.tokens, true, lat);
    if (st.tokens == 0)
        _array.invalidate(line);
    else
        _array.touch(line);
}

void
TokenL2::onWriteback(const Msg &m)
{
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    ++stats.writebacksIn;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    Line *line = allocLine(m.addr);
    absorbTokens(line->st, m);
    _array.touch(line);
    onPersistentTableChange(m.addr);
}

void
TokenL2::onPersistentTableChange(Addr addr)
{
    const PersistentTable::Entry *entry = claimant(addr);
    if (entry == nullptr)
        return;
    Line *line = _array.probe(addr);
    if (line == nullptr || (line->st.tokens == 0 && !line->st.owner))
        return;
    if (givePersistent(line->st, addr, *entry, true, g.machine.l2Latency) &&
        line->st.tokens == 0) {
        _array.invalidate(line);
    }
}

} // namespace tokencmp
