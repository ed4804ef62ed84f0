#include "core/token_common.hh"

#include <algorithm>

namespace tokencmp {

TokenGlobals::TokenGlobals(const TokenParams &p, const MachineParams &m,
                           std::string policy_name, const Topology &topo)
    : params(p), machine(m), auditor(p.totalTokens), topo(topo),
      policyName(std::move(policy_name)), _chips(topo.numCmps)
{
    // The fan-out lists every L1 transient and every relay reuses,
    // built once per chip rather than per fan-out or per controller.
    for (unsigned c = 0; c < topo.numCmps; ++c) {
        ChipTokenState &chip = _chips[c];
        localL1Targets(topo, c, topo.mem(c), chip.l1s);  // excludes none
        // In slot order: L1D 0..P-1, then L1I 0..P-1 (l1SlotOf).
        for (unsigned p = 0; p < topo.procsPerCmp; ++p)
            localL1Targets(topo, c, topo.l1d(c, p), chip.peers);
        for (unsigned p = 0; p < topo.procsPerCmp; ++p)
            localL1Targets(topo, c, topo.l1i(c, p), chip.peers);
    }
}

std::unique_ptr<PerformancePolicy>
TokenGlobals::makePolicy(SimContext &ctx, const MachineID &self) const
{
    PolicyEnv env;
    env.self = self;
    env.topo = ctx.topo;
    env.params = &params;
    env.ctx = &ctx;
    if (self.type == MachineType::L1D || self.type == MachineType::L1I) {
        const ChipTokenState &chip = _chips[self.cmp];
        const std::size_t n = chip.l1s.size() - 1;
        env.peers = std::span<const MachineID>(chip.peers).subspan(
            l1SlotOf(topo, self) * n, n);
    }
    return PolicyRegistry::instance().create(policyName, env);
}

std::uint64_t
TokenGlobals::parkMask(unsigned cmp, Addr addr,
                       const std::vector<MachineID> &dsts) const
{
    if (dsts.size() > 64)
        return 0;
    const std::uint32_t held = holderMask(cmp, addr);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < dsts.size(); ++i) {
        const MachineID &d = dsts[i];
        const bool l1 = d.type == MachineType::L1D ||
                        d.type == MachineType::L1I;
        if (l1 && d.cmp == cmp && !((held >> l1SlotOf(topo, d)) & 1))
            mask |= std::uint64_t(1) << i;
    }
    return mask;
}

void
localL1Targets(const Topology &topo, unsigned cmp,
               const MachineID &exclude, std::vector<MachineID> &out)
{
    for (unsigned p = 0; p < topo.procsPerCmp; ++p) {
        for (MachineID id : {topo.l1d(cmp, p), topo.l1i(cmp, p)}) {
            if (id != exclude)
                out.push_back(id);
        }
    }
}

void
remoteL2Targets(const Topology &topo, Addr addr, unsigned cmp,
                std::vector<MachineID> &out)
{
    for (unsigned c = 0; c < topo.numCmps; ++c) {
        if (c != cmp)
            out.push_back(topo.l2BankFor(c, addr));
    }
}

void
persistTargets(const Topology &topo, Addr addr, const MachineID &exclude,
               std::vector<MachineID> &out)
{
    for (unsigned c = 0; c < topo.numCmps; ++c) {
        localL1Targets(topo, c, exclude, out);
        MachineID bank = topo.l2BankFor(c, addr);
        if (bank != exclude)
            out.push_back(bank);
    }
    MachineID home = topo.homeOf(addr);
    if (home != exclude)
        out.push_back(home);
}

PrForwardPlan
planPersistentForward(const TokenSt &line, bool is_read, bool is_cache)
{
    PrForwardPlan plan;
    if (line.tokens <= 0)
        return plan;

    if (!is_cache) {
        // Memory gives up everything; data rides with the owner token.
        plan.sendTokens = line.tokens;
        plan.sendOwner = line.owner;
        plan.sendData = line.owner;
        return plan;
    }

    if (is_read) {
        // Keep one token: read permission is never stolen from other
        // readers. The owner transfers the owner token (and data) and
        // keeps a plain token; an owner holding only the owner token
        // gives everything up, since data must always travel with a
        // token — a data-only message could be overtaken by a write
        // and deliver stale data, whereas a message carrying a token
        // blocks every writer from assembling all T until delivery.
        if (line.owner) {
            plan.sendTokens = line.tokens == 1 ? 1 : line.tokens - 1;
            plan.sendOwner = true;
            plan.sendData = true;
        } else {
            plan.sendTokens = line.tokens - 1;
            plan.sendOwner = false;
            plan.sendData = false;
            if (plan.sendTokens <= 0)
                return PrForwardPlan{};
        }
    } else {
        plan.sendTokens = line.tokens;
        plan.sendOwner = line.owner;
        plan.sendData = line.owner;
    }
    return plan;
}

bool
TokenController::applyPersistMsg(const Msg &m)
{
    const unsigned proc = m.prio;
    const MsgSeq seq = m.reqId;

    switch (m.type) {
      case MsgType::PersistActivate:
      case MsgType::PersistArbActivate:
        // Ignore an activate that has already been deactivated, or
        // that is older than the entry we hold (the broadcasts travel
        // on an unordered network).
        if (seq <= _lastDeactSeq.at(proc))
            return false;
        if (ptable.valid(proc) && ptable.entry(proc).seq >= seq)
            return false;
        ptable.insert(proc, m.addr, m.isRead, m.requestor, seq);
        return true;

      case MsgType::PersistDeactivate:
      case MsgType::PersistArbDeactivate:
        _lastDeactSeq.at(proc) =
            std::max(_lastDeactSeq.at(proc), seq);
        if (ptable.valid(proc) && ptable.entry(proc).seq <= seq) {
            ptable.erase(proc);
            return true;
        }
        return false;

      default:
        panic("applyPersistMsg: unexpected %s", msgTypeName(m.type));
    }
}

void
TokenController::handlePersistTableMsg(const Msg &m)
{
    if (applyPersistMsg(m))
        onPersistentTableChange(m.addr);
}

void
PersistentArbiter::onRequest(const Msg &m)
{
    // The requester's Done may have overtaken this request.
    if (_orphans.erase({m.prio, m.reqId}) != 0)
        return;
    Request req;
    req.addr = blockAlign(m.addr);
    req.isRead = m.isRead;
    req.prio = m.prio;
    req.seq = m.reqId;
    req.initiator = m.requestor;

    if (_busy) {
        _queue.push_back(req);
        stats.queueMax =
            std::max<std::uint64_t>(stats.queueMax, _queue.size());
        return;
    }
    activate(req);
}

void
PersistentArbiter::activate(const Request &req)
{
    _busy = true;
    _active = req;
    ++stats.activations;

    // Apply to the local table first so the host's own tokens flow.
    _host.ptable.insert(req.prio, req.addr, req.isRead, req.initiator,
                        req.seq);
    _host.onPersistentTableChange(req.addr);

    Msg m;
    m.type = MsgType::PersistArbActivate;
    m.addr = req.addr;
    m.isRead = req.isRead;
    m.prio = req.prio;
    m.reqId = req.seq;
    m.requestor = req.initiator;
    broadcast(m, req.addr);
}

void
PersistentArbiter::broadcast(const Msg &m, Addr addr)
{
    _destScratch.clear();
    _targets(addr, _destScratch);
    _host.multicast(m, _destScratch, _latency);
}

void
PersistentArbiter::onDone(const Msg &m)
{
    if (_busy && _active.prio == m.prio && _active.seq == m.reqId) {
        // Deactivate everywhere, then start the next queued request —
        // the indirect handoff that hurts under contention (Fig. 2).
        if (_host.ptable.valid(_active.prio))
            _host.ptable.erase(_active.prio);

        Msg d;
        d.type = MsgType::PersistArbDeactivate;
        d.addr = _active.addr;
        d.prio = _active.prio;
        d.reqId = _active.seq;
        broadcast(d, _active.addr);

        _busy = false;
        if (!_queue.empty()) {
            const Request next = _queue.front();
            _queue.pop_front();
            activate(next);
        }
        return;
    }

    // Completed before activation: drop it from the queue.
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->prio == m.prio && it->seq == m.reqId) {
            _queue.erase(it);
            return;
        }
    }
    _orphans.emplace(m.prio, m.reqId);
}

} // namespace tokencmp
