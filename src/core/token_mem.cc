#include "core/token_mem.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tokencmp {

TokenMem::TokenMem(SimContext &ctx, MachineID id, TokenGlobals &g)
    : TokenController(ctx, id, g),
      _arbiter(*this,
               [this](Addr addr, std::vector<MachineID> &out) {
                   persistTargets(this->ctx.topo, addr, _id, out);
               },
               g.machine.memCtrlLatency)
{
    if (id.type != MachineType::Mem)
        panic("TokenMem requires a Mem machine id");
}

TokenMem::MemBlock &
TokenMem::ensureBlock(Addr addr)
{
    bool inserted = false;
    MemBlock &b = _blocks.get(addr, &inserted);
    if (inserted) {
        b.tokens = g.params.totalTokens;
        b.owner = true;
        g.auditor.initBlock(addr);
    }
    return b;
}

int
TokenMem::tokensHeld(Addr addr) const
{
    const MemBlock *b = _blocks.find(addr);
    return b == nullptr ? -1 : b->tokens;
}

bool
TokenMem::ownerHeld(Addr addr) const
{
    const MemBlock *b = _blocks.find(addr);
    return b != nullptr && b->owner;
}

void
TokenMem::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onTransientReq(msg);
        return;
      case MsgType::TokWriteback:
      case MsgType::TokResponse:
        onWriteback(msg);
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
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenMem::onTransientReq(const Msg &m)
{
    MemBlock &b = ensureBlock(m.addr);
    if (ptable.activeFor(m.addr) >= 0)
        return;
    if (b.tokens == 0)
        return;

    bool data;
    if (m.type == MsgType::TokWriteReq) {
        data = b.owner;
        give(b, m.addr, m.requestor, b.tokens, b.owner, data);
    } else {
        // Reads are served only when memory has valid data (== owner).
        if (!b.owner)
            return;
        // An entirely uncached block is granted in full — the token
        // analogue of a clean-exclusive (E) grant, letting the common
        // read-then-write pattern complete with a single miss.
        // Otherwise C tokens seed the requesting CMP (Section 4).
        const int k = b.tokens == g.params.totalTokens
                          ? b.tokens
                          : std::min(g.params.cTokens, b.tokens);
        data = true;
        give(b, m.addr, m.requestor, k, k == b.tokens, data);
    }
    if (data)
        ++stats.dataResponses;
    else
        ++stats.tokenOnlyResponses;
}

void
TokenMem::give(MemBlock &b, Addr addr, const MachineID &dst, int tokens,
               bool owner, bool data)
{
    TokenSt held;
    held.tokens = b.tokens;
    held.owner = b.owner;
    held.value = _store.read(addr);
    // Token counts live alongside the data in DRAM (ECC-style), so
    // every memory response pays one DRAM access.
    ++stats.dramAccesses;
    giveTokens(held, MsgType::TokResponse, addr, dst, tokens, owner, data,
               g.machine.memCtrlLatency + g.machine.dramLatency);
    b.tokens = held.tokens;
    b.owner = held.owner;
}

void
TokenMem::onWriteback(const Msg &m)
{
    MemBlock &b = ensureBlock(m.addr);
    receiveTok(m);
    if (m.tokens == 0 && !m.owner)
        return;
    ++stats.writebacks;
    _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    b.tokens += m.tokens;
    if (b.tokens > g.params.totalTokens)
        panic("memory exceeds total tokens");
    if (m.owner) {
        b.owner = true;
        if (m.hasData) {
            _store.write(m.addr, m.value);
            ++stats.dramAccesses;
        }
    }
    onPersistentTableChange(m.addr);
}

void
TokenMem::onPersistentTableChange(Addr addr)
{
    const PersistentTable::Entry *entry = claimant(addr);
    if (entry == nullptr)
        return;
    MemBlock *found = _blocks.find(addr);
    if (found == nullptr || found->tokens == 0)
        return;
    MemBlock &b = *found;
    TokenSt held;
    held.tokens = b.tokens;
    held.owner = b.owner;
    const PrForwardPlan plan =
        planPersistentForward(held, entry->isRead, false);
    if (!plan.empty()) {
        give(b, addr, entry->initiator, plan.sendTokens, plan.sendOwner,
             plan.sendData);
    }
}

} // namespace tokencmp
