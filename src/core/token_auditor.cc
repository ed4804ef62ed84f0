#include "core/token_auditor.hh"

#include "sim/logging.hh"

namespace tokencmp {

TokenAuditor::BlockInfo *
TokenAuditor::find(Addr addr)
{
    auto it = _blocks.find(blockAlign(addr));
    return it == _blocks.end() ? nullptr : &it->second;
}

const TokenAuditor::BlockInfo *
TokenAuditor::find(Addr addr) const
{
    auto it = _blocks.find(blockAlign(addr));
    return it == _blocks.end() ? nullptr : &it->second;
}

void
TokenAuditor::initBlock(Addr addr)
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    const Addr blk = blockAlign(addr);
    if (_blocks.count(blk))
        panic("auditor: block %llx initialized twice",
              static_cast<unsigned long long>(blk));
    BlockInfo info;
    info.held = _total;
    info.ownerHeld = 1;
    _blocks.emplace(blk, info);
}

void
TokenAuditor::onSend(Addr addr, int tokens, bool owner, bool has_data)
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    BlockInfo *b = find(addr);
    if (b == nullptr)
        panic("auditor: send for untracked block %llx",
              static_cast<unsigned long long>(addr));
    if (tokens <= 0)
        panic("auditor: sending %d tokens", tokens);
    if (owner && !has_data)
        panic("auditor: owner token sent without data (block %llx)",
              static_cast<unsigned long long>(addr));
    b->held -= tokens;
    b->inFlight += tokens;
    if (owner) {
        b->ownerHeld -= 1;
        b->ownerInFlight += 1;
    }
    ++_transfers;
    checkLocked(addr);
}

void
TokenAuditor::onReceive(Addr addr, int tokens, bool owner)
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    BlockInfo *b = find(addr);
    if (b == nullptr)
        panic("auditor: receive for untracked block %llx",
              static_cast<unsigned long long>(addr));
    b->inFlight -= tokens;
    b->held += tokens;
    if (owner) {
        b->ownerInFlight -= 1;
        b->ownerHeld += 1;
    }
    checkLocked(addr);
}

void
TokenAuditor::checkLocked(Addr addr) const
{
    if (!_enabled)
        return;
    const BlockInfo *b = find(addr);
    if (b == nullptr)
        return;
    const auto a = static_cast<unsigned long long>(blockAlign(addr));
    if (b->held < 0 || b->inFlight < 0)
        panic("auditor: negative token count for block %llx", a);
    if (b->held + b->inFlight != _total)
        panic("auditor: conservation violated for block %llx: "
              "%d held + %d in flight != %d",
              a, b->held, b->inFlight, _total);
    if (b->ownerHeld + b->ownerInFlight != 1)
        panic("auditor: owner multiplicity %d for block %llx",
              b->ownerHeld + b->ownerInFlight, a);
}

void
TokenAuditor::check(Addr addr) const
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    checkLocked(addr);
}

void
TokenAuditor::checkAll(bool expect_quiescent) const
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    for (const auto &[addr, info] : _blocks) {
        checkLocked(addr);
        if (expect_quiescent && info.inFlight != 0)
            panic("auditor: %d tokens in flight at quiescence "
                  "(block %llx)",
                  info.inFlight, static_cast<unsigned long long>(addr));
    }
}

std::size_t
TokenAuditor::trackedBlocks() const
{
    auto lock = _mu.lock();
    return _blocks.size();
}

std::uint64_t
TokenAuditor::transfers() const
{
    auto lock = _mu.lock();
    return _transfers;
}

} // namespace tokencmp
