#include "core/token_auditor.hh"

#include "sim/logging.hh"

namespace tokencmp {

void
TokenAuditor::initBlock(Addr addr)
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    bool inserted = false;
    BlockInfo &info = _blocks.get(addr, &inserted);
    if (!inserted)
        panic("auditor: block %llx initialized twice",
              static_cast<unsigned long long>(blockAlign(addr)));
    info.held = _total;
    info.ownerHeld = 1;
}

void
TokenAuditor::onSend(Addr addr, int tokens, bool owner, bool has_data)
{
    if (!_enabled)
        return;
    auto lock = _mu.lock();
    BlockInfo *b = _blocks.find(addr);
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
    BlockInfo *b = _blocks.find(addr);
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
    const BlockInfo *b = _blocks.find(addr);
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
    _blocks.forEach([&](Addr addr, const BlockInfo &info) {
        checkLocked(addr);
        if (expect_quiescent && info.inFlight != 0)
            panic("auditor: %d tokens in flight at quiescence "
                  "(block %llx)",
                  info.inFlight, static_cast<unsigned long long>(addr));
    });
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
