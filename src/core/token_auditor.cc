#include "core/token_auditor.hh"

#include "sim/logging.hh"

namespace tokencmp {

void
TokenAuditor::setThreadSafe(bool on)
{
    for (Stripe &s : _stripes)
        s.mu.enable(on);
}

void
TokenAuditor::initBlock(Addr addr)
{
    Stripe &s = stripe(addr);
    auto lock = s.mu.lock();
    bool inserted = false;
    BlockInfo &info = s.blocks.get(addr, &inserted);
    if (!inserted)
        panic("auditor: block %llx initialized twice",
              static_cast<unsigned long long>(blockAlign(addr)));
    info.held = _total;
    info.ownerHeld = 1;
}

void
TokenAuditor::onSend(Addr addr, int tokens, bool owner, bool has_data)
{
    Stripe &s = stripe(addr);
    auto lock = s.mu.lock();
    BlockInfo *b = s.blocks.find(addr);
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
    ++s.transfers;
    checkLocked(s, addr);
}

void
TokenAuditor::onReceive(Addr addr, int tokens, bool owner)
{
    Stripe &s = stripe(addr);
    auto lock = s.mu.lock();
    BlockInfo *b = s.blocks.find(addr);
    if (b == nullptr)
        panic("auditor: receive for untracked block %llx",
              static_cast<unsigned long long>(addr));
    b->inFlight -= tokens;
    b->held += tokens;
    if (owner) {
        b->ownerInFlight -= 1;
        b->ownerHeld += 1;
    }
    checkLocked(s, addr);
}

void
TokenAuditor::checkLocked(const Stripe &s, Addr addr) const
{
    const BlockInfo *b = s.blocks.find(addr);
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
    // The sum alone misses an owner token sent twice: -1 held, 2 on
    // the wire.
    if (b->ownerHeld < 0 || b->ownerInFlight < 0)
        panic("auditor: owner multiplicity violated for block %llx: "
              "%d held, %d in flight",
              a, b->ownerHeld, b->ownerInFlight);
}

void
TokenAuditor::check(Addr addr) const
{
    const Stripe &s = stripe(addr);
    auto lock = s.mu.lock();
    checkLocked(s, addr);
}

void
TokenAuditor::checkAll(bool expect_quiescent) const
{
    for (const Stripe &s : _stripes) {
        auto lock = s.mu.lock();
        s.blocks.forEach([&](Addr addr, const BlockInfo &info) {
            checkLocked(s, addr);
            if (expect_quiescent && info.inFlight != 0)
                panic("auditor: %d tokens in flight at quiescence "
                      "(block %llx)",
                      info.inFlight,
                      static_cast<unsigned long long>(addr));
        });
    }
}

std::size_t
TokenAuditor::trackedBlocks() const
{
    std::size_t n = 0;
    for (const Stripe &s : _stripes) {
        auto lock = s.mu.lock();
        n += s.blocks.size();
    }
    return n;
}

std::uint64_t
TokenAuditor::transfers() const
{
    std::uint64_t n = 0;
    for (const Stripe &s : _stripes) {
        auto lock = s.mu.lock();
        n += s.transfers;
    }
    return n;
}

} // namespace tokencmp
