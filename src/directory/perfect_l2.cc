#include "directory/perfect_l2.hh"

#include "sim/logging.hh"

namespace tokencmp {

PerfectL1::PerfectL1(SimContext &ctx, MachineID id, PerfectGlobals &g,
                     std::uint64_t size_bytes, unsigned assoc)
    : Controller(ctx, id), _array(size_bytes, assoc), g(g),
      _selfBit(std::uint64_t(1) << ctx.topo.globalIndex(id))
{
    g.l1s.resize(ctx.topo.numControllers(), nullptr);
    g.l1s[ctx.topo.globalIndex(id)] = this;
}

void
PerfectL1::magicInvalidate(Addr addr)
{
    auto *line = _array.probe(addr);
    if (line != nullptr)
        _array.invalidate(line);
}

void
PerfectL1::cpuRequest(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    const bool is_write =
        req.op == MemOp::Store || req.op == MemOp::Atomic;

    auto *line = _array.probe(addr);
    const bool hit = line != nullptr;
    Tick lat = g.machine.l1Latency;
    if (hit) {
        ++stats.hits;
        _array.touch(line);
    } else {
        ++stats.misses;
        lat += 2 * g.linkLatency + g.machine.l2Latency;
        auto *victim = _array.victim(addr);
        if (_array.isValid(*victim))
            g.holders.get(_array.tagOf(*victim)) &= ~_selfBit;
        _array.install(victim, addr);
    }
    std::uint64_t &holders = g.holders.get(addr);
    holders |= _selfBit;

    // Functional execution against the shared store; writes magically
    // invalidate all other copies so spin loops observe updates.
    std::uint64_t old = g.store.read(addr);
    if (is_write) {
        const std::uint64_t next =
            req.op == MemOp::Atomic ? req.rmw(old) : req.operand;
        g.store.write(addr, next);
        std::uint64_t others = holders & ~_selfBit;
        for (std::size_t i = 0; others != 0; ++i, others >>= 1) {
            if ((others & 1) && g.l1s[i] != nullptr)
                g.l1s[i]->magicInvalidate(addr);
        }
        holders &= _selfBit;
    }

    auto cb = req.callback;
    ctx.eventq.schedule(lat, [cb, old, lat]() {
        cb(MemResult{old, lat});
    });
}

void
PerfectL1::handleMsg(const Msg &msg)
{
    panic("PerfectL1 received a message: %s", msgTypeName(msg.type));
}

} // namespace tokencmp
