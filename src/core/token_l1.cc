#include "core/token_l1.hh"

#include <algorithm>
#include <bit>
#include <map>

#include "sim/logging.hh"

namespace tokencmp {

namespace {

/** The memory-latency EWMA's seed, and the range the timeout
 *  threshold is clamped to before the per-retry backoff. */
constexpr Tick kTimeoutInitial = ns(250);
constexpr Tick kTimeoutMin = ns(100);
constexpr Tick kTimeoutMax = ns(4000);

} // namespace

TokenL1::TokenL1(SimContext &ctx, MachineID id, TokenGlobals &g,
                 std::uint64_t size_bytes, unsigned assoc)
    : TokenController(ctx, id, g),
      _array(size_bytes, assoc),
      _ewmaMemLat(static_cast<double>(kTimeoutInitial))
{
    if (id.type != MachineType::L1D && id.type != MachineType::L1I)
        panic("TokenL1 requires an L1 machine id");
}

const TokenSt *
TokenL1::peek(Addr addr) const
{
    const auto *line = _array.probe(addr);
    return line ? &line->st : nullptr;
}

void
TokenL1::auditHolders(const std::vector<const TokenL1 *> &l1s)
{
    std::map<unsigned, std::vector<const TokenL1 *>> by_cmp;
    for (const TokenL1 *l1 : l1s)
        by_cmp[l1->_id.cmp].push_back(l1);
    for (const auto &[cmp, chip] : by_cmp) {
        const TokenGlobals &g = chip.front()->g;
        std::vector<const TokenL1 *> by_slot(2 * g.topo.procsPerCmp,
                                             nullptr);
        for (const TokenL1 *l1 : chip)
            by_slot[l1SlotOf(g.topo, l1->_id)] = l1;

        // Every set bit names a line that holds tokens or data...
        std::vector<std::size_t> bits(by_slot.size(), 0);
        g.forEachHolder(cmp, [&](Addr addr, std::uint32_t word) {
            for (; word != 0; word &= word - 1) {
                const unsigned slot = unsigned(std::countr_zero(word));
                const TokenL1 *l1 =
                    slot < by_slot.size() ? by_slot[slot] : nullptr;
                const Line *line =
                    l1 != nullptr ? l1->_array.probe(addr) : nullptr;
                if (line == nullptr || !line->st.holds())
                    panic("holder bit of block 0x%llx at %s is set, but "
                          "%s", static_cast<unsigned long long>(addr),
                          l1 != nullptr ? l1->_id.toString().c_str()
                                        : "an unknown L1 slot",
                          line == nullptr
                              ? "the L1 has no line for it"
                              : "its line holds 0 tokens and no data");
                ++bits[slot];
            }
        });

        // ...and each L1 has as many such lines as it has bits, so no
        // line that holds tokens or data lacks its bit.
        for (const TokenL1 *l1 : chip) {
            const unsigned slot = l1SlotOf(g.topo, l1->_id);
            std::size_t held = 0;
            l1->_array.forEachValid([&](Addr, const Line &line) {
                held += line.st.holds() ? 1 : 0;
            });
            if (held == bits[slot])
                continue;
            l1->_array.forEachValid([&](Addr addr, const Line &line) {
                if (line.st.holds() &&
                    ((g.holderMask(cmp, addr) >> slot) & 1) == 0)
                    panic("holder bit of block 0x%llx at %s is clear, "
                          "but its line holds %d tokens%s",
                          static_cast<unsigned long long>(addr),
                          l1->_id.toString().c_str(), line.st.tokens,
                          line.st.validData ? " and valid data" : "");
            });
        }
    }
}

// ---------------------------------------------------------------------
// CPU interface
// ---------------------------------------------------------------------

void
TokenL1::cpuRequest(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    if (_id.type == MachineType::L1I && req.op != MemOp::Ifetch)
        panic("non-fetch op at L1I");
    if (_txns.find(addr))
        panic("duplicate outstanding miss at %s", _id.toString().c_str());

    Line *line = _array.probe(addr);
    const bool is_write = isWriteOp(req.op);
    const int total = g.params.totalTokens;

    const bool hit = line != nullptr &&
                     (is_write ? line->st.writable(total)
                               : line->st.readable());
    if (hit) {
        ++stats.hits;
        _array.touch(line);
        std::uint64_t old = line->st.value;
        if (is_write) {
            line->st.value = req.op == MemOp::Atomic
                                 ? req.rmw(old)
                                 : req.operand;
            line->st.dirty = true;
            line->st.locallyModified = true;
            // Only atomics (lock acquires) refresh the response-delay
            // window on a hit: a plain store hit is typically the
            // release, and extending the hold would delay the handoff
            // to the next contender.
            if (req.op == MemOp::Atomic) {
                line->st.holdUntil =
                    ctx.now() + g.machine.responseDelay;
            }
        }
        const Tick lat = g.machine.l1Latency;
        auto cb = req.callback;
        ctx.eventq.schedule(lat, [cb, old, lat]() {
            cb(MemResult{old, lat});
        });
        return;
    }

    ++stats.misses;
    startMiss(req);
}

void
TokenL1::startMiss(const MemRequest &req)
{
    const Addr addr = blockAlign(req.addr);
    allocLine(addr);

    Txn &txn = _txns.get(addr);
    txn.req = req;
    txn.isWrite = isWriteOp(req.op);
    txn.issued = ctx.now();

    if (_policy->maxTransients(txn.isWrite) == 0) {
        issuePersistent(addr, txn);
        return;
    }
    if (_policy->shouldGoPersistent(addr, 0)) {
        ++stats.predictedPersistents;
        issuePersistent(addr, txn);
        return;
    }
    txn.attempts = 1;
    issueTransient(addr, txn);
    armTimeout(addr, txn);
}

// ---------------------------------------------------------------------
// Line management
// ---------------------------------------------------------------------

TokenL1::Line *
TokenL1::allocLine(Addr addr)
{
    Line *line = _array.probe(addr);
    if (line != nullptr)
        return line;
    Line *victim = _array.victimWhere(addr, [this](const Line &l) {
        return !_txns.find(_array.tagOf(l));
    });
    if (victim == nullptr)
        panic("all ways pinned at %s", _id.toString().c_str());
    if (_array.isValid(*victim))
        evictLine(victim);
    _array.install(victim, addr);
    return victim;
}

void
TokenL1::evictLine(Line *line)
{
    const Addr addr = _array.tagOf(*line);
    TokenSt &st = line->st;
    if (st.holds())
        g.clearHolder(_id, addr);
    if (st.tokens > 0 || st.owner) {
        ++stats.writebacks;
        evictTokens(st, addr, ctx.topo.l2BankFor(_id.cmp, addr),
                    g.machine.l1Latency);
    }
    _array.invalidate(line);
}

// ---------------------------------------------------------------------
// Transient requests and timeouts
// ---------------------------------------------------------------------

void
TokenL1::issueTransient(Addr addr, Txn &txn)
{
    ++stats.transientsIssued;
    Msg m;
    m.type = txn.isWrite ? MsgType::TokWriteReq : MsgType::TokReadReq;
    m.addr = addr;
    m.requestor = _id;
    m.attempt = std::uint8_t(std::min(txn.attempts, 255u));

    _destScratch.clear();
    _policy->destinationSet(addr, DestKind::L1Transient, txn.isWrite,
                            txn.attempts, _destScratch);
    multicast(m, _destScratch, g.machine.l1Latency,
              g.parkMask(_id.cmp, addr, _destScratch));
}

Tick
TokenL1::timeoutThreshold(unsigned attempts) const
{
    double thr = g.params.timeoutMult * _ewmaMemLat;
    thr = std::clamp(thr, static_cast<double>(kTimeoutMin),
                     static_cast<double>(kTimeoutMax));
    // Linear backoff across retries.
    thr *= static_cast<double>(attempts);
    return static_cast<Tick>(thr);
}

void
TokenL1::armTimeout(Addr addr, Txn &txn)
{
    ++txn.gen;
    const std::uint64_t gen = txn.gen;
    // Pseudo-random perturbation avoids lock-step retries (Section 4).
    const Tick base = timeoutThreshold(txn.attempts);
    const Tick jitter = base / 8;
    const Tick when =
        base - jitter + Tick(ctx.rng.uniform(2 * jitter + 1));
    ctx.eventq.schedule(when, [this, addr, gen]() {
        onTimeout(addr, gen);
    });
}

void
TokenL1::onTimeout(Addr addr, std::uint64_t gen)
{
    Txn *pending = _txns.find(addr);
    if (pending == nullptr || pending->gen != gen || pending->persistent)
        return;
    Txn &txn = *pending;
    _policy->onRetry(addr, ctx.rng);
    if (txn.attempts < _policy->maxTransients(txn.isWrite)) {
        ++txn.attempts;
        ++stats.retries;
        issueTransient(addr, txn);
        armTimeout(addr, txn);
    } else {
        issuePersistent(addr, txn);
    }
}

void
TokenL1::observeMemLatency(Tick sample)
{
    _ewmaMemLat = 0.75 * _ewmaMemLat + 0.25 * double(sample);
}

// ---------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------

void
TokenL1::issuePersistent(Addr addr, Txn &txn)
{
    txn.persistent = true;
    ++stats.persistents;
    g.persistentIssued.fetch_add(1, std::memory_order_relaxed);
    if (!txn.isWrite)
        ++stats.persistentReads;

    if (_policy->activation() == PersistentActivation::Arbiter) {
        txn.prSeq = g.nextPrSeq(myProc());
        Msg m;
        m.type = MsgType::PersistArbRequest;
        m.addr = addr;
        m.isRead = !txn.isWrite;
        m.prio = std::uint8_t(myProc());
        m.reqId = txn.prSeq;
        m.requestor = _id;
        m.dst = arbiterOf(addr);
        send(std::move(m), g.machine.l1Latency);
        txn.activated = true;  // the arbiter handles activation
        return;
    }

    // Distributed activation: the marking mechanism gates re-issue
    // until the current wave for this block has drained.
    if (ptable.anyMarkedFor(addr)) {
        txn.gatePending = true;
        return;
    }
    activatePersistent(addr, txn);
}

void
TokenL1::activatePersistent(Addr addr, Txn &txn)
{
    txn.prSeq = g.nextPrSeq(myProc());
    txn.activated = true;
    ptable.insert(myProc(), addr, !txn.isWrite, _id, txn.prSeq);
    onPersistentTableChange(addr);

    Msg m;
    m.type = MsgType::PersistActivate;
    m.addr = addr;
    m.isRead = !txn.isWrite;
    m.prio = std::uint8_t(myProc());
    m.reqId = txn.prSeq;
    m.requestor = _id;
    _destScratch.clear();
    persistTargets(ctx.topo, addr, _id, _destScratch);
    multicast(m, _destScratch, g.machine.l1Latency);
}

void
TokenL1::deactivatePersistent(Addr addr, Txn &txn)
{
    if (!txn.activated)
        return;  // gated and never activated: nothing to clean up

    if (_policy->activation() == PersistentActivation::Arbiter) {
        Msg m;
        m.type = MsgType::PersistArbDone;
        m.addr = addr;
        m.prio = std::uint8_t(myProc());
        m.reqId = txn.prSeq;
        m.requestor = _id;
        m.dst = arbiterOf(addr);
        send(std::move(m), g.machine.l1Latency);
        return;
    }

    ptable.erase(myProc());
    ptable.markAllFor(addr);

    Msg m;
    m.type = MsgType::PersistDeactivate;
    m.addr = addr;
    m.prio = std::uint8_t(myProc());
    m.reqId = txn.prSeq;
    m.requestor = _id;
    _destScratch.clear();
    persistTargets(ctx.topo, addr, _id, _destScratch);
    multicast(m, _destScratch, g.machine.l1Latency);

    // Minimum-latency handoff: our own table names the next-priority
    // requester; the forwarding hook sends it the block (after the
    // response-delay window protecting our critical section).
    onPersistentTableChange(addr);
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
TokenL1::tryComplete(Addr addr)
{
    Txn *pending = _txns.find(addr);
    if (pending == nullptr)
        return;
    Txn &txn = *pending;
    Line *line = _array.probe(addr);
    if (line == nullptr)
        panic("transaction without a pinned line");
    TokenSt &st = line->st;

    std::uint64_t old;
    if (txn.isWrite) {
        if (!st.writable(g.params.totalTokens))
            return;
        old = st.value;
        st.value = txn.req.op == MemOp::Atomic ? txn.req.rmw(old)
                                               : txn.req.operand;
        st.dirty = true;
        st.locallyModified = true;
        st.holdUntil = ctx.now() + g.machine.responseDelay;
    } else {
        if (!st.readable())
            return;
        old = st.value;
    }

    if (!txn.persistent)
        _policy->onSuccess(addr);

    // Seed the shared L2 with surplus read tokens (the C-token
    // transfer exists "to reduce the latency of a future intra-CMP
    // request" — which asks the L2 bank, so that is where the spare
    // tokens belong; it also stops the L2 escalating sibling misses
    // off-chip when the tokens are already on chip). Exclusive grants
    // (owner held) are kept intact for the read-then-write pattern.
    if (!txn.isWrite && !st.owner && st.tokens > 1 && st.validData) {
        giveTokens(st, MsgType::TokWriteback, addr,
                   ctx.topo.l2BankFor(_id.cmp, addr), st.tokens - 1,
                   false, true, g.machine.l1Latency);
    }

    MemResult res;
    res.value = old;
    res.latency = ctx.now() - txn.req.issued;
    auto cb = txn.req.callback;

    Txn done = std::move(txn);
    _txns.erase(addr);
    deactivatePersistent(addr, done);
    cb(res);
}

// ---------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------

void
TokenL1::handleMsg(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::TokResponse:
        onResponse(msg);
        return;
      case MsgType::TokReadReq:
      case MsgType::TokWriteReq:
        onTransientReq(msg);
        return;
      case MsgType::PersistActivate:
      case MsgType::PersistDeactivate:
      case MsgType::PersistArbActivate:
      case MsgType::PersistArbDeactivate:
        handlePersistTableMsg(msg);
        return;
      default:
        panic("%s: unexpected %s", _id.toString().c_str(),
              msgTypeName(msg.type));
    }
}

void
TokenL1::onResponse(const Msg &m)
{
    receiveTok(m);
    if (m.tokens > 0 || m.owner)
        _policy->onTokensMoved(m.addr, m.src, m.tokens, m.owner);
    const Addr addr = m.addr;
    Line *line = _array.probe(addr);

    if (line == nullptr) {
        // Unsolicited/straggler tokens for a block we no longer hold:
        // bounce them to the L2 bank (the substrate never drops
        // tokens).
        if (m.tokens > 0 || m.owner) {
            ++stats.bounces;
            TokenSt stray;
            absorbTokens(stray, m);
            stray.value = m.value;
            giveTokens(stray, MsgType::TokWriteback, addr,
                       ctx.topo.l2BankFor(_id.cmp, addr), stray.tokens,
                       stray.owner, stray.owner, g.machine.l1Latency);
        }
        return;
    }

    const bool held = line->st.holds();
    absorbTokens(line->st, m);
    if (!held && line->st.holds()) {
        g.setHolder(_id, addr);
        ctx.net->wake(_id, addr);
    }
    _array.touch(line);
    if (m.src.type == MachineType::Mem) {
        if (const Txn *txn = _txns.find(addr))
            observeMemLatency(ctx.now() - txn->issued);
    }

    tryComplete(addr);
    forwardPersistentTokens(addr);
}

void
TokenL1::onTransientReq(const Msg &m)
{
    Line *line = _array.probe(m.addr);
    if (line == nullptr || line->st.tokens == 0)
        return;
    // Competing for this block ourselves, or an active persistent
    // request owns the tokens, or we're inside the response-delay
    // window: stay silent; the requester retries or escalates.
    if (_txns.find(m.addr))
        return;
    if (ptable.activeFor(m.addr) >= 0)
        return;
    if (line->st.holdUntil > ctx.now())
        return;

    TokenSt &st = line->st;
    const bool is_write = m.type == MsgType::TokWriteReq;
    const bool local = m.requestor.cmp == _id.cmp;
    const int total = g.params.totalTokens;
    const Tick lat = g.machine.l1Latency;

    if (is_write) {
        // Give everything; only the owner attaches data.
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor,
                   st.tokens, st.owner, st.owner, lat);
        g.clearHolder(_id, m.addr);
        _array.invalidate(line);
        return;
    }

    // Read request.
    const bool migratory = g.machine.migratory && st.owner &&
                           st.locallyModified && st.validData &&
                           st.tokens == total;
    if (migratory) {
        ++stats.migratorySends;
        giveTokens(st, MsgType::TokResponse, m.addr, m.requestor,
                   st.tokens, true, true, lat);
        g.clearHolder(_id, m.addr);
        _array.invalidate(line);
        return;
    }

    if (local) {
        // On-chip read: share one token if we can spare one.
        if (st.tokens >= 2 && st.validData) {
            giveTokens(st, MsgType::TokResponse, m.addr, m.requestor, 1,
                       false, true, lat);
        }
        return;
    }

    // External read: only the owner CMP responds, with C tokens if
    // possible to seed the requester's CMP (Section 4).
    if (!st.owner || !st.validData)
        return;
    const int k = std::min(g.params.cTokens, st.tokens);
    giveTokens(st, MsgType::TokResponse, m.addr, m.requestor, k,
               k == st.tokens, true, lat);
    if (st.tokens == 0) {
        g.clearHolder(_id, m.addr);
        _array.invalidate(line);
    }
}

// ---------------------------------------------------------------------
// Persistent forwarding
// ---------------------------------------------------------------------

void
TokenL1::onPersistentTableChange(Addr addr)
{
    forwardPersistentTokens(addr);
    resumeGatedTxn(addr);
}

void
TokenL1::resumeGatedTxn(Addr addr)
{
    Txn *txn = _txns.find(addr);
    if (txn == nullptr || !txn->gatePending)
        return;
    if (ptable.anyMarkedFor(addr))
        return;
    txn->gatePending = false;
    activatePersistent(addr, *txn);
}

void
TokenL1::forwardPersistentTokens(Addr addr)
{
    const PersistentTable::Entry *entry = claimant(addr);
    if (entry == nullptr)
        return;

    Line *line = _array.probe(addr);
    if (line == nullptr || (line->st.tokens == 0 && !line->st.owner))
        return;
    TokenSt &st = line->st;

    if (st.holdUntil > ctx.now()) {
        // Bounded response delay: recheck when the window closes.
        if (!st.recheckScheduled) {
            st.recheckScheduled = true;
            ctx.eventq.scheduleAbs(st.holdUntil, [this, addr]() {
                Line *l = _array.probe(addr);
                if (l != nullptr)
                    l->st.recheckScheduled = false;
                onPersistentTableChange(addr);
            });
        }
        return;
    }

    if (!givePersistent(st, addr, *entry, true, g.machine.l1Latency))
        return;
    if (st.tokens == 0) {
        g.clearHolder(_id, addr);
        st.locallyModified = false;
        if (!_txns.find(addr))
            _array.invalidate(line);
    }
}

} // namespace tokencmp
