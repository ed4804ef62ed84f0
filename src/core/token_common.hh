/**
 * @file
 * Shared state and helpers for the token coherence controllers:
 * globals (parameters, auditor, policy), broadcast target
 * enumeration, the persistent-request forwarding plan, the
 * TokenController base class that owns a persistent table, the
 * sequence-numbered activate/deactivate handling and the one give /
 * absorb path every token transfer takes, and the PersistentArbiter
 * that serializes arbiter-activated persistent requests.
 */

#ifndef TOKENCMP_CORE_TOKEN_COMMON_HH
#define TOKENCMP_CORE_TOKEN_COMMON_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/persistent_table.hh"
#include "core/policy.hh"
#include "core/token_auditor.hh"
#include "core/token_config.hh"
#include "core/token_state.hh"
#include "mem/block_table.hh"
#include "net/controller.hh"
#include "sim/logging.hh"

namespace tokencmp {

/**
 * One CMP's share of the token globals, on cache lines of its own:
 * only that CMP's controllers (one shard domain) ever touch it.
 */
struct alignas(64) ChipTokenState
{
    /** Per block: bit l1SlotOf(l1) is set exactly while that L1's line
     *  for the block holds a token or valid data (TokenSt::holds()).
     *  Blocks no L1 holds either for have no entry; 32-bit keys keep a
     *  slot at 8 B. */
    BlockTable<std::uint32_t, std::uint32_t> holders;

    /** The chip's L1s in relay order (per processor: D, then I). */
    std::vector<MachineID> l1s;

    /** Per L1 slot s, at [s * (n-1), (s+1) * (n-1)) for n L1s: every
     *  other L1 of the chip, in relay order. */
    std::vector<MachineID> peers;
};

/** State shared by every controller of one token-coherent system. */
struct TokenGlobals
{
    TokenGlobals(const TokenParams &p, const MachineParams &m,
                 std::string policy_name, const Topology &topo);

    TokenParams params;
    MachineParams machine;
    TokenAuditor auditor;
    Topology topo;

    /** PolicyRegistry name of the system's performance policy. */
    std::string policyName;

    /**
     * Create this system's performance policy bound to one controller
     * (every TokenController owns an instance, so policy state lives
     * in the controller's shard domain).
     */
    std::unique_ptr<PerformancePolicy>
    makePolicy(SimContext &ctx, const MachineID &self) const;

    /** System-wide count of persistent requests issued (robustness
     *  statistic: the paper reports < 0.3% of L1 misses). Atomic so
     *  shard domains may bump it concurrently; the relaxed sum is
     *  interleaving-independent. */
    std::atomic<std::uint64_t> persistentIssued{0};

    /**
     * Prepare the globals for concurrent shard domains: lock the
     * auditor's stripes, and pre-size the persistent sequence table
     * (each slot is then only ever touched by its own processor's
     * L1I/L1D, which share a domain).
     */
    void
    enableConcurrent(unsigned num_procs)
    {
        auditor.setThreadSafe(true);
        if (_prSeq.size() < num_procs)
            _prSeq.resize(num_procs, 0);
    }

    /**
     * Per-processor persistent-request sequence numbers. Shared by a
     * processor's L1I and L1D (the tables have one slot per processor,
     * so the sequence must be monotone per processor, not per cache).
     */
    MsgSeq
    nextPrSeq(unsigned proc)
    {
        if (_prSeq.size() <= proc)
            _prSeq.resize(proc + 1, 0);
        return ++_prSeq[proc];
    }

    /** CMP `cmp`'s L1s in relay order. */
    const std::vector<MachineID> &
    chipL1s(unsigned cmp) const
    {
        return _chips[cmp].l1s;
    }

    /** Holder bits of `addr`'s block on CMP `cmp` (0: no L1 holds a
     *  token or valid data for it). */
    std::uint32_t
    holderMask(unsigned cmp, Addr addr) const
    {
        const std::uint32_t *bits = _chips[cmp].holders.find(addr);
        return bits != nullptr ? *bits : 0;
    }

    /** L1 `l1`'s line for `addr` now holds tokens or valid data. */
    void
    setHolder(const MachineID &l1, Addr addr)
    {
        _chips[l1.cmp].holders.get(addr) |= 1u << l1SlotOf(topo, l1);
    }

    /** L1 `l1`'s line for `addr` holds neither any more (or left). */
    void
    clearHolder(const MachineID &l1, Addr addr)
    {
        auto &h = _chips[l1.cmp].holders;
        std::uint32_t *bits = h.find(addr);
        if (bits == nullptr)
            return;
        *bits &= ~(1u << l1SlotOf(topo, l1));
        if (*bits == 0)
            h.erase(addr);
    }

    /** Call `fn(block, bits)` for every block some L1 of `cmp` holds
     *  tokens or valid data for (audits only: the order is the
     *  table's). */
    template <typename Fn>
    void
    forEachHolder(unsigned cmp, Fn &&fn) const
    {
        _chips[cmp].holders.forEach(std::forward<Fn>(fn));
    }

    /**
     * Park mask for a fan-out about `addr` from CMP `cmp` to `dsts`
     * (a transient request, the L2's relay of one, or hier's recall):
     * bit i is set when dsts[i] is an L1 of `cmp` whose line holds
     * neither tokens nor valid data, so delivered the copy would
     * change nothing (the first return of TokenL1::onTransientReq and
     * of HierL1::onRecall). One lookup.
     */
    std::uint64_t parkMask(unsigned cmp, Addr addr,
                           const std::vector<MachineID> &dsts) const;

  private:
    std::vector<MsgSeq> _prSeq;
    std::vector<ChipTokenState> _chips;  //!< by CMP
};

/** Append every local L1 cache of `cmp` except `exclude` to `out`. */
void localL1Targets(const Topology &topo, unsigned cmp,
                    const MachineID &exclude, std::vector<MachineID> &out);

/** Append the L2 bank responsible for `addr` on every other CMP. */
void remoteL2Targets(const Topology &topo, Addr addr, unsigned cmp,
                     std::vector<MachineID> &out);

/**
 * Append the persistent-request broadcast targets for `addr`: every L1
 * in the system, the responsible L2 bank on every CMP, and the home
 * memory controller — excluding `exclude` (the sender updates its own
 * table locally).
 */
void persistTargets(const Topology &topo, Addr addr,
                    const MachineID &exclude, std::vector<MachineID> &out);

/** What a controller sends when an active persistent request claims
 *  its tokens. */
struct PrForwardPlan
{
    int sendTokens = 0;
    bool sendOwner = false;
    bool sendData = false;

    bool
    empty() const
    {
        return sendTokens == 0 && !sendOwner && !sendData;
    }
};

/**
 * Compute the forwarding plan (Section 3.2).
 *
 * Caches answering a persistent *read* keep one token (and the owner
 * keeps the owner token but must supply data); caches answering a
 * persistent write, and memory answering anything, give up everything.
 */
PrForwardPlan planPersistentForward(const TokenSt &line, bool is_read,
                                    bool is_cache);

/**
 * Base class for token controllers: wraps sends/receives with the
 * auditor and implements the common persistent-table protocol with
 * per-processor sequence numbers (so reordered activate/deactivate
 * broadcasts cannot leave stale entries).
 */
class TokenController : public Controller
{
  public:
    TokenController(SimContext &ctx, MachineID id, TokenGlobals &g)
        : Controller(ctx, id), g(g),
          ptable(ctx.topo.numProcs()),
          _policy(g.makePolicy(ctx, id)),
          _lastDeactSeq(ctx.topo.numProcs(), 0)
    {}

    const PersistentTable &persistentTable() const { return ptable; }

    /** The globals of this controller's token space (hier runs one per
     *  CMP, so tests read its holder masks through a controller). */
    const TokenGlobals &globals() const { return g; }

    /** This controller's performance-policy instance. */
    PerformancePolicy &policy() { return *_policy; }
    const PerformancePolicy &policy() const { return *_policy; }

  protected:
    friend class PersistentArbiter;

    /** Send a message, auditing any tokens it carries. */
    void
    sendTok(Msg m, Tick delay = 0)
    {
        if (m.tokens > 0 || m.owner)
            g.auditor.onSend(m.addr, m.tokens, m.owner, m.hasData);
        send(std::move(m), delay);
    }

    /** Account for an absorbed message's tokens. */
    void
    receiveTok(const Msg &m)
    {
        if (m.tokens > 0 || m.owner)
            g.auditor.onReceive(m.addr, m.tokens, m.owner);
    }

    /**
     * Hand `tokens` of holder `h`'s tokens to `dst` — with the owner
     * token and the block's data when asked — and debit `h`: a
     * departing owner token takes the dirty bit with it, and a holder
     * left without tokens loses read permission. `Holder` is any
     * state with TokenSt's token fields (a cache line, a shim block).
     * Every token-carrying message the substrate sends is built here.
     */
    template <typename Holder>
    void
    giveTokens(Holder &h, MsgType type, Addr addr, const MachineID &dst,
               int tokens, bool owner, bool data, Tick latency)
    {
        Msg m;
        m.type = type;
        m.addr = addr;
        m.dst = dst;
        m.requestor = dst;
        m.tokens = std::int16_t(tokens);
        m.owner = owner;
        m.hasData = data;
        m.value = h.value;
        m.dirty = owner && h.dirty;
        h.tokens -= tokens;
        if (owner) {
            h.owner = false;
            h.dirty = false;
        }
        if (h.tokens == 0)
            h.validData = false;
        sendTok(std::move(m), latency);
    }

    /**
     * Give `h` the share the forwarding plan (Section 3.2) owes the
     * persistent requester `entry`. Returns false, sending nothing,
     * when the plan is empty.
     */
    template <typename Holder>
    bool
    givePersistent(Holder &h, Addr addr,
                   const PersistentTable::Entry &entry, bool is_cache,
                   Tick latency)
    {
        TokenSt held;
        held.tokens = h.tokens;
        held.owner = h.owner;
        const PrForwardPlan plan =
            planPersistentForward(held, entry.isRead, is_cache);
        if (plan.empty())
            return false;
        giveTokens(h, MsgType::TokResponse, addr, entry.initiator,
                   plan.sendTokens, plan.sendOwner, plan.sendData,
                   latency);
        return true;
    }

    /** Absorb a token-carrying message into holder `h`. */
    template <typename Holder>
    void
    absorbTokens(Holder &h, const Msg &m)
    {
        h.tokens += m.tokens;
        if (h.tokens > g.params.totalTokens)
            panic("%s exceeds the total tokens", _id.toString().c_str());
        if (m.owner) {
            h.owner = true;
            h.dirty = m.dirty;
        }
        if (m.hasData) {
            h.value = m.value;
            h.validData = true;
        }
    }

    /**
     * The active persistent request that claims this controller's
     * tokens for `addr`, or nullptr (none active, or it is our own).
     */
    const PersistentTable::Entry *
    claimant(Addr addr) const
    {
        const int active = ptable.activeFor(addr);
        if (active < 0 || ptable.entry(active).initiator == _id)
            return nullptr;
        return &ptable.entry(active);
    }

    /**
     * Evict every token `st` holds: to the persistent requester that
     * claims the block if there is one, else as a writeback to
     * `fallback`.
     */
    void
    evictTokens(TokenSt &st, Addr addr, const MachineID &fallback,
                Tick latency)
    {
        const PersistentTable::Entry *e = claimant(addr);
        giveTokens(st, e ? MsgType::TokResponse : MsgType::TokWriteback,
                   addr, e ? e->initiator : fallback, st.tokens,
                   st.owner, st.owner, latency);
    }

    /**
     * Apply a persistent activate/deactivate to the local table.
     * Returns true if the table changed.
     */
    bool applyPersistMsg(const Msg &m);

    /**
     * Hook invoked after the persistent table changes for `addr`, and
     * whenever tokens arrive while a request may be active;
     * implementations forward tokens to the active initiator.
     */
    virtual void onPersistentTableChange(Addr addr) = 0;

    /** Dispatch for the four distributed/arbiter table messages. */
    void handlePersistTableMsg(const Msg &m);

    TokenGlobals &g;
    PersistentTable ptable;
    std::unique_ptr<PerformancePolicy> _policy;

  private:
    std::vector<MsgSeq> _lastDeactSeq;
};

/**
 * Arbiter-based persistent-request activation (Section 3.2): at most
 * one activated request per arbiter, the rest served in FIFO order.
 * The flat protocol arbitrates at the home memory controller, the hier
 * family at each CMP's shim; the owner supplies its broadcast targets
 * and send latency.
 */
class PersistentArbiter
{
  public:
    struct Stats
    {
        std::uint64_t activations = 0;
        std::uint64_t queueMax = 0;   //!< deepest FIFO backlog
    };

    /** Appends a block's activate/deactivate broadcast targets. */
    using Targets =
        std::function<void(Addr, std::vector<MachineID> &)>;

    PersistentArbiter(TokenController &host, Targets targets,
                      Tick latency)
        : _host(host), _targets(std::move(targets)), _latency(latency)
    {}

    /** A PersistArbRequest arrived. */
    void onRequest(const Msg &m);

    /** A PersistArbDone arrived. */
    void onDone(const Msg &m);

    Stats stats;

  private:
    struct Request
    {
        Addr addr = 0;
        bool isRead = false;
        std::uint8_t prio = 0;
        MsgSeq seq = 0;
        MachineID initiator;
    };

    void activate(const Request &req);

    /** Multicast `m` to `addr`'s broadcast targets. */
    void broadcast(const Msg &m, Addr addr);

    TokenController &_host;
    Targets _targets;
    Tick _latency;
    std::vector<MachineID> _destScratch;  //!< fan-out scratch buffer

    bool _busy = false;
    Request _active;
    std::deque<Request> _queue;
    /**
     * Dones that overtook their own requests (possible on unordered
     * networks): the matching stale request is discarded on arrival
     * instead of being activated forever. Found by the Section 5
     * model checker; our point-to-point links happen to be FIFO, but
     * the substrate must not depend on that.
     */
    std::set<std::pair<std::uint8_t, MsgSeq>> _orphans;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_COMMON_HH
