/**
 * @file
 * Shared state and helpers for the token coherence controllers:
 * globals (parameters, auditor, functional memory), broadcast target
 * enumeration, the persistent-request forwarding plan, and the
 * TokenController base class that owns a persistent table and the
 * sequence-numbered activate/deactivate handling.
 */

#ifndef TOKENCMP_CORE_TOKEN_COMMON_HH
#define TOKENCMP_CORE_TOKEN_COMMON_HH

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/persistent_table.hh"
#include "core/policy.hh"
#include "core/token_auditor.hh"
#include "core/token_config.hh"
#include "core/token_state.hh"
#include "mem/backing_store.hh"
#include "net/controller.hh"

namespace tokencmp {

/** State shared by every controller of one token-coherent system. */
struct TokenGlobals
{
    TokenGlobals(const TokenParams &p, bool audit,
                 std::string policy_name)
        : params(p), auditor(p.totalTokens, audit),
          policyName(std::move(policy_name))
    {}

    TokenParams params;
    TokenAuditor auditor;
    BackingStore store;

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
     * auditor and the functional store, and pre-size the persistent
     * sequence table (each slot is then only ever touched by its own
     * processor's L1I/L1D, which share a domain).
     */
    void
    enableConcurrent(unsigned num_procs)
    {
        auditor.setThreadSafe(true);
        store.setThreadSafe(true);
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

  private:
    std::vector<MsgSeq> _prSeq;
};

/** All local L1 caches of `cmp` except `exclude`. */
std::vector<MachineID> localL1Targets(const Topology &topo, unsigned cmp,
                                      const MachineID &exclude);

/** The L2 banks responsible for `addr` on every other CMP. */
std::vector<MachineID> remoteL2Targets(const Topology &topo, Addr addr,
                                       unsigned cmp);

/**
 * Persistent-request broadcast targets for `addr`: every L1 in the
 * system, the responsible L2 bank on every CMP, and the home memory
 * controller — excluding `exclude` (the sender updates its own table
 * locally).
 */
std::vector<MachineID> persistTargets(const Topology &topo, Addr addr,
                                      const MachineID &exclude);

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

    /** This controller's performance-policy instance. */
    PerformancePolicy &policy() { return *_policy; }
    const PerformancePolicy &policy() const { return *_policy; }

  protected:
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
     * Apply a persistent activate/deactivate to the local table.
     * Returns true if the table changed.
     */
    bool applyPersistMsg(const Msg &m);

    /**
     * Hook invoked after the persistent table changes for `addr`;
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

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_COMMON_HH
