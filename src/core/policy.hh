/**
 * @file
 * First-class performance-policy API for the token substrate.
 *
 * Token coherence decouples correctness (token counting + persistent
 * requests) from performance (who transient requests are sent to, when
 * to retry, when to escalate). The substrate in token_l1/l2/mem owns
 * the former; everything in the latter category is delegated to a
 * `PerformancePolicy` instance created per controller. A policy may be
 * arbitrarily wrong — requests that reach nobody time out and escalate
 * to (never-filtered, always-broadcast) persistent requests — so
 * plugins cannot break safety or starvation freedom, only performance.
 *
 * Policies are selected by name through the self-registering
 * `PolicyRegistry` (`SystemConfig::policyName`, or the policy column
 * of the protocol table in system/config.cc); the six Table 1 rows of
 * the paper are registered as "arb0", "dst0", "dst4", "dst1",
 * "dst1-pred" and "dst1-filt", hier's intra-CMP row as "arb4", and
 * policy_adaptive.cc adds the "dst-group" destination-set predictor
 * the enum-based design could not express.
 *
 * Determinism contract: a policy must keep all mutable state per
 * instance (one instance exists per controller, so instance state is
 * owned by that controller's shard domain). Policies that draw from
 * the controller RNG (the `onRetry` hook's `rng`) shift every later
 * draw, so enabling such a policy is a *different deterministic
 * execution*, not a perturbation of the old one — same caveat as
 * changing the shard map.
 */

#ifndef TOKENCMP_CORE_POLICY_HH
#define TOKENCMP_CORE_POLICY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/token_config.hh"
#include "net/controller.hh"
#include "sim/stats.hh"

namespace tokencmp {

/** Which fan-out decision `destinationSet` is being asked to make. */
enum class DestKind : unsigned char {
    /** An L1 miss issuing a transient request: intra-CMP targets
     *  (default: every peer L1 plus the responsible L2 bank). */
    L1Transient,
    /** The shared L2 escalating a local miss off-chip: inter-CMP
     *  targets (default: the responsible bank on every other CMP,
     *  plus the home memory controller when this CMP hosts it). */
    L2Escalate,
};

/** Local L1 slot index used by relay masks (D: 0..P-1, I: P..2P-1). */
inline unsigned
l1SlotOf(const Topology &topo, const MachineID &id)
{
    return id.type == MachineType::L1D ? id.index
                                       : topo.procsPerCmp + id.index;
}

/** Everything a policy instance knows about where it is plugged in. */
struct PolicyEnv
{
    MachineID self{};                      //!< owning controller
    Topology topo{};
    const TokenParams *params = nullptr;   //!< substrate knobs; required
    SimContext *ctx = nullptr;             //!< clock / rng / network
    /** At an L1: the chip's other L1s, built once per chip by the
     *  token globals (the default L1 transient's peer list). */
    std::span<const MachineID> peers;
};

/**
 * One controller's half of a performance policy.
 *
 * Every virtual below has a safe default (broadcast, never filter,
 * never predict), so a plugin overrides only the decisions it wants to
 * change. L1 controllers exercise the miss-path hooks, L2 banks the
 * escalation/relay hooks; one class serves both so a policy can share
 * logic (an instance still only ever sees one controller's traffic).
 */
class PerformancePolicy
{
  public:
    explicit PerformancePolicy(const PolicyEnv &env) : env(env) {}
    virtual ~PerformancePolicy() = default;

    PerformancePolicy(const PerformancePolicy &) = delete;
    PerformancePolicy &operator=(const PerformancePolicy &) = delete;

    // -- Substrate knobs ---------------------------------------------

    /** Transient attempts before escalating to a persistent request
     *  (0 = immediately persistent). Policies may budget reads and
     *  writes differently: a write must collect *every* token, so one
     *  unanswered broadcast is much stronger contention evidence than
     *  an unanswered read. */
    virtual unsigned
    maxTransients(bool is_write) const
    {
        (void)is_write;
        return 1;
    }

    /** Persistent-request activation mechanism (Section 3.2). */
    virtual PersistentActivation
    activation() const
    {
        return PersistentActivation::Distributed;
    }

    // -- L1 miss path ------------------------------------------------

    /**
     * Skip the transient attempts entirely for this miss and go
     * straight to a persistent request (dst1-pred's contention
     * predictor)? `attempt` is 0 before the first transient.
     */
    virtual bool
    shouldGoPersistent(Addr addr, unsigned attempt)
    {
        (void)addr;
        (void)attempt;
        return false;
    }

    /**
     * Append the targets of one transient request to `out` (not
     * cleared). `attempt` counts from 1; policies typically widen
     * toward broadcast on retries. The default is the full broadcast
     * the paper's hierarchical policy uses — overriding this can only
     * cost retries, never correctness.
     */
    virtual void destinationSet(Addr addr, DestKind kind, bool is_write,
                                unsigned attempt,
                                std::vector<MachineID> &out);

    /** A transient request for `addr` timed out (called once per
     *  timeout, before the retry-or-escalate decision). `rng` is the
     *  owning controller's deterministic stream — see the header
     *  caveat before drawing from it. */
    virtual void
    onRetry(Addr addr, Random &rng)
    {
        (void)addr;
        (void)rng;
    }

    /** A miss completed without ever going persistent. */
    virtual void onSuccess(Addr addr) { (void)addr; }

    // -- L2 escalation / relay path ----------------------------------

    /**
     * Bitmask of local L1 slots (see l1SlotOf) an *external* transient
     * request should be relayed to; ~0 relays to everyone. Persistent
     * requests are never filtered — this is only a hint.
     */
    virtual std::uint32_t
    filterExternal(Addr addr)
    {
        (void)addr;
        return ~0u;
    }

    /** A local L1 issued a transient request (it may soon hold
     *  tokens); the dst1-filt sharer filter trains on this. */
    virtual void
    onLocalRequest(Addr addr, const MachineID &requestor)
    {
        (void)addr;
        (void)requestor;
    }

    /** An external CMP's transient request passed through this
     *  controller — `requestor` is acquiring the block, the natural
     *  training signal for destination-set predictors. */
    virtual void
    onExternalRequest(Addr addr, const MachineID &requestor,
                      bool is_write)
    {
        (void)addr;
        (void)requestor;
        (void)is_write;
    }

    /**
     * A fresh persistent-request activation from another chip was
     * installed in this controller's table — `requestor` is about to
     * drain the block's tokens (all of them for a write). This is the
     * strongest destination-set training signal there is, and one the
     * transient hook above never sees when the requester's own
     * narrowed retries went unanswered and it escalated straight to a
     * persistent request.
     */
    virtual void
    onPersistentActivate(Addr addr, const MachineID &requestor,
                         bool is_read)
    {
        (void)addr;
        (void)requestor;
        (void)is_read;
    }

    /** This controller absorbed a token-carrying message that `from`
     *  previously held (`owner` if the owner token moved too). */
    virtual void
    onTokensMoved(Addr addr, const MachineID &from, int tokens,
                  bool owner)
    {
        (void)addr;
        (void)from;
        (void)tokens;
        (void)owner;
    }

    // -- Statistics --------------------------------------------------

    /** Contribute policy-specific statistics to a run's StatSet
     *  (keys are summed across controller instances). */
    virtual void exportStats(StatSet &out) const { (void)out; }

  protected:
    /** The default full-broadcast destination set for `kind`. */
    void broadcastSet(Addr addr, DestKind kind,
                      std::vector<MachineID> &out) const;

    PolicyEnv env;
};

/**
 * Process-wide map from policy names to factories. Policies
 * self-register at static-initialization time (see PolicyRegistrar);
 * the map is effectively immutable once
 * `main` begins, so concurrent experiment workers may create policy
 * instances without locking.
 */
class PolicyRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<PerformancePolicy>(const PolicyEnv &)>;

    static PolicyRegistry &instance();

    /** Register `factory` under `name`; fatal on duplicates. */
    void registerPolicy(const std::string &name, Factory factory);

    /** Instantiate `name` for one controller; fatal (listing every
     *  registered name) if unknown. */
    std::unique_ptr<PerformancePolicy>
    create(const std::string &name, const PolicyEnv &env) const;

    bool known(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    PolicyRegistry() = default;
    std::map<std::string, Factory> _factories;
};

/** Static self-registration helper for policy plugin files. */
struct PolicyRegistrar
{
    PolicyRegistrar(const char *name, PolicyRegistry::Factory factory)
    {
        PolicyRegistry::instance().registerPolicy(name,
                                                  std::move(factory));
    }
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_POLICY_HH
