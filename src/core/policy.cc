/**
 * @file
 * PerformancePolicy defaults, the PolicyRegistry, and the Table 1
 * policy family: the paper's six TokenCMP rows expressed as one
 * row-parameterized plugin (broadcast destination sets, optional
 * contention predictor, optional sharer filter) registered under the
 * names "arb0", "dst0", "dst4", "dst1", "dst1-pred" and "dst1-filt",
 * plus hier's intra-CMP row as "arb4".
 */

#include "core/policy.hh"

#include "core/contention_predictor.hh"
#include "core/sharer_filter.hh"
#include "core/token_common.hh"
#include "sim/logging.hh"

namespace tokencmp {

void
PerformancePolicy::broadcastSet(Addr addr, DestKind kind,
                                std::vector<MachineID> &out) const
{
    switch (kind) {
      case DestKind::L1Transient:
        // Every peer L1 on the chip, then the responsible L2 bank.
        if (env.peers.empty())
            panic("%s: an L1 transient needs the chip's peer list",
                  env.self.toString().c_str());
        out.insert(out.end(), env.peers.begin(), env.peers.end());
        out.push_back(env.topo.l2BankFor(env.self.cmp, addr));
        return;
      case DestKind::L2Escalate:
        // The responsible bank on every other CMP; the home memory
        // controller is reached through its own CMP's L2 (Figure 1),
        // except when *this* CMP hosts the home, which goes straight
        // down the local memory link.
        remoteL2Targets(env.topo, addr, env.self.cmp, out);
        if (env.topo.homeCmpOf(addr) == env.self.cmp)
            out.push_back(env.topo.homeOf(addr));
        return;
    }
}

void
PerformancePolicy::destinationSet(Addr addr, DestKind kind, bool is_write,
                                  unsigned attempt,
                                  std::vector<MachineID> &out)
{
    (void)is_write;
    (void)attempt;
    broadcastSet(addr, kind, out);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg;
    return reg;
}

void
PolicyRegistry::registerPolicy(const std::string &name, Factory factory)
{
    if (name.empty())
        panic("cannot register a performance policy with no name");
    if (_factories.count(name) != 0)
        panic("performance policy '%s' registered twice", name.c_str());
    _factories[name] = std::move(factory);
}

std::unique_ptr<PerformancePolicy>
PolicyRegistry::create(const std::string &name,
                       const PolicyEnv &env) const
{
    auto it = _factories.find(name);
    if (it == _factories.end()) {
        std::string have;
        for (const auto &[n, f] : _factories) {
            (void)f;
            have += std::string(have.empty() ? "" : ", ") + n;
        }
        fatal("no performance policy named '%s' (registered: %s); "
              "was the plugin's translation unit linked in?",
              name.c_str(), have.c_str());
    }
    return it->second(env);
}

bool
PolicyRegistry::known(const std::string &name) const
{
    return _factories.count(name) != 0;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_factories.size());
    for (const auto &[n, f] : _factories) {
        (void)f;
        out.push_back(n);
    }
    return out;
}

// ---------------------------------------------------------------------
// Table 1 family
// ---------------------------------------------------------------------

namespace {

/** One row of the paper's Table 1. */
struct Table1Row
{
    /** Transient requests before falling back to a persistent
     *  request: 0 = immediately persistent (arb0/dst0), 1 = dst1*,
     *  4 = dst4. */
    unsigned maxTransients;
    PersistentActivation activation;
    bool usePredictor;  //!< dst1-pred: contention predictor
    bool useFilter;     //!< dst1-filt: filter external transients
};

/**
 * One Table 1 row as a policy: broadcast destination sets at both
 * levels, the row's transient budget and activation mechanism, plus
 * the dst1-pred contention predictor and the dst1-filt sharer filter
 * when the row enables them. The row flags live *here* now — the
 * substrate controllers only ever see the hook surface.
 */
class Table1Policy final : public PerformancePolicy
{
  public:
    Table1Policy(const Table1Row &row, const PolicyEnv &env)
        : PerformancePolicy(env), _row(row)
    {
        // The tables are allocated only where they are consulted: one
        // policy instance exists per controller, the predictor hooks
        // (shouldGoPersistent/onRetry/onSuccess) only fire at L1s and
        // the filter hooks (filterExternal/onLocalRequest) only at L2
        // banks — an unconditional 8192-entry filter in every dst1-filt
        // L1 and memory controller would be pure waste.
        const bool at_l1 = env.self.type == MachineType::L1D ||
                           env.self.type == MachineType::L1I;
        if (_row.usePredictor && at_l1) {
            _predictor = std::make_unique<ContentionPredictor>(
                env.params->contentionEntries, env.params->contentionWays);
        }
        if (_row.useFilter && env.self.type == MachineType::L2Bank)
            _filter = std::make_unique<SharerFilter>();
    }

    unsigned
    maxTransients(bool is_write) const override
    {
        (void)is_write;
        return _row.maxTransients;
    }

    PersistentActivation
    activation() const override
    {
        return _row.activation;
    }

    bool
    shouldGoPersistent(Addr addr, unsigned attempt) override
    {
        (void)attempt;
        return _predictor != nullptr &&
               _predictor->predictContended(addr);
    }

    void
    onRetry(Addr addr, Random &rng) override
    {
        if (_predictor != nullptr)
            _predictor->recordRetry(addr, rng);
    }

    void
    onSuccess(Addr addr) override
    {
        if (_predictor != nullptr)
            _predictor->recordSuccess(addr);
    }

    std::uint32_t
    filterExternal(Addr addr) override
    {
        return _filter != nullptr ? _filter->sharers(addr) : ~0u;
    }

    void
    onLocalRequest(Addr addr, const MachineID &requestor) override
    {
        if (_filter != nullptr)
            _filter->addSharer(addr, l1SlotOf(env.topo, requestor));
    }

    void
    onTokensMoved(Addr addr, const MachineID &from, int tokens,
                  bool owner) override
    {
        (void)tokens;
        (void)owner;
        if (_filter != nullptr && from.cmp == env.self.cmp &&
            (from.type == MachineType::L1D ||
             from.type == MachineType::L1I)) {
            _filter->removeSharer(addr, l1SlotOf(env.topo, from));
        }
    }

  private:
    Table1Row _row;
    std::unique_ptr<ContentionPredictor> _predictor;
    std::unique_ptr<SharerFilter> _filter;
};

PolicyRegistry::Factory
table1Factory(Table1Row row)
{
    return [row](const PolicyEnv &env) {
        return std::make_unique<Table1Policy>(row, env);
    };
}

constexpr PersistentActivation kArb = PersistentActivation::Arbiter;
constexpr PersistentActivation kDst = PersistentActivation::Distributed;

const PolicyRegistrar regArb0("arb0",
                              table1Factory({0, kArb, false, false}));
const PolicyRegistrar regDst0("dst0",
                              table1Factory({0, kDst, false, false}));
const PolicyRegistrar regDst4("dst4",
                              table1Factory({4, kDst, false, false}));
const PolicyRegistrar regDst1("dst1",
                              table1Factory({1, kDst, false, false}));
const PolicyRegistrar regDst1Pred("dst1-pred",
                                  table1Factory({1, kDst, true, false}));
const PolicyRegistrar regDst1Filt("dst1-filt",
                                  table1Factory({1, kDst, false, true}));
/**
 * Hier's intra-CMP policy: retried transient broadcasts inside the
 * CMP, arbiter-based persistent activation at the local shim (the
 * arbiter machine is per-CMP, selected by TokenL1::arbiterOf).
 */
const PolicyRegistrar regArb4("arb4",
                              table1Factory({4, kArb, false, false}));

} // namespace

} // namespace tokencmp
