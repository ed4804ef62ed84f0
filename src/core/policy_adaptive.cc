/**
 * @file
 * Destination-set predictor policies enabled by the PerformancePolicy
 * decoupling — fan-outs the Table 1 enum could not express:
 *
 *  - "dst-owner": an owner/group destination-set predictor. Each L2
 *    bank remembers which remote CMP last pulled a block (external
 *    transient requests are the natural training signal: the requester
 *    is acquiring tokens and is the likely current holder). Confident
 *    read escalations go to {predicted owner, home} instead of the
 *    full broadcast; writes — which must assemble *all* tokens, so any
 *    unreached holder forces a timeout — and retries always broadcast.
 *
 *  - "dst-group": group multicast. A per-block mask of CMPs recently
 *    seen acquiring the block; confident read escalations multicast
 *    to the group — fan-out between dst-owner's unicast and the full
 *    broadcast, trading a little latency robustness (any group member
 *    can answer) for most of the bandwidth saving.
 *
 *  - "bw-adapt": bandwidth-adaptive multicast. The same predictor,
 *    but narrowing is additionally gated on the observed utilization
 *    of this CMP's outbound inter-CMP channels (per-link occupancy
 *    already tracked by the Network): when the links sit idle, the
 *    policy widens toward broadcast for best latency; as utilization
 *    climbs, it narrows to save the bandwidth that is actually scarce.
 *
 * Both are pure performance plugins: a transient request that reaches
 * nobody times out, retries as a broadcast, and finally escalates to a
 * persistent request, so mispredictions cost latency, never safety.
 * All state is per controller instance and the occupancy probe reads
 * only the caller's own domain's links, so both policies keep the
 * sharded kernel's bit-identical-across-worker-counts contract.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy.hh"
#include "core/set_assoc_table.hh"
#include "sim/logging.hh"

namespace tokencmp {
namespace {

/**
 * Small set-associative block -> (CMP, confidence) table; the
 * owner-prediction analogue of the contention predictor, rebased on
 * the same SetAssocTable. Entries are never invalidated, only evicted,
 * so which of a fresh set's empty ways an allocation lands in is
 * unobservable — the pre-refactor fused scan (which kept the *last*
 * invalid way) and SetAssocTable::allocate (first invalid way) produce
 * identical predictions; fixed-seed workload-sweep baselines pin this.
 */
class CmpPredictor
{
  public:
    explicit CmpPredictor(unsigned entries = 512, unsigned ways = 4)
        : _table("CmpPredictor", entries, ways)
    {}

    /**
     * Predicted holder CMP, or -1 below `min_conf` confidence or when
     * the last observation is older than `max_age` ticks (narrowed
     * escalations stop feeding the broadcast training signal, so a
     * stale entry is likely wrong — and a wrong guess costs a retry
     * timeout; `now` comes from the owning controller's clock).
     */
    int
    predict(Addr addr, unsigned min_conf, Tick now, Tick max_age) const
    {
        const Table::Entry *e = _table.find(addr);
        if (e == nullptr || e->data.conf < min_conf
            || now - e->data.seen > max_age)
            return -1;
        return int(e->data.cmp);
    }

    /** `cmp` was seen acquiring `addr` at tick `now` (strength 2 for
     *  writes, which leave the requester as the sole holder; 1 for
     *  reads). Hits and allocations both refresh the lru stamp. */
    void
    observe(Addr addr, unsigned cmp, unsigned strength, Tick now)
    {
        Table::Entry *e = _table.find(addr);
        if (e != nullptr) {
            Owner &o = e->data;
            if (o.cmp == cmp) {
                o.conf = std::min<unsigned>(o.conf + strength, 3);
            } else if (o.conf > strength) {
                o.conf -= strength;
            } else {
                o.cmp = std::uint8_t(cmp);
                o.conf = std::uint8_t(strength);
            }
        } else {
            e = _table.allocate(addr);
            e->data.cmp = std::uint8_t(cmp);
            e->data.conf = std::uint8_t(strength);
        }
        _table.touch(*e);
        e->data.seen = now;
    }

  private:
    struct Owner
    {
        std::uint8_t cmp = 0;  //!< predicted holder CMP
        std::uint8_t conf = 0; //!< 2-bit saturating confidence
        Tick seen = 0;         //!< tick of the last observation
    };
    using Table = SetAssocTable<Owner>;

    Table _table;
};

/** Shared base: predictor training and the narrowed escalation set. */
class DestSetPolicy : public PerformancePolicy
{
  public:
    explicit DestSetPolicy(const PolicyEnv &env)
        : PerformancePolicy(env)
    {
        // The predictor is trained and consulted only at L2 banks
        // (escalation is an L2 decision); L1/memory instances of the
        // same policy class carry no table. Geometry comes from the
        // TokenParams knobs so sweeps can search it without
        // recompiling.
        if (env.self.type == MachineType::L2Bank) {
            _pred = std::make_unique<CmpPredictor>(
                env.params->cmpPredEntries, env.params->cmpPredWays);
        }
    }

    /** One (possibly) narrow attempt, then broadcast retries with
     *  dst4's budget — mispredictions degrade to dst4, not to an
     *  immediate persistent-request storm. */
    unsigned
    maxTransients(bool is_write) const override
    {
        (void)is_write;
        return 4;
    }

    void
    onExternalRequest(Addr addr, const MachineID &requestor,
                      bool is_write) override
    {
        if (_pred != nullptr) {
            _pred->observe(addr, requestor.cmp, is_write ? 2 : 1,
                           env.ctx->now());
        }
    }

    void
    onPersistentActivate(Addr addr, const MachineID &requestor,
                         bool is_read) override
    {
        // A persistent write drains every token to the requester; a
        // persistent read leaves it a holder. Same strengths as the
        // transient signal, but this one still fires when narrowed
        // retries went unanswered and no transient ever got through.
        if (_pred != nullptr) {
            _pred->observe(addr, requestor.cmp, is_read ? 1 : 2,
                           env.ctx->now());
            ++_persistTrainings;
        }
    }

    void
    exportStats(StatSet &out) const override
    {
        out.add("policy.narrowedEscalations", double(stats.narrowed));
        out.add("policy.broadcastEscalations", double(stats.broadcasts));
        out.add("policy.persistentTrainings",
                double(_persistTrainings));
    }

  protected:
    /**
     * The narrowed inter-CMP fan-out: the predicted holder plus the
     * home path (home memory must still see the request, or a miss on
     * an uncached block would always burn a timeout). Mirrors the
     * broadcast set's home handling: the home CMP is reached through
     * its L2 bank — which forwards down its memory link — unless this
     * CMP hosts the home itself.
     */
    void
    narrowEscalateSet(Addr addr, int pred_cmp,
                      std::vector<MachineID> &out) const
    {
        const unsigned home = env.topo.homeCmpOf(addr);
        if (pred_cmp >= 0 && unsigned(pred_cmp) != env.self.cmp)
            out.push_back(env.topo.l2BankFor(unsigned(pred_cmp), addr));
        if (home == env.self.cmp)
            out.push_back(env.topo.homeOf(addr));
        else if (int(home) != pred_cmp)
            out.push_back(env.topo.l2BankFor(home, addr));
    }

    /** Confidence needed before an escalation trusts the predictor. */
    static constexpr unsigned kMinConf = 2;

    /** Observations older than this fall back to broadcast. */
    static constexpr Tick kMaxAge = ns(2000);

    /** The freshness-gated prediction for one escalation. */
    int
    predictFresh(Addr addr) const
    {
        if (_pred == nullptr)
            return -1;
        return _pred->predict(addr, kMinConf, env.ctx->now(), kMaxAge);
    }

    std::unique_ptr<CmpPredictor> _pred;
    std::uint64_t _persistTrainings = 0;
};

/** "dst-owner": always narrow confident read escalations. */
class OwnerGroupPolicy final : public DestSetPolicy
{
  public:
    using DestSetPolicy::DestSetPolicy;

    void
    destinationSet(Addr addr, DestKind kind, bool is_write,
                   unsigned attempt, std::vector<MachineID> &out) override
    {
        if (kind != DestKind::L2Escalate) {
            broadcastSet(addr, kind, out);
            return;
        }
        const int pred = predictFresh(addr);
        if (is_write || attempt > 1 || pred < 0) {
            ++stats.broadcasts;
            broadcastSet(addr, kind, out);
            return;
        }
        ++stats.narrowed;
        narrowEscalateSet(addr, pred, out);
    }
};

/** "bw-adapt": narrow only while the outbound links are busy. */
class BandwidthAdaptivePolicy final : public DestSetPolicy
{
  public:
    using DestSetPolicy::DestSetPolicy;

    void
    destinationSet(Addr addr, DestKind kind, bool is_write,
                   unsigned attempt, std::vector<MachineID> &out) override
    {
        if (kind != DestKind::L2Escalate) {
            broadcastSet(addr, kind, out);
            return;
        }
        const int pred = predictFresh(addr);
        if (is_write || attempt > 1 || pred < 0 || !linksBusy()) {
            ++stats.broadcasts;
            broadcastSet(addr, kind, out);
            return;
        }
        ++stats.narrowed;
        narrowEscalateSet(addr, pred, out);
    }

  private:
    /** EWMA sample window; the busy threshold itself is the
     *  TokenParams::bwBusyUtil knob (the inter links are 16 GB/s; the
     *  default 0.01 counts a few percent of sustained occupancy as
     *  busy, since that already means queueing bursts). */
    static constexpr Tick kSampleWindow = ns(200);

    double
    busyUtil() const
    {
        return env.params->bwBusyUtil;
    }

    /**
     * Sample this CMP's outbound inter-CMP channel occupancy and fold
     * it into an EWMA utilization. Pure observation — calling this
     * never changes network state, and it only reads channels the
     * caller's domain owns.
     */
    bool
    linksBusy()
    {
        Network *net = env.ctx != nullptr ? env.ctx->net : nullptr;
        if (net == nullptr || env.topo.numCmps < 2)
            return false;
        Tick now = 0;
        Tick busy = 0;
        for (unsigned c = 0; c < env.topo.numCmps; ++c) {
            if (c == env.self.cmp)
                continue;
            const Network::LinkOccupancy o =
                net->interOccupancy(env.self, c);
            busy += o.busyTicks;
            now = o.now;
        }
        if (!_sampled) {
            _sampled = true;
            _lastNow = now;
            _lastBusy = busy;
            return false;
        }
        const Tick dt = now - _lastNow;
        if (dt >= kSampleWindow) {
            const double links = double(env.topo.numCmps - 1);
            const double u =
                double(busy - _lastBusy) / (double(dt) * links);
            _util = 0.5 * _util + 0.5 * u;
            _lastNow = now;
            _lastBusy = busy;
        }
        return _util >= busyUtil();
    }

    bool _sampled = false;
    Tick _lastNow = 0;
    Tick _lastBusy = 0;
    double _util = 0.0;
};

/**
 * "dst-group": multicast read escalations to the predicted *sharer
 * group* — every CMP recently seen acquiring the block — the middle
 * ground between dst-owner's unicast and the full broadcast. A write
 * observation collapses the group to the writer (it just stripped
 * every other chip's tokens); reads accumulate. Writes and late
 * retries still broadcast: a write must assemble all T tokens, so any
 * unreached holder would force a timeout.
 */
class GroupMulticastPolicy final : public DestSetPolicy
{
  public:
    explicit GroupMulticastPolicy(const PolicyEnv &env)
        : DestSetPolicy(env)
    {
        if (env.self.type == MachineType::L2Bank) {
            _groups = std::make_unique<Table>(
                "GroupPredictor", env.params->cmpPredEntries,
                env.params->cmpPredWays);
        }
    }

    /** Reads get the group multicast plus one full-broadcast retry
     *  before the persistent fallback; writes — whose broadcasts must
     *  reach *every* token holder, so a single unanswered attempt
     *  already signals contention — give up after one, like dst1.
     *  This read/write split is what places the policy's traffic
     *  between the dst4 and dst1 endpoints: patient narrow reads save
     *  request bytes vs dst4, impatient writes pay some of dst1's
     *  persistent-broadcast cost. */
    unsigned
    maxTransients(bool is_write) const override
    {
        return is_write ? 1 : 2;
    }

    void
    onExternalRequest(Addr addr, const MachineID &requestor,
                      bool is_write) override
    {
        DestSetPolicy::onExternalRequest(addr, requestor, is_write);
        observeGroup(addr, requestor.cmp, is_write);
    }

    void
    onPersistentActivate(Addr addr, const MachineID &requestor,
                         bool is_read) override
    {
        DestSetPolicy::onPersistentActivate(addr, requestor, is_read);
        observeGroup(addr, requestor.cmp, !is_read);
    }

    void
    destinationSet(Addr addr, DestKind kind, bool is_write,
                   unsigned attempt, std::vector<MachineID> &out) override
    {
        if (kind != DestKind::L2Escalate) {
            broadcastSet(addr, kind, out);
            return;
        }
        const std::uint8_t mask = freshGroup(addr);
        if (is_write || attempt > 1 || mask == 0) {
            ++stats.broadcasts;
            broadcastSet(addr, kind, out);
            return;
        }
        ++stats.narrowed;
        // The group members' responsible banks only: a pure bet on
        // cache-to-cache supply from the sharing group. Unlike the
        // unicast predictor's narrowed set, the home path is *not*
        // added — when the only copy sits at home memory the multicast
        // goes unanswered and the broadcast retry pays a timeout,
        // which is the bandwidth/latency trade that places this
        // policy's traffic between dst4 and dst1.
        for (unsigned c = 0; c < env.topo.numCmps; ++c) {
            if (c == env.self.cmp || (mask & (1u << c)) == 0)
                continue;
            out.push_back(env.topo.l2BankFor(c, addr));
        }
        if (env.topo.homeCmpOf(addr) == env.self.cmp)
            out.push_back(env.topo.homeOf(addr));
    }

  private:
    struct Group
    {
        std::uint8_t mask = 0;  //!< CMPs recently acquiring the block
        Tick seen = 0;          //!< tick of the last observation
    };
    using Table = SetAssocTable<Group>;

    void
    observeGroup(Addr addr, unsigned cmp, bool exclusive)
    {
        if (_groups == nullptr)
            return;
        Table::Entry *e = _groups->find(addr);
        if (e == nullptr) {
            e = _groups->allocate(addr);
            e->data = Group{};
        }
        if (exclusive)
            e->data.mask = std::uint8_t(1u << cmp);
        else
            e->data.mask |= std::uint8_t(1u << cmp);
        _groups->touch(*e);
        e->data.seen = env.ctx->now();
    }

    /** The group mask, or 0 when absent/stale (same freshness gate as
     *  the unicast predictor). */
    std::uint8_t
    freshGroup(Addr addr) const
    {
        if (_groups == nullptr)
            return 0;
        const Table::Entry *e = _groups->find(addr);
        if (e == nullptr || env.ctx->now() - e->data.seen > kMaxAge)
            return 0;
        return std::uint8_t(e->data.mask &
                            ~std::uint8_t(1u << env.self.cmp));
    }

    std::unique_ptr<Table> _groups;
};

const PolicyRegistrar regOwner("dst-owner", [](const PolicyEnv &env) {
    return std::make_unique<OwnerGroupPolicy>(env);
});

const PolicyRegistrar regGroup("dst-group", [](const PolicyEnv &env) {
    return std::make_unique<GroupMulticastPolicy>(env);
});

const PolicyRegistrar regBwAdapt("bw-adapt", [](const PolicyEnv &env) {
    return std::make_unique<BandwidthAdaptivePolicy>(env);
});

} // namespace
} // namespace tokencmp
