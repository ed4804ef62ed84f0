/**
 * @file
 * "dst-group": a group-multicast destination-set policy enabled by the
 * PerformancePolicy decoupling — a fan-out the Table 1 enum could not
 * express. Each L2 bank keeps a per-block mask of the CMPs recently
 * seen acquiring the block; confident read escalations multicast to
 * that group instead of the full broadcast, trading a little latency
 * robustness (any group member can answer) for most of the bandwidth
 * saving.
 *
 * A pure performance plugin: a transient request that reaches nobody
 * times out, retries as a broadcast, and finally escalates to a
 * persistent request, so mispredictions cost latency, never safety.
 * All state is per controller instance, so the policy keeps the
 * sharded kernel's bit-identical-across-worker-counts contract.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy.hh"
#include "core/set_assoc_table.hh"

namespace tokencmp {
namespace {

/**
 * "dst-group": multicast read escalations to the predicted *sharer
 * group* — every CMP recently seen acquiring the block. A write
 * observation collapses the group to the writer (it just stripped
 * every other chip's tokens); reads accumulate. Writes and late
 * retries still broadcast: a write must assemble all T tokens, so any
 * unreached holder would force a timeout.
 */
class GroupMulticastPolicy final : public PerformancePolicy
{
  public:
    explicit GroupMulticastPolicy(const PolicyEnv &env)
        : PerformancePolicy(env)
    {
        // The table is trained and consulted only at L2 banks
        // (escalation is an L2 decision); L1/memory instances carry
        // none. Geometry comes from the TokenParams knobs so sweeps
        // can search it without recompiling.
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
        observeGroup(addr, requestor.cmp, is_write);
    }

    /** A persistent write drains every token to the requester; a
     *  persistent read leaves it a holder. This signal still fires
     *  when narrowed retries went unanswered and no transient ever
     *  got through. */
    void
    onPersistentActivate(Addr addr, const MachineID &requestor,
                         bool is_read) override
    {
        if (_groups != nullptr)
            ++_persistTrainings;
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
            ++_broadcasts;
            broadcastSet(addr, kind, out);
            return;
        }
        ++_narrowed;
        // The group members' responsible banks only: a pure bet on
        // cache-to-cache supply from the sharing group. The home path
        // is *not* added — when the only copy sits at home memory the
        // multicast goes unanswered and the broadcast retry pays a
        // timeout, which is the bandwidth/latency trade that places
        // this policy's traffic between dst4 and dst1.
        for (unsigned c = 0; c < env.topo.numCmps; ++c) {
            if (c == env.self.cmp || (mask & (1u << c)) == 0)
                continue;
            out.push_back(env.topo.l2BankFor(c, addr));
        }
        if (env.topo.homeCmpOf(addr) == env.self.cmp)
            out.push_back(env.topo.homeOf(addr));
    }

    void
    exportStats(StatSet &out) const override
    {
        out.add("policy.narrowedEscalations", double(_narrowed));
        out.add("policy.broadcastEscalations", double(_broadcasts));
        out.add("policy.persistentTrainings",
                double(_persistTrainings));
    }

  private:
    struct Group
    {
        std::uint8_t mask = 0;  //!< CMPs recently acquiring the block
        Tick seen = 0;          //!< tick of the last observation
    };
    using Table = SetAssocTable<Group>;

    /** Observations older than this fall back to broadcast: narrowed
     *  escalations stop feeding the broadcast training signal, so a
     *  stale group is likely wrong — and a wrong guess costs a retry
     *  timeout. */
    static constexpr Tick kMaxAge = ns(2000);

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

    /** The group mask without this CMP, or 0 when absent/stale. */
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
    std::uint64_t _narrowed = 0;          //!< below-broadcast fan-outs
    std::uint64_t _broadcasts = 0;        //!< full-broadcast fan-outs
    std::uint64_t _persistTrainings = 0;  //!< remote activations seen
};

const PolicyRegistrar regGroup("dst-group", [](const PolicyEnv &env) {
    return std::make_unique<GroupMulticastPolicy>(env);
});

} // namespace
} // namespace tokencmp
