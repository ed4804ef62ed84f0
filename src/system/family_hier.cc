/**
 * @file
 * HierCMP protocol family: token coherence inside each CMP, MOESI
 * directory between CMPs — the inverse composition of the flat
 * TokenCMP protocols (which run one token space across all CMPs).
 *
 * Each CMP gets its *own* TokenGlobals (a private T-token space with
 * its own conservation auditor); the per-CMP HierShim at every L2 bank
 * slot translates between that token space and one system-wide MOESI
 * directory (DirGlobals; the home store is the system's data
 * authority).
 */

#include <memory>
#include <vector>

#include "directory/dir_mem.hh"
#include "hier/hier_l1.hh"
#include "hier/hier_shim.hh"
#include "system/system.hh"

namespace tokencmp {
namespace {

class HierFamily : public ProtocolBuilder
{
  public:
    void
    build(System &sys) override
    {
        const SystemConfig &cfg = sys.config();
        const Topology &t = sys.config().topo;

        _dirGlobals = std::make_unique<DirGlobals>(cfg.dir, cfg.machine);
        for (unsigned c = 0; c < t.numCmps; ++c) {
            // One private token space per CMP, running the protocol
            // row's intra-CMP policy ("arb4": local broadcast, arbiter
            // activation at the shim).
            _tokenGlobals.push_back(std::make_unique<TokenGlobals>(
                cfg.token, cfg.machine, protocolInfo(cfg.protocol).policy,
                t));
        }

        for (unsigned c = 0; c < t.numCmps; ++c) {
            TokenGlobals &tg = *_tokenGlobals[c];
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                auto d = std::make_unique<HierL1>(
                    sys.contextFor(t.l1d(c, p)), t.l1d(c, p), tg,
                    cfg.l1Bytes, cfg.l1Assoc);
                auto i = std::make_unique<HierL1>(
                    sys.contextFor(t.l1i(c, p)), t.l1i(c, p), tg,
                    cfg.l1Bytes, cfg.l1Assoc);
                _l1s.push_back(d.get());
                _l1s.push_back(i.get());
                sys.sequencer(t.procIdOf(t.l1d(c, p)))
                    .bind(d.get(), i.get());
                sys.adopt(std::move(d));
                sys.adopt(std::move(i));
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b) {
                auto shim = std::make_unique<HierShim>(
                    sys.contextFor(t.l2(c, b)), t.l2(c, b), tg,
                    cfg.hierResidencyCap);
                _shims.push_back(shim.get());
                sys.adopt(std::move(shim));
            }
            auto mem = std::make_unique<DirMem>(
                sys.contextFor(t.mem(c)), t.mem(c), *_dirGlobals);
            _mems.push_back(mem.get());
            sys.adopt(std::move(mem));
        }
    }

    void
    harvest(StatSet &out) const override
    {
        std::uint64_t hits = 0, misses = 0;
        for (const HierL1 *l1 : _l1s) {
            hits += l1->stats.hits;
            misses += l1->stats.misses;
            out.add("token.transients",
                    double(l1->stats.transientsIssued));
            out.add("token.retries", double(l1->stats.retries));
            out.add("token.persistents", double(l1->stats.persistents));
            out.add("token.persistentReads",
                    double(l1->stats.persistentReads));
            out.add("token.migratory", double(l1->stats.migratorySends));
            out.add("hier.l1RecallsFull",
                    double(l1->hierStats.recallsFull));
            out.add("hier.l1RecallsDown",
                    double(l1->hierStats.recallsDown));
        }
        for (const HierShim *s : _shims) {
            out.add("hier.localServes", double(s->stats.localServes));
            out.add("hier.fetches", double(s->stats.fetches));
            out.add("hier.fetchUpgrades",
                    double(s->stats.fetchUpgrades));
            out.add("hier.extInvs", double(s->stats.extInvs));
            out.add("hier.extFwdGetS", double(s->stats.extFwdGetS));
            out.add("hier.extFwdGetX", double(s->stats.extFwdGetX));
            out.add("hier.migratoryChip",
                    double(s->stats.migratoryChip));
            out.add("hier.recallsFull", double(s->stats.recallsFull));
            out.add("hier.recallsDown", double(s->stats.recallsDown));
            out.add("hier.recallRebroadcasts",
                    double(s->stats.recallRebroadcasts));
            out.add("hier.writebacks", double(s->stats.writebacksOut));
            out.add("hier.writebacksCancelled",
                    double(s->stats.writebacksCancelled));
            out.add("hier.silentDrops", double(s->stats.silentDrops));
            out.add("token.arbActivations",
                    double(s->arbiter().stats.activations));
        }
        out.add("l1.hits", double(hits));
        out.add("l1.misses", double(misses));

        for (const HierL1 *l1 : _l1s)
            l1->policy().exportStats(out);
        for (const HierShim *s : _shims)
            s->policy().exportStats(out);
    }

    void
    verifyQuiescent(bool fatal_on_violation) const override
    {
        // Each CMP's token space conserves independently.
        for (const auto &tg : _tokenGlobals)
            tg->auditor.checkAll(fatal_on_violation);
        TokenL1::auditHolders({_l1s.begin(), _l1s.end()});
        if (!fatal_on_violation)
            return;
        for (const HierShim *s : _shims)
            requireQuiescent(*s);
        for (const DirMem *m : _mems)
            requireQuiescent(*m);
    }

    void
    exportRunStats(StatSet &out) const override
    {
        std::uint64_t persistent = 0;
        for (const auto &tg : _tokenGlobals)
            persistent += tg->persistentIssued;
        out.set("token.persistentIssued", double(persistent));
    }

    // Deliberately no tokenGlobals() override: there is no single
    // system-wide token space (tests needing one use the flat
    // protocols; hier-specific tests reach shims via controller<>()).

  private:
    std::vector<std::unique_ptr<TokenGlobals>> _tokenGlobals;
    std::unique_ptr<DirGlobals> _dirGlobals;
    std::vector<HierL1 *> _l1s;
    std::vector<HierShim *> _shims;
    std::vector<DirMem *> _mems;
};

} // namespace

std::unique_ptr<ProtocolBuilder>
makeHierFamily()
{
    return std::make_unique<HierFamily>();
}

} // namespace tokencmp
