/**
 * @file
 * DirectoryCMP protocol family: the hierarchical MOESI directory
 * baseline and its zero-latency-directory variant.
 */

#include <memory>
#include <vector>

#include "system/system.hh"

namespace tokencmp {
namespace {

class DirectoryFamily : public ProtocolBuilder
{
  public:
    void
    build(System &sys) override
    {
        const SystemConfig &cfg = sys.config();
        const Topology &t = sys.config().topo;
        DirParams params = cfg.dir;
        if (cfg.protocol == Protocol::DirectoryCMPZero)
            params.dirLatency = 0;
        _globals = std::make_unique<DirGlobals>(params, cfg.machine);

        // Each controller runs in its CMP's shard domain (one shared
        // domain in serial mode).
        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                auto d = std::make_unique<DirL1>(
                    sys.contextFor(t.l1d(c, p)), t.l1d(c, p),
                    *_globals, cfg.l1Bytes, cfg.l1Assoc);
                auto i = std::make_unique<DirL1>(
                    sys.contextFor(t.l1i(c, p)), t.l1i(c, p),
                    *_globals, cfg.l1Bytes, cfg.l1Assoc);
                _l1s.push_back(d.get());
                _l1s.push_back(i.get());
                sys.sequencer(t.procIdOf(t.l1d(c, p)))
                    .bind(d.get(), i.get());
                sys.adopt(std::move(d));
                sys.adopt(std::move(i));
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b) {
                auto l2 = std::make_unique<DirL2>(
                    sys.contextFor(t.l2(c, b)), t.l2(c, b), *_globals,
                    cfg.l2BankBytes, cfg.l2Assoc);
                _l2s.push_back(l2.get());
                sys.adopt(std::move(l2));
            }
            auto mem = std::make_unique<DirMem>(
                sys.contextFor(t.mem(c)), t.mem(c), *_globals);
            _mems.push_back(mem.get());
            sys.adopt(std::move(mem));
        }
    }

    void
    verifyQuiescent(bool fatal_on_violation) const override
    {
        if (!fatal_on_violation)
            return;
        // Once the drain leaves no events, every transaction,
        // writeback window and deferred request must have retired.
        for (const DirL1 *l1 : _l1s)
            requireQuiescent(*l1);
        for (const DirL2 *l2 : _l2s)
            requireQuiescent(*l2);
        for (const DirMem *m : _mems)
            requireQuiescent(*m);
    }

    void
    harvest(StatSet &out) const override
    {
        std::uint64_t hits = 0, misses = 0;
        for (const DirL1 *l1 : _l1s) {
            hits += l1->stats.hits;
            misses += l1->stats.misses;
            out.add("dir.migratory", double(l1->stats.migratorySends));
        }
        for (const DirL2 *l2 : _l2s) {
            out.add("dir.deferrals", double(l2->stats.deferrals));
            out.add("dir.migratoryChip",
                    double(l2->stats.migratoryChip));
        }
        for (const DirMem *m : _mems) {
            out.add("dir.forwards", double(m->stats.forwards));
            out.add("dir.memResponses", double(m->stats.memResponses));
        }
        out.add("l1.hits", double(hits));
        out.add("l1.misses", double(misses));
    }

  private:
    std::unique_ptr<DirGlobals> _globals;
    std::vector<DirL1 *> _l1s;
    std::vector<DirL2 *> _l2s;
    std::vector<DirMem *> _mems;
};

} // namespace

std::unique_ptr<ProtocolBuilder>
makeDirectoryFamily()
{
    return std::make_unique<DirectoryFamily>();
}

} // namespace tokencmp
