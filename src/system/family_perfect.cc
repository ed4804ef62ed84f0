/**
 * @file
 * PerfectL2 pseudo-protocol family: the paper's unimplementable lower
 * bound (Section 6). Its L1s are
 * never attached to the network — misses hit the magic shared L2
 * directly.
 */

#include <memory>
#include <vector>

#include "system/system.hh"

namespace tokencmp {
namespace {

class PerfectFamily : public ProtocolBuilder
{
  public:
    void
    build(System &sys) override
    {
        const SystemConfig &cfg = sys.config();
        SimContext &ctx = sys.context();
        const Topology &t = ctx.topo;
        _globals = std::make_unique<PerfectGlobals>(cfg.machine,
                                                    cfg.net.intraLatency);

        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                auto d = std::make_unique<PerfectL1>(
                    ctx, t.l1d(c, p), *_globals, cfg.l1Bytes,
                    cfg.l1Assoc);
                auto i = std::make_unique<PerfectL1>(
                    ctx, t.l1i(c, p), *_globals, cfg.l1Bytes,
                    cfg.l1Assoc);
                _l1s.push_back(d.get());
                _l1s.push_back(i.get());
                sys.sequencer(t.procIdOf(t.l1d(c, p)))
                    .bind(d.get(), i.get());
                sys.adopt(std::move(d), /*on_network=*/false);
                sys.adopt(std::move(i), /*on_network=*/false);
            }
        }
    }

    void
    harvest(StatSet &out) const override
    {
        std::uint64_t hits = 0, misses = 0;
        for (const PerfectL1 *l1 : _l1s) {
            hits += l1->stats.hits;
            misses += l1->stats.misses;
        }
        out.add("l1.hits", double(hits));
        out.add("l1.misses", double(misses));
    }

  private:
    std::unique_ptr<PerfectGlobals> _globals;
    std::vector<PerfectL1 *> _l1s;
};

} // namespace

std::unique_ptr<ProtocolBuilder>
makePerfectFamily()
{
    return std::make_unique<PerfectFamily>();
}

} // namespace tokencmp
