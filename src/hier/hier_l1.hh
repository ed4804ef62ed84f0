/**
 * @file
 * L1 cache controller for the hierarchical protocol family.
 *
 * Inside a CMP the hier family runs the unmodified token correctness
 * substrate, so HierL1 is TokenL1 with two deviations:
 *
 *  - persistent-request arbitration is local: the arbiter for a block
 *    is the CMP's responsible shim (L2 bank slot), not the global home
 *    memory controller;
 *  - the shim may *recall* intra-CMP tokens to satisfy an external
 *    directory request (Fwd-GetS/GetX or Inv from the home). A recall
 *    arrives as an Inv — a message the flat TokenL1 never sees — and is
 *    answered with an ordinary token response to the shim, overriding
 *    any response-delay hold (the external request already won
 *    inter-CMP arbitration at the home).
 */

#ifndef TOKENCMP_HIER_HIER_L1_HH
#define TOKENCMP_HIER_HIER_L1_HH

#include "core/token_l1.hh"

namespace tokencmp {

/** Token L1 that answers shim recalls and arbitrates at the shim. */
class HierL1 : public TokenL1
{
  public:
    struct HierStats
    {
        std::uint64_t recallsFull = 0;
        std::uint64_t recallsDown = 0;
    };

    HierL1(SimContext &ctx, MachineID id, TokenGlobals &g,
           std::uint64_t size_bytes, unsigned assoc);

    void handleMsg(const Msg &msg) override;

    HierStats hierStats;

  protected:
    /** Arbitration is per-CMP: the responsible local shim. */
    MachineID
    arbiterOf(Addr addr) const override
    {
        return ctx.topo.l2BankFor(_id.cmp, addr);
    }

  private:
    void onRecall(const Msg &m);
};

} // namespace tokencmp

#endif // TOKENCMP_HIER_HIER_L1_HH
