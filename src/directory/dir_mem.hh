/**
 * @file
 * DirectoryCMP home memory controller: the inter-CMP directory.
 *
 * Tracks which CMPs cache each block (but not which caches within a
 * CMP — paper Section 2), serializes transactions with per-block busy
 * states and deferred queues, and completes each transaction on an
 * Unblock/UnblockEx from the requester. The directory state lives in
 * DRAM, so every dispatch pays `dirLatency` (80 ns realistic, 0 for
 * the DirectoryCMP-zero variant).
 */

#ifndef TOKENCMP_DIRECTORY_DIR_MEM_HH
#define TOKENCMP_DIRECTORY_DIR_MEM_HH

#include <cstdint>
#include <vector>

#include "directory/dir_common.hh"
#include "directory/dir_state.hh"
#include "mem/block_table.hh"
#include "net/controller.hh"

namespace tokencmp {

/** Home memory controller for DirectoryCMP. */
class DirMem : public Controller
{
  public:
    struct Stats
    {
        std::uint64_t getS = 0;
        std::uint64_t getX = 0;
        std::uint64_t forwards = 0;      //!< sharing-miss indirections
        std::uint64_t memResponses = 0;  //!< data supplied from DRAM
        std::uint64_t invalidations = 0;
        std::uint64_t writebacks = 0;           //!< WbData received
        std::uint64_t writebacksCancelled = 0;  //!< WbCancel received
        std::uint64_t deferrals = 0;
    };

    DirMem(SimContext &ctx, MachineID id, DirGlobals &g);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Directory state for a block (tests). */
    DirState peekState(Addr addr) const;

    /** No busy block and no deferred request. */
    bool quiescent() const;

  private:
    struct Entry
    {
        DirState state = DirState::Uncached;
        std::uint8_t presence = 0;  //!< sharer CMPs (excluding owner)
        std::int8_t ownerCmp = -1;
        bool busy = false;
    };

    /** Latency of a directory dispatch (+DRAM when data supplied). */
    Tick
    dispatchLat(bool data) const
    {
        const Tick access =
            std::max(g.params.dirLatency,
                     data ? g.machine.dramLatency : Tick(0));
        return g.machine.memCtrlLatency + access;
    }

    void dispatch(const Msg &m, Entry &e);
    void release(Addr addr, Entry &e);

    void onGetS(const Msg &m, Entry &e);
    void onGetX(const Msg &m, Entry &e);
    void onUnblock(const Msg &m, Entry &e);
    void onWbRequest(const Msg &m, Entry &e);
    void onWbData(const Msg &m, Entry &e);

    void sendInvs(Addr addr, Entry &e, std::uint8_t targets,
                  const MachineID &collector);

    BlockTable<Entry> _dir;
    /** FIFO of requests that arrived while their block was busy. */
    BlockTable<std::vector<Msg>> _deferred;
    DirGlobals &g;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_MEM_HH
