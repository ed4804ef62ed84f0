/**
 * @file
 * Base class for coherence controllers (L1 caches, L2 banks, memory
 * controllers) and the shared simulation context they run in.
 */

#ifndef TOKENCMP_NET_CONTROLLER_HH
#define TOKENCMP_NET_CONTROLLER_HH

#include "net/machine.hh"
#include "net/message.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace tokencmp {

/**
 * Everything a controller needs from its environment: the event queue,
 * the topology, the interconnect, and a deterministic RNG (for
 * pseudo-random retry backoff and predictor decay).
 */
struct SimContext
{
    EventQueue eventq;
    Topology topo;
    Random rng;
    Network *net = nullptr;  //!< owned by the System that builds it

    Tick now() const { return eventq.curTick(); }
};

/**
 * A coherence controller: receives messages from the network and sends
 * responses through it. Concrete protocols (token / directory) derive.
 */
class Controller
{
  public:
    Controller(SimContext &ctx, MachineID id) : ctx(ctx), _id(id) {}
    virtual ~Controller() = default;

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    /** Deliver one message (called by the network at arrival time). */
    virtual void handleMsg(const Msg &msg) = 0;

    /**
     * True if handleMsg(msg), run now, would change no state and send
     * nothing, and only a Network::wake() for the block can change
     * that. Network::multicast parks such copies instead of
     * scheduling them. Must read only this controller's own state.
     */
    virtual bool ignores(const Msg &) const { return false; }

    const MachineID &id() const { return _id; }

  protected:
    /** Send a message after `delay` ticks of local processing. */
    void
    send(Msg msg, Tick delay = 0)
    {
        msg.src = _id;
        ctx.net->send(msg, delay);
    }

    /** Send one copy of `msg` to each of `dsts` (Network::multicast). */
    void
    multicast(Msg msg, const std::vector<MachineID> &dsts, Tick delay = 0)
    {
        msg.src = _id;
        ctx.net->multicast(msg, dsts, delay);
    }

    SimContext &ctx;
    MachineID _id;
};

} // namespace tokencmp

#endif // TOKENCMP_NET_CONTROLLER_HH
