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

    const MachineID &id() const { return _id; }

  protected:
    /** Send a message after `delay` ticks of local processing. */
    void
    send(Msg msg, Tick delay = 0)
    {
        msg.src = _id;
        ctx.net->send(msg, delay);
    }

    /** Send one copy of `msg` to each of `dsts`, parking copy i when
     *  bit i of `park_mask` is set (Network::multicast). */
    void
    multicast(Msg msg, const std::vector<MachineID> &dsts, Tick delay = 0,
              std::uint64_t park_mask = 0)
    {
        msg.src = _id;
        ctx.net->multicast(msg, dsts, delay, park_mask);
    }

    SimContext &ctx;
    MachineID _id;
};

} // namespace tokencmp

#endif // TOKENCMP_NET_CONTROLLER_HH
