/**
 * @file
 * The directory substrate: state shared by every controller of one
 * DirectoryCMP system, and the message-level mechanisms that DirL1,
 * DirL2 and the hier family's HierShim all run.
 *
 * - Builders for the directory vocabulary (requests, forwards, data
 *   responses, invalidation acks).
 * - PendingWb: the requester side of a three-phase writeback
 *   (WbRequest / WbGrant / WbData-or-WbCancel), including the replies
 *   to forwards that race into its window.
 * - HomeFetch: a chip agent's collection of a home transaction's
 *   data and remote invalidation acks, and the Unblock that ends it.
 *
 * All of them are value types and functions that return a Msg; the
 * controllers keep their own send latencies, send order and stats.
 */

#ifndef TOKENCMP_DIRECTORY_DIR_COMMON_HH
#define TOKENCMP_DIRECTORY_DIR_COMMON_HH

#include <cstdint>

#include "directory/dir_config.hh"
#include "net/message.hh"

namespace tokencmp {

/** State shared by every controller of one DirectoryCMP system. */
struct DirGlobals
{
    DirGlobals(const DirParams &p, const MachineParams &m)
        : params(p), machine(m)
    {}

    DirParams params;
    MachineParams machine;
};

/** A control message with its routing fields set. */
inline Msg
dirMsg(MsgType type, Addr addr, const MachineID &dst,
       const MachineID &requestor, MsgSeq req_id = 0)
{
    Msg m;
    m.type = type;
    m.addr = addr;
    m.dst = dst;
    m.requestor = requestor;
    m.reqId = req_id;
    return m;
}

/** A Data (or, if `exclusive`, DataEx) response carrying `value`. */
inline Msg
dataMsg(bool exclusive, Addr addr, const MachineID &dst,
        const MachineID &requestor, std::uint64_t value, bool dirty)
{
    Msg m = dirMsg(exclusive ? MsgType::DataEx : MsgType::Data, addr, dst,
                   requestor);
    m.hasData = true;
    m.value = value;
    m.dirty = dirty;
    return m;
}

/**
 * One invalidation ack from cache `self`. Collectors count acks by
 * source and reqId; `requestor` only names the acking cache.
 */
inline Msg
invAckMsg(Addr addr, const MachineID &dst, const MachineID &self,
          MsgSeq req_id = 0)
{
    Msg m = dirMsg(MsgType::InvAck, addr, dst, self, req_id);
    m.acks = 1;
    return m;
}

/**
 * A writeback in its three-phase window: the block has left the
 * cache, and the buffered copy answers forwards until the WbGrant.
 */
struct PendingWb
{
    std::uint64_t value = 0;
    bool dirty = false;
    bool cancelled = false;  //!< a Fwd-GetX took ownership meanwhile

    /** The WbRequest that opens the window. */
    static Msg request(Addr addr, const MachineID &dst,
                       const MachineID &self);

    /**
     * Answer an Inv, FwdGetS or FwdGetX that reached cache `self`
     * inside the window. An L1 (`chip` false) replies to its L2
     * (`m.src`), which relays the data. A chip agent (`chip` true)
     * replies to the requesting chip, and its shared reply is clean:
     * the home keeps this chip as owner until the WbData lands. A
     * Fwd-GetX moves ownership, so it cancels the writeback.
     */
    Msg reply(const Msg &m, const MachineID &self, bool chip);

    /** The WbData, or WbCancel if cancelled, sent on the WbGrant. */
    Msg grantReply(Addr addr, const MachineID &dst,
                   const MachineID &self) const;
};

/**
 * A chip agent's view of one GetS/GetX at the home: the data (Data or
 * DataEx) and the number of remote InvAcks to wait for (from the data
 * or from an AckCount), in whatever order they arrive.
 */
struct HomeFetch
{
    bool hasData = false;
    bool exclusive = false;  //!< the home granted DataEx
    bool dirty = false;
    std::uint64_t value = 0;
    int acksNeeded = -1;     //!< unknown until Data/DataEx/AckCount
    int acksGot = 0;

    /**
     * An owner upgrade starts with the chip's own copy: it completes
     * on an AckCount alone unless a racing Fwd-GetX takes the data
     * (which clears `hasData`).
     */
    void
    preset(std::uint64_t v, bool d)
    {
        hasData = true;
        value = v;
        dirty = d;
    }

    /** Take a Data, DataEx, AckCount or remote InvAck. */
    void absorb(const Msg &m);

    /** Data and every remote ack are in. */
    bool
    ready() const
    {
        return hasData && acksNeeded >= 0 && acksGot >= acksNeeded;
    }

    /**
     * The Unblock that ends the home transaction: UnblockEx when the
     * chip becomes exclusive owner (a write, or a DataEx grant).
     */
    Msg unblock(Addr addr, const MachineID &home, const MachineID &self,
                bool for_write) const;
};

} // namespace tokencmp

#endif // TOKENCMP_DIRECTORY_DIR_COMMON_HH
