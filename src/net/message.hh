/**
 * @file
 * The coherence message vocabulary shared by every protocol in the
 * repository, plus the traffic-class taxonomy of the paper's Figure 7
 * (Response Data, Writeback Data, Writeback Control, Request,
 * Inv/Fwd/Acks/Tokens, Unblock, Persistent).
 *
 * Message sizes follow Section 8: data-bearing messages are 72 bytes
 * (8-byte header + 64-byte block), control messages are 8 bytes.
 *
 * The in-memory Msg is packed independently of that wire model: the
 * simulator copies every message by value into its delivery event and
 * across shard mailboxes, so the struct is laid out hot-fields-first
 * with explicit field ordering, narrowed integer types, and single-bit
 * flags. static_asserts below pin the layout; see the README
 * "Performance" section before touching it.
 */

#ifndef TOKENCMP_NET_MESSAGE_HH
#define TOKENCMP_NET_MESSAGE_HH

#include <cstdint>
#include <type_traits>

#include "net/machine.hh"
#include "sim/types.hh"

namespace tokencmp {

/**
 * Transaction/sequence id carried in Msg::reqId.
 *
 * The protocols use it functionally (persistent-request sequence
 * numbers, directory service-generation matching), so it cannot be
 * compiled out entirely — but those uses only ever compare ids minted
 * from the same monotone counters, which a 32-bit counter serves just
 * as well for any reachable simulation length (ids are per-processor /
 * per-controller, so wrap needs >4G requests from one source). Builds
 * that want human-unique ids in traces can widen it back to 64 bits
 * with -DTOKENCMP_MSG_TRACE; every counter that mints reqId values is
 * typed MsgSeq so the two shapes stay consistent end to end.
 */
#ifdef TOKENCMP_MSG_TRACE
using MsgSeq = std::uint64_t;
#else
using MsgSeq = std::uint32_t;
#endif

/** Every message kind used by TokenCMP and DirectoryCMP. */
enum class MsgType : std::uint8_t {
    // --- Token coherence: transient requests and responses ---
    TokReadReq,    //!< transient request seeking >= 1 token + data
    TokWriteReq,   //!< transient request seeking all tokens
    TokResponse,   //!< tokens (optionally with data / owner token)
    TokWriteback,  //!< tokens (optionally data) flowing to L2/memory

    // --- Token coherence: persistent request machinery ---
    PersistActivate,      //!< distributed: insert/activate table entry
    PersistDeactivate,    //!< distributed: clear table entry
    PersistArbRequest,    //!< arbiter: starver -> home arbiter
    PersistArbActivate,   //!< arbiter: arbiter -> everyone
    PersistArbDeactivate, //!< arbiter: arbiter -> everyone
    PersistArbDone,       //!< arbiter: initiator -> arbiter (release)

    // --- DirectoryCMP: requests ---
    GetS,  //!< read request (L1->L2 or L2->home)
    GetX,  //!< write request

    // --- DirectoryCMP: forwards and invalidations ---
    FwdGetS,  //!< directory forwards a read to the owner
    FwdGetX,  //!< directory forwards a write to the owner
    Inv,      //!< invalidate a sharer

    // --- DirectoryCMP: responses ---
    InvAck,    //!< sharer -> requester invalidation ack
    Data,      //!< data, read permission (may carry acks-expected)
    DataEx,    //!< data, write permission (may carry acks-expected)
    AckCount,  //!< control: tells requester how many InvAcks to expect
    Unblock,   //!< requester -> directory: transaction complete
    UnblockEx, //!< requester -> directory: complete, now exclusive owner

    // --- DirectoryCMP: three-phase writebacks ---
    WbRequest, //!< cache asks directory for permission to write back
    WbGrant,   //!< directory grants the writeback
    WbData,    //!< the writeback data (or token/ownership return)
    WbCancel,  //!< cache lost the block while waiting for the grant
    WbAck,     //!< directory confirms writeback completion
};

/** Printable name of a message type. */
const char *msgTypeName(MsgType t);

/** Figure 7 traffic accounting categories. */
enum class TrafficClass : std::uint8_t {
    ResponseData,
    WritebackData,
    WritebackControl,
    Request,
    InvFwdAckTokens,
    Unblock,
    Persistent,
    NumClasses,
};

/** Printable name of a traffic class. */
const char *trafficClassName(TrafficClass c);

/** Wire sizes of the two message shapes (Section 8). */
inline constexpr unsigned kControlBytes = 8;
inline constexpr unsigned kDataBytes = 72;

/**
 * One coherence message. POD-style; copied by value into the network.
 *
 * Field order is load-bearing: 8-byte-aligned members first, then the
 * three 3-byte MachineIDs packed back to back, then the narrow scalars,
 * with the booleans collapsed into one flag byte. 40 bytes total (48
 * under TOKENCMP_MSG_TRACE), down from the 64 a declaration-ordered
 * layout cost — at millions of messages/sec every copy and every
 * delivery event touches fewer cache lines.
 */
struct Msg
{
    Addr addr = 0;           //!< block-aligned address
    std::uint64_t value = 0; //!< functional value of the block
    MsgSeq reqId = 0;        //!< transaction id (see MsgSeq)

    MachineID src;           //!< sending controller
    MachineID dst;           //!< receiving controller
    MachineID requestor;     //!< original requester (for responses)
    MsgType type = MsgType::TokResponse;

    // Token-protocol / directory-protocol counts. Bounded by the token
    // count (caches + 1) and the sharer count respectively — int16 is
    // orders of magnitude of headroom for any configurable system.
    std::int16_t tokens = 0; //!< tokens carried (token protocol)
    std::int16_t acks = 0;   //!< InvAcks the requester must collect

    std::uint8_t attempt = 0; //!< transient attempt number (from 1);
                              //!< lets escalation policies widen their
                              //!< destination sets on retries
    std::uint8_t prio = 0;   //!< requesting processor id (priority)

    // Flag byte (bitfields keep `m.hasData = true` call sites intact).
    bool hasData : 1 = false; //!< carries the 64-byte block payload
    bool dirty : 1 = false;   //!< payload differs from memory
    bool owner : 1 = false;   //!< carries the owner token
    bool isRead : 1 = false;  //!< persistent request is a read

    /** Wire size in bytes: 72 with data, 8 control-only (Section 8). */
    unsigned size() const { return hasData ? kDataBytes : kControlBytes; }

    /** Accounting category for Figure 7. */
    TrafficClass
    trafficClass() const
    {
        switch (type) {
          case MsgType::TokReadReq:
          case MsgType::TokWriteReq:
          case MsgType::GetS:
          case MsgType::GetX:
            return TrafficClass::Request;

          case MsgType::TokResponse:
            return hasData ? TrafficClass::ResponseData
                           : TrafficClass::InvFwdAckTokens;

          case MsgType::TokWriteback:
            return hasData ? TrafficClass::WritebackData
                           : TrafficClass::WritebackControl;

          case MsgType::PersistActivate:
          case MsgType::PersistDeactivate:
          case MsgType::PersistArbRequest:
          case MsgType::PersistArbActivate:
          case MsgType::PersistArbDeactivate:
          case MsgType::PersistArbDone:
            return TrafficClass::Persistent;

          case MsgType::FwdGetS:
          case MsgType::FwdGetX:
          case MsgType::Inv:
          case MsgType::InvAck:
          case MsgType::AckCount:
            return TrafficClass::InvFwdAckTokens;

          case MsgType::Data:
          case MsgType::DataEx:
            return TrafficClass::ResponseData;

          case MsgType::Unblock:
          case MsgType::UnblockEx:
            return TrafficClass::Unblock;

          case MsgType::WbRequest:
          case MsgType::WbGrant:
          case MsgType::WbCancel:
          case MsgType::WbAck:
            return TrafficClass::WritebackControl;

          case MsgType::WbData:
            return hasData ? TrafficClass::WritebackData
                           : TrafficClass::WritebackControl;
        }
        return TrafficClass::Request;
    }
};

// The layout contract. Trivially copyable keeps the by-value copies
// into delivery events and mailboxes a memcpy; the size asserts catch
// accidental re-widening (a stray `int` or reordered member) at
// compile time, in both reqId shapes.
static_assert(std::is_trivially_copyable_v<Msg>,
              "Msg must stay memcpy-safe for by-value delivery");
#ifdef TOKENCMP_MSG_TRACE
static_assert(sizeof(Msg) == 48 && alignof(Msg) == 8,
              "Msg (traced, 64-bit reqId) must pack to 48 bytes");
#else
static_assert(sizeof(Msg) == 40 && alignof(Msg) == 8,
              "Msg must pack to 40 bytes / 5 words");
#endif

} // namespace tokencmp

#endif // TOKENCMP_NET_MESSAGE_HH
