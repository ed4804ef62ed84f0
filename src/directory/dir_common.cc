#include "directory/dir_common.hh"

#include "sim/logging.hh"

namespace tokencmp {

Msg
PendingWb::request(Addr addr, const MachineID &dst, const MachineID &self)
{
    return dirMsg(MsgType::WbRequest, addr, dst, self);
}

Msg
PendingWb::reply(const Msg &m, const MachineID &self, bool chip)
{
    const MachineID &dst = chip ? m.requestor : m.src;
    if (m.type == MsgType::Inv)
        return invAckMsg(m.addr, dst, self, m.reqId);
    const bool exclusive = m.type == MsgType::FwdGetX;
    if (exclusive)
        cancelled = true;  // ownership moved; cancel on the grant
    Msg r = dataMsg(exclusive, m.addr, dst, m.requestor, value,
                    dirty && (exclusive || !chip));
    r.reqId = m.reqId;
    r.acks = m.acks;
    return r;
}

Msg
PendingWb::grantReply(Addr addr, const MachineID &dst,
                      const MachineID &self) const
{
    Msg r = dirMsg(MsgType::WbData, addr, dst, self);
    if (cancelled) {
        r.type = MsgType::WbCancel;
        return r;
    }
    r.hasData = dirty;
    r.value = value;
    r.dirty = dirty;
    return r;
}

void
HomeFetch::absorb(const Msg &m)
{
    switch (m.type) {
      case MsgType::AckCount:
        acksNeeded = m.acks;
        return;
      case MsgType::InvAck:
        ++acksGot;
        return;
      case MsgType::Data:
      case MsgType::DataEx:
        hasData = true;
        value = m.value;
        dirty = m.dirty;
        if (m.type == MsgType::DataEx)
            exclusive = true;
        if (acksNeeded < 0)
            acksNeeded = m.acks;
        return;
      default:
        panic("home fetch cannot absorb %s", msgTypeName(m.type));
    }
}

Msg
HomeFetch::unblock(Addr addr, const MachineID &home, const MachineID &self,
                   bool for_write) const
{
    return dirMsg(for_write || exclusive ? MsgType::UnblockEx
                                         : MsgType::Unblock,
                  addr, home, self);
}

} // namespace tokencmp
