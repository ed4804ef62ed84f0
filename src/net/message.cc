#include "net/message.hh"

namespace tokencmp {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::TokReadReq: return "TokReadReq";
      case MsgType::TokWriteReq: return "TokWriteReq";
      case MsgType::TokResponse: return "TokResponse";
      case MsgType::TokWriteback: return "TokWriteback";
      case MsgType::PersistActivate: return "PersistActivate";
      case MsgType::PersistDeactivate: return "PersistDeactivate";
      case MsgType::PersistArbRequest: return "PersistArbRequest";
      case MsgType::PersistArbActivate: return "PersistArbActivate";
      case MsgType::PersistArbDeactivate: return "PersistArbDeactivate";
      case MsgType::PersistArbDone: return "PersistArbDone";
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetX: return "FwdGetX";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Data: return "Data";
      case MsgType::DataEx: return "DataEx";
      case MsgType::AckCount: return "AckCount";
      case MsgType::Unblock: return "Unblock";
      case MsgType::UnblockEx: return "UnblockEx";
      case MsgType::WbRequest: return "WbRequest";
      case MsgType::WbGrant: return "WbGrant";
      case MsgType::WbData: return "WbData";
      case MsgType::WbCancel: return "WbCancel";
      case MsgType::WbAck: return "WbAck";
    }
    return "?";
}

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::ResponseData: return "Response Data";
      case TrafficClass::WritebackData: return "Writeback Data";
      case TrafficClass::WritebackControl: return "Writeback Control";
      case TrafficClass::Request: return "Request";
      case TrafficClass::InvFwdAckTokens: return "Inv/Fwd/Acks/Tokens";
      case TrafficClass::Unblock: return "Unblock";
      case TrafficClass::Persistent: return "Persistent";
      case TrafficClass::NumClasses: break;
    }
    return "?";
}

} // namespace tokencmp
