/**
 * @file
 * Unit tests for the directory substrate (directory/dir_common.hh):
 * the HomeFetch collector under every arrival order, the PendingWb
 * writeback buffer's replies in both the L1 and the chip flavour, and
 * the message builders they share.
 */

#include <gtest/gtest.h>

#include "directory/dir_common.hh"

namespace tokencmp {

namespace {

const MachineID kL1{MachineType::L1D, 0, 1};
const MachineID kOtherL1{MachineType::L1D, 0, 2};
const MachineID kL2{MachineType::L2Bank, 0, 3};
const MachineID kRemoteL2{MachineType::L2Bank, 2, 3};
const MachineID kHome{MachineType::Mem, 1, 0};
constexpr Addr kAddr = 0x1c0;

Msg
fromHome(MsgType type, int acks, std::uint64_t value = 0,
         bool dirty = false)
{
    Msg m = dirMsg(type, kAddr, kL2, kL2);
    m.src = kHome;
    m.acks = std::int16_t(acks);
    if (type == MsgType::Data || type == MsgType::DataEx) {
        m.hasData = true;
        m.value = value;
        m.dirty = dirty;
    }
    return m;
}

Msg
remoteInvAck()
{
    Msg m = invAckMsg(kAddr, kL2, kRemoteL2);
    m.src = kRemoteL2;
    return m;
}

} // namespace

TEST(HomeFetch, DataBeforeAcks)
{
    HomeFetch f;
    EXPECT_FALSE(f.ready());
    f.absorb(fromHome(MsgType::DataEx, 2, 7, true));
    EXPECT_FALSE(f.ready());
    f.absorb(remoteInvAck());
    EXPECT_FALSE(f.ready());
    f.absorb(remoteInvAck());
    EXPECT_TRUE(f.ready());
    EXPECT_TRUE(f.exclusive);
    EXPECT_TRUE(f.dirty);
    EXPECT_EQ(f.value, 7u);
}

TEST(HomeFetch, AckCountFirstIsNotOverriddenByData)
{
    HomeFetch f;
    f.absorb(fromHome(MsgType::AckCount, 1));
    f.absorb(remoteInvAck());
    EXPECT_FALSE(f.ready()) << "no data yet";
    // The data's own count arrives late and must not replace the
    // AckCount's.
    f.absorb(fromHome(MsgType::DataEx, 3, 9));
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.acksNeeded, 1);
    EXPECT_EQ(f.value, 9u);
}

TEST(HomeFetch, InvAcksBeforeTheirCount)
{
    HomeFetch f;
    f.absorb(remoteInvAck());
    f.absorb(remoteInvAck());
    EXPECT_FALSE(f.ready()) << "count unknown";
    f.absorb(fromHome(MsgType::DataEx, 2, 4));
    EXPECT_TRUE(f.ready());
}

TEST(HomeFetch, SharedDataWithoutAcks)
{
    HomeFetch f;
    f.absorb(fromHome(MsgType::Data, 0, 5));
    EXPECT_TRUE(f.ready());
    EXPECT_FALSE(f.exclusive);
    EXPECT_EQ(f.value, 5u);
}

TEST(HomeFetch, OwnerUpgradeCompletesOnAckCount)
{
    HomeFetch f;
    f.preset(11, true);
    EXPECT_FALSE(f.ready()) << "count unknown";
    f.absorb(fromHome(MsgType::AckCount, 0));
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.value, 11u);
    EXPECT_TRUE(f.dirty);
    EXPECT_FALSE(f.exclusive);
}

TEST(HomeFetch, OwnerUpgradeLosingItsDataWaitsForDataEx)
{
    HomeFetch f;
    f.preset(11, true);
    // A racing Fwd-GetX hands the chip's copy away.
    f.hasData = false;
    f.absorb(fromHome(MsgType::AckCount, 0));
    EXPECT_FALSE(f.ready()) << "the preset data is gone";
    f.absorb(fromHome(MsgType::DataEx, 0, 12));
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.value, 12u);
    EXPECT_FALSE(f.dirty);
    EXPECT_TRUE(f.exclusive);
}

TEST(HomeFetch, UnblockFollowsExclusivity)
{
    HomeFetch shared;
    shared.absorb(fromHome(MsgType::Data, 0));
    Msg u = shared.unblock(kAddr, kHome, kL2, false);
    EXPECT_EQ(u.type, MsgType::Unblock);
    EXPECT_EQ(u.addr, kAddr);
    EXPECT_EQ(u.dst, kHome);
    EXPECT_EQ(u.requestor, kL2);
    EXPECT_FALSE(u.hasData);
    EXPECT_EQ(shared.unblock(kAddr, kHome, kL2, true).type,
              MsgType::UnblockEx);

    HomeFetch granted;
    granted.absorb(fromHome(MsgType::DataEx, 0));
    EXPECT_EQ(granted.unblock(kAddr, kHome, kL2, false).type,
              MsgType::UnblockEx);
}

TEST(HomeFetchDeathTest, RejectsOtherMessages)
{
    HomeFetch f;
    EXPECT_DEATH(f.absorb(fromHome(MsgType::WbGrant, 0)), "cannot absorb");
}

TEST(PendingWb, RequestOpensTheWindow)
{
    Msg r = PendingWb::request(kAddr, kHome, kL2);
    EXPECT_EQ(r.type, MsgType::WbRequest);
    EXPECT_EQ(r.addr, kAddr);
    EXPECT_EQ(r.dst, kHome);
    EXPECT_EQ(r.requestor, kL2);
    EXPECT_FALSE(r.hasData);
}

namespace {

/** A forward or Inv as the L2 sends it to an L1. */
Msg
toL1(MsgType type)
{
    Msg m = dirMsg(type, kAddr, kL1, kOtherL1, 17);
    m.src = kL2;
    return m;
}

/** A forward or Inv as the home sends it to a chip agent. */
Msg
toChip(MsgType type, int acks)
{
    Msg m = dirMsg(type, kAddr, kL2, kRemoteL2);
    m.src = kHome;
    m.acks = std::int16_t(acks);
    return m;
}

} // namespace

TEST(PendingWb, L1AnswersInvThroughItsL2)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toL1(MsgType::Inv), kL1, false);
    EXPECT_EQ(r.type, MsgType::InvAck);
    EXPECT_EQ(r.dst, kL2);
    EXPECT_EQ(r.requestor, kL1);
    EXPECT_EQ(r.reqId, 17u);
    EXPECT_EQ(r.acks, 1);
    EXPECT_FALSE(r.hasData);
    EXPECT_FALSE(wb.cancelled);
}

TEST(PendingWb, L1SharedReplyKeepsDirty)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toL1(MsgType::FwdGetS), kL1, false);
    EXPECT_EQ(r.type, MsgType::Data);
    EXPECT_EQ(r.dst, kL2) << "L1 data routes through its L2";
    EXPECT_EQ(r.requestor, kOtherL1);
    EXPECT_EQ(r.reqId, 17u);
    EXPECT_TRUE(r.hasData);
    EXPECT_EQ(r.value, 5u);
    EXPECT_TRUE(r.dirty) << "the L2 becomes the on-chip authority";
    EXPECT_FALSE(wb.cancelled);
}

TEST(PendingWb, L1ExclusiveReplyCancels)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toL1(MsgType::FwdGetX), kL1, false);
    EXPECT_EQ(r.type, MsgType::DataEx);
    EXPECT_EQ(r.dst, kL2);
    EXPECT_EQ(r.requestor, kOtherL1);
    EXPECT_EQ(r.reqId, 17u);
    EXPECT_EQ(r.value, 5u);
    EXPECT_TRUE(r.dirty);
    EXPECT_TRUE(wb.cancelled);
}

TEST(PendingWb, ChipAnswersInvToTheCollector)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toChip(MsgType::Inv, 0), kL2, true);
    EXPECT_EQ(r.type, MsgType::InvAck);
    EXPECT_EQ(r.dst, kRemoteL2);
    EXPECT_EQ(r.requestor, kL2);
    EXPECT_EQ(r.acks, 1);
    EXPECT_FALSE(r.hasData);
    EXPECT_FALSE(wb.cancelled);
}

TEST(PendingWb, ChipSharedReplyIsClean)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toChip(MsgType::FwdGetS, 0), kL2, true);
    EXPECT_EQ(r.type, MsgType::Data);
    EXPECT_EQ(r.dst, kRemoteL2) << "chip data goes straight to the requester";
    EXPECT_EQ(r.requestor, kRemoteL2);
    EXPECT_TRUE(r.hasData);
    EXPECT_EQ(r.value, 5u);
    EXPECT_FALSE(r.dirty) << "the home keeps this chip as owner";
    EXPECT_FALSE(wb.cancelled);
}

TEST(PendingWb, ChipExclusiveReplyCarriesAcksAndCancels)
{
    PendingWb wb{5, true};
    Msg r = wb.reply(toChip(MsgType::FwdGetX, 2), kL2, true);
    EXPECT_EQ(r.type, MsgType::DataEx);
    EXPECT_EQ(r.dst, kRemoteL2);
    EXPECT_EQ(r.acks, 2);
    EXPECT_EQ(r.value, 5u);
    EXPECT_TRUE(r.dirty);
    EXPECT_TRUE(wb.cancelled);
}

TEST(PendingWb, GrantReplies)
{
    PendingWb dirty{5, true};
    Msg d = dirty.grantReply(kAddr, kHome, kL2);
    EXPECT_EQ(d.type, MsgType::WbData);
    EXPECT_EQ(d.dst, kHome);
    EXPECT_EQ(d.requestor, kL2);
    EXPECT_TRUE(d.hasData);
    EXPECT_TRUE(d.dirty);
    EXPECT_EQ(d.value, 5u);
    EXPECT_EQ(d.size(), kDataBytes);

    PendingWb clean{5, false};
    Msg c = clean.grantReply(kAddr, kHome, kL2);
    EXPECT_EQ(c.type, MsgType::WbData);
    EXPECT_FALSE(c.hasData) << "a clean writeback returns only ownership";
    EXPECT_EQ(c.size(), kControlBytes);

    PendingWb lost{5, true};
    lost.reply(toChip(MsgType::FwdGetX, 0), kL2, true);
    Msg x = lost.grantReply(kAddr, kHome, kL2);
    EXPECT_EQ(x.type, MsgType::WbCancel);
    EXPECT_EQ(x.dst, kHome);
    EXPECT_FALSE(x.hasData);
}

TEST(DirBuilders, DataAndInvAck)
{
    Msg d = dataMsg(true, kAddr, kL2, kL1, 3, true);
    EXPECT_EQ(d.type, MsgType::DataEx);
    EXPECT_EQ(d.dst, kL2);
    EXPECT_EQ(d.requestor, kL1);
    EXPECT_TRUE(d.hasData);
    EXPECT_TRUE(d.dirty);
    EXPECT_EQ(d.value, 3u);
    EXPECT_EQ(d.acks, 0);
    EXPECT_EQ(dataMsg(false, kAddr, kL2, kL1, 3, false).type,
              MsgType::Data);

    Msg a = invAckMsg(kAddr, kL2, kL1, 9);
    EXPECT_EQ(a.type, MsgType::InvAck);
    EXPECT_EQ(a.requestor, kL1);
    EXPECT_EQ(a.reqId, 9u);
    EXPECT_EQ(a.acks, 1);
    EXPECT_FALSE(a.hasData);
}

} // namespace tokencmp
