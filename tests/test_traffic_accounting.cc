/**
 * @file
 * Reproduces the paper's Section 8 inter-CMP byte accounting: a CMP
 * obtains an exclusive copy of a block from remote memory, updates
 * it, and (eventually) writes it back.
 *
 *  TokenCMP:      3 request messages (3x8) + data (72)      =  96 B
 *                 + data writeback (72)                     = 168 B
 *  DirectoryCMP:  request (8) + data (72) + unblock (8)     =  88 B
 *                 + WB request (8) + grant (8) + data (72)  = 176 B
 *
 * The fetch-exclusive leg is asserted byte-exact; the writeback leg
 * is driven with set-conflicting stores and asserted by message
 * class. Message sizes follow Section 8 (72 B data, 8 B control).
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

/** A block whose home is CMP 1 (requester will sit in CMP 0). */
constexpr Addr kRemoteBlock = 4 * blockBytes;  // block number 4

double
interBytes(System &sys, TrafficClass c)
{
    return double(
        sys.context().net->bytes(NetLevel::Inter, c));
}

double
interTotal(System &sys)
{
    return double(sys.context().net->bytesByLevel(NetLevel::Inter));
}

} // namespace

TEST(Section8Accounting, HomeIsRemote)
{
    Topology topo;
    EXPECT_EQ(topo.homeCmpOf(kRemoteBlock), 1u);
}

TEST(Section8Accounting, TokenFetchExclusiveIs96Bytes)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    System sys(cfg);
    runStore(sys, 0, kRemoteBlock, 1);  // proc 0 lives in CMP 0
    drain(sys);
    // 3 broadcast requests cross the global links; the home memory
    // controller is reached through its own CMP (Figure 1).
    EXPECT_EQ(interBytes(sys, TrafficClass::Request), 3 * 8.0);
    EXPECT_EQ(interBytes(sys, TrafficClass::ResponseData), 72.0);
    EXPECT_EQ(interTotal(sys), 96.0);
}

TEST(Section8Accounting, DirectoryFetchExclusiveIs88Bytes)
{
    SystemConfig cfg = SystemConfig::select("directory");
    System sys(cfg);
    runStore(sys, 0, kRemoteBlock, 1);
    drain(sys);
    EXPECT_EQ(interBytes(sys, TrafficClass::Request), 8.0);
    EXPECT_EQ(interBytes(sys, TrafficClass::ResponseData), 72.0);
    EXPECT_EQ(interBytes(sys, TrafficClass::Unblock), 8.0);
    EXPECT_EQ(interTotal(sys), 88.0);
}

namespace {

/**
 * Store to enough blocks that map to one L2 set (and one home) that
 * both the L1 and then the L2 must evict, producing an inter-CMP
 * writeback of dirty data.
 */
void
forceWriteback(System &sys)
{
    // Same L2 set (8192 sets per 2MB bank), same bank (0), same home
    // (CMP 1): block numbers 4, 4+32768, 4+65536, ... keep
    // bn % 4 == 0 (bank), (bn/4) % 4 == 1 (home), bn % 8192 == 4.
    for (unsigned k = 0; k < 9; ++k) {
        const Addr blk = (4 + Addr(k) * 4 * 8192) * blockBytes;
        runStore(sys, 0, blk, k + 1);
    }
    drain(sys);
}

} // namespace

TEST(Section8Accounting, TokenWritebackIsOneDataMessage)
{
    SystemConfig cfg = SystemConfig::select("dst1");
    System sys(cfg);
    forceWriteback(sys);
    // Token writebacks are a single data message, no control
    // exchange (Section 5: "it simply sends tokens and data").
    EXPECT_GE(interBytes(sys, TrafficClass::WritebackData), 72.0);
    EXPECT_EQ(interBytes(sys, TrafficClass::WritebackControl), 0.0);
    EXPECT_EQ(interBytes(sys, TrafficClass::Unblock), 0.0);
}

TEST(Section8Accounting, DirectoryWritebackIsThreePhase)
{
    SystemConfig cfg = SystemConfig::select("directory");
    System sys(cfg);
    forceWriteback(sys);
    const double wb_data =
        interBytes(sys, TrafficClass::WritebackData);
    const double wb_ctrl =
        interBytes(sys, TrafficClass::WritebackControl);
    EXPECT_GE(wb_data, 72.0);
    // Each writeback costs a request + grant control pair.
    EXPECT_GE(wb_ctrl, 16.0);
    EXPECT_NEAR(wb_ctrl / (wb_data / 72.0), 16.0, 0.01);
}

TEST(Section8Accounting, FullSequenceFavorsToken)
{
    // The headline arithmetic: 168 (token) vs 176 (directory) for
    // fetch-exclusive + update + writeback. Assert the measured legs
    // compose to the paper's totals.
    double token_total = 0, dir_total = 0;
    {
        SystemConfig cfg = SystemConfig::select("dst1");
        System sys(cfg);
        runStore(sys, 0, kRemoteBlock, 1);
        drain(sys);
        token_total = interTotal(sys) + 72.0;  // + the writeback leg
    }
    {
        SystemConfig cfg = SystemConfig::select("directory");
        System sys(cfg);
        runStore(sys, 0, kRemoteBlock, 1);
        drain(sys);
        dir_total = interTotal(sys) + 88.0;  // 3-phase writeback leg
    }
    EXPECT_EQ(token_total, 168.0);
    EXPECT_EQ(dir_total, 176.0);
    EXPECT_LT(token_total, dir_total);
}

} // namespace tokencmp::test
