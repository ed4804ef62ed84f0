/**
 * @file
 * Unit tests for the token substrate components: the auditor's
 * invariants (also with its stripes locked and two threads auditing
 * at once), the persistent-request table (priority, marking,
 * sequence robustness), the forwarding plan, the contention
 * predictor, and the sharer filter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/contention_predictor.hh"
#include "core/persistent_table.hh"
#include "core/sharer_filter.hh"
#include "core/token_auditor.hh"
#include "core/token_common.hh"

namespace tokencmp {

TEST(TokenAuditor, ConservationAcrossTransfers)
{
    TokenAuditor a(49);
    a.initBlock(0x1000);
    a.onSend(0x1000, 9, true, true);
    a.onReceive(0x1000, 9, true);
    a.onSend(0x1000, 4, false, false);
    a.onReceive(0x1000, 4, false);
    a.checkAll(true);
    EXPECT_EQ(a.trackedBlocks(), 1u);
    EXPECT_EQ(a.transfers(), 2u);
}

TEST(TokenAuditor, DetectsTokenCreation)
{
    TokenAuditor a(10);
    a.initBlock(0x40);
    a.onSend(0x40, 10, true, true);
    // Receiving more tokens than were sent violates conservation
    // (caught as a negative in-flight count).
    EXPECT_DEATH(a.onReceive(0x40, 11, true), "negative|conservation");
}

TEST(TokenAuditor, DetectsOwnerWithoutData)
{
    TokenAuditor a(10);
    a.initBlock(0x40);
    EXPECT_DEATH(a.onSend(0x40, 1, true, false), "owner");
}

TEST(TokenAuditor, DetectsLossAtQuiescence)
{
    TokenAuditor a(10);
    a.initBlock(0x40);
    a.onSend(0x40, 3, false, false);
    EXPECT_DEATH(a.checkAll(true), "in flight");
}

TEST(TokenAuditor, DetectsDoubleInit)
{
    TokenAuditor a(10);
    a.initBlock(0x40);
    // Any address inside the block names the same block.
    EXPECT_DEATH(a.initBlock(0x47), "initialized twice");
}

TEST(TokenAuditor, DetectsSendForUntrackedBlock)
{
    TokenAuditor a(10);
    a.initBlock(0x40);
    EXPECT_DEATH(a.onSend(0x80, 1, false, false), "untracked");
}

TEST(TokenAuditor, ThreadSafeStillPanicsOnViolations)
{
    TokenAuditor a(10);
    a.setThreadSafe(true);
    a.initBlock(0x40);
    a.onSend(0x40, 10, true, true);
    EXPECT_DEATH(a.onReceive(0x40, 11, true), "negative|conservation");
    a.initBlock(0x80);
    a.onSend(0x80, 1, true, true);
    EXPECT_DEATH(a.onSend(0x80, 1, true, true), "owner multiplicity");
}

TEST(TokenAuditor, ConcurrentTransfersAcrossStripes)
{
    // Two threads, as two shard domains would, move tokens for the
    // same blocks at the same time, over blocks spanning every stripe
    // four times. Each moves the owner token only of its own half, as
    // only one holder can own a block.
    constexpr int total = 16;
    constexpr unsigned blocks = 4 * TokenAuditor::numStripes;
    constexpr unsigned rounds = 500;
    TokenAuditor a(total);
    a.setThreadSafe(true);
    for (unsigned b = 0; b < blocks; ++b)
        a.initBlock(Addr(b) * blockBytes);

    std::atomic<bool> go{false};
    auto mover = [&a, &go](unsigned self) {
        while (!go.load())
            std::this_thread::yield();
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned b = 0; b < blocks; ++b) {
                const Addr addr = Addr(b) * blockBytes;
                const bool owner = b % 2 == self;
                const int tokens = 1 + int((b + r + self) % 3);
                a.onSend(addr, tokens, owner, owner);
                a.onReceive(addr, tokens, owner);
            }
        }
    };
    std::thread t0(mover, 0u);
    std::thread t1(mover, 1u);
    go.store(true);
    t0.join();
    t1.join();

    a.checkAll(true);
    EXPECT_EQ(a.trackedBlocks(), std::size_t(blocks));
    EXPECT_EQ(a.transfers(), std::uint64_t(2) * rounds * blocks);
}

TEST(PersistentTable, HighestPriorityWins)
{
    PersistentTable t(16);
    MachineID m5{MachineType::L1D, 1, 1};
    MachineID m2{MachineType::L1D, 0, 2};
    t.insert(5, 0x1000, false, m5, 1);
    EXPECT_EQ(t.activeFor(0x1000), 5);
    t.insert(2, 0x1000, false, m2, 1);
    EXPECT_EQ(t.activeFor(0x1000), 2);  // lower proc number wins
    t.erase(2);
    EXPECT_EQ(t.activeFor(0x1000), 5);
    t.erase(5);
    EXPECT_EQ(t.activeFor(0x1000), -1);
}

TEST(PersistentTable, PerBlockIsolation)
{
    PersistentTable t(16);
    MachineID m{MachineType::L1D, 0, 0};
    t.insert(3, 0x1000, false, m, 1);
    t.insert(4, 0x2000, true, m, 1);
    EXPECT_EQ(t.activeFor(0x1000), 3);
    EXPECT_EQ(t.activeFor(0x2000), 4);
    EXPECT_EQ(t.numValid(), 2u);
}

TEST(PersistentTable, ValidCountSurvivesReinsertAndEmptyErase)
{
    // The count is what lets activeFor/markAllFor/anyMarkedFor skip
    // the scan on an empty table, so it must not drift when a valid
    // slot is overwritten or an empty slot is erased.
    PersistentTable t(16);
    MachineID m{MachineType::L1D, 0, 0};
    t.erase(9);  // never valid
    EXPECT_EQ(t.numValid(), 0u);
    t.insert(3, 0x1000, false, m, 1);
    t.insert(3, 0x2000, true, m, 2);  // re-insert into a valid slot
    EXPECT_EQ(t.numValid(), 1u);
    EXPECT_EQ(t.activeFor(0x1000), -1);
    EXPECT_EQ(t.activeFor(0x2000), 3);
    t.markAllFor(0x2000);
    EXPECT_TRUE(t.anyMarkedFor(0x2000));
    t.erase(3);
    t.erase(3);  // already empty
    EXPECT_EQ(t.numValid(), 0u);
    EXPECT_EQ(t.activeFor(0x2000), -1);
    EXPECT_FALSE(t.anyMarkedFor(0x2000));
    t.insert(5, 0x2000, false, m, 3);
    EXPECT_EQ(t.numValid(), 1u);
    EXPECT_EQ(t.activeFor(0x2000), 5);
    EXPECT_FALSE(t.anyMarkedFor(0x2000));  // a fresh entry is unmarked
}

TEST(PersistentTable, MarkingGatesReissue)
{
    PersistentTable t(16);
    MachineID m{MachineType::L1D, 0, 0};
    t.insert(3, 0x1000, false, m, 1);
    t.insert(7, 0x1000, false, m, 1);
    EXPECT_FALSE(t.anyMarkedFor(0x1000));
    t.markAllFor(0x1000);
    EXPECT_TRUE(t.anyMarkedFor(0x1000));
    t.erase(3);
    EXPECT_TRUE(t.anyMarkedFor(0x1000));  // 7 still marked
    t.erase(7);
    EXPECT_FALSE(t.anyMarkedFor(0x1000)); // wave drained
}

TEST(PlanPersistentForward, WriteTakesEverything)
{
    TokenSt line;
    line.tokens = 9;
    line.owner = true;
    line.validData = true;
    auto plan = planPersistentForward(line, false, true);
    EXPECT_EQ(plan.sendTokens, 9);
    EXPECT_TRUE(plan.sendOwner);
    EXPECT_TRUE(plan.sendData);
}

TEST(PlanPersistentForward, ReadKeepsOneToken)
{
    TokenSt line;
    line.tokens = 9;
    line.owner = false;
    line.validData = true;
    auto plan = planPersistentForward(line, true, true);
    EXPECT_EQ(plan.sendTokens, 8);
    EXPECT_FALSE(plan.sendOwner);
    EXPECT_FALSE(plan.sendData);
}

TEST(PlanPersistentForward, ReadFromSoleOwnerGivesEverything)
{
    TokenSt line;
    line.tokens = 1;
    line.owner = true;
    line.validData = true;
    auto plan = planPersistentForward(line, true, true);
    // Data must travel with a token, so the lone owner token goes.
    EXPECT_EQ(plan.sendTokens, 1);
    EXPECT_TRUE(plan.sendOwner);
    EXPECT_TRUE(plan.sendData);
}

TEST(PlanPersistentForward, ReadFromRichOwnerKeepsPlainToken)
{
    TokenSt line;
    line.tokens = 5;
    line.owner = true;
    line.validData = true;
    auto plan = planPersistentForward(line, true, true);
    EXPECT_EQ(plan.sendTokens, 4);
    EXPECT_TRUE(plan.sendOwner);
    EXPECT_TRUE(plan.sendData);
}

TEST(PlanPersistentForward, MemoryGivesAll)
{
    TokenSt line;
    line.tokens = 49;
    line.owner = true;
    line.validData = true;
    auto plan = planPersistentForward(line, true, false);
    EXPECT_EQ(plan.sendTokens, 49);
    EXPECT_TRUE(plan.sendOwner);
    EXPECT_TRUE(plan.sendData);
}

TEST(PlanPersistentForward, SingleTokenNonOwnerReadSendsNothing)
{
    TokenSt line;
    line.tokens = 1;
    line.owner = false;
    line.validData = true;
    auto plan = planPersistentForward(line, true, true);
    EXPECT_TRUE(plan.empty());
}

TEST(ContentionPredictor, SaturatesAfterRetries)
{
    ContentionPredictor p;
    Random rng(1);
    EXPECT_FALSE(p.predictContended(0x1000));
    p.recordRetry(0x1000, rng);
    EXPECT_FALSE(p.predictContended(0x1000));  // counter == 1
    p.recordRetry(0x1000, rng);
    EXPECT_TRUE(p.predictContended(0x1000));   // counter == 2
    p.recordSuccess(0x1000);
    p.recordSuccess(0x1000);
    EXPECT_FALSE(p.predictContended(0x1000));
}

TEST(ContentionPredictor, DistinctBlocksIndependent)
{
    ContentionPredictor p;
    Random rng(2);
    for (int i = 0; i < 3; ++i)
        p.recordRetry(0x1000, rng);
    EXPECT_TRUE(p.predictContended(0x1000));
    EXPECT_FALSE(p.predictContended(0x2000));
}

TEST(SharerFilter, TracksAddAndRemove)
{
    SharerFilter f;
    EXPECT_EQ(f.sharers(0x1000), 0u);
    f.addSharer(0x1000, 3);
    f.addSharer(0x1000, 5);
    EXPECT_EQ(f.sharers(0x1000), (1u << 3) | (1u << 5));
    f.removeSharer(0x1000, 3);
    EXPECT_EQ(f.sharers(0x1000), 1u << 5);
}

TEST(SharerFilter, BoundedCapacity)
{
    SharerFilter f(16);
    for (unsigned i = 0; i < 64; ++i)
        f.addSharer(0x1000 + i * 64, 1);
    EXPECT_LE(f.size(), 17u);
}

TEST(SharerFilter, FullTableEvictsOnlyTheInsertingSetsVictim)
{
    // 16 entries, 4 ways -> 4 sets; blocks are 64 bytes, so block i
    // maps to set i % 4. Fill every way of every set.
    SharerFilter f(16, 4);
    for (unsigned i = 0; i < 16; ++i)
        f.addSharer(Addr(i) * blockBytes, i % 8);
    EXPECT_EQ(f.size(), 16u);

    // Insert one more block mapping to set 0: only set 0's LRU entry
    // (block 0, the oldest insert) may be evicted — no global flush.
    f.addSharer(Addr(16) * blockBytes, 7);
    EXPECT_EQ(f.size(), 16u);
    EXPECT_EQ(f.sharers(Addr(16) * blockBytes), 1u << 7);
    EXPECT_EQ(f.sharers(0), 0u) << "set 0's LRU victim is evicted";
    for (unsigned i = 1; i < 16; ++i) {
        EXPECT_EQ(f.sharers(Addr(i) * blockBytes), 1u << (i % 8))
            << "entry " << i << " must survive an insert into set 0";
    }
}

TEST(SharerFilter, RejectsInvalidGeometry)
{
    EXPECT_DEATH(SharerFilter(10, 4), "multiple of ways");
    EXPECT_DEATH(SharerFilter(16, 0), "multiple of ways");
}

TEST(ContentionPredictor, RejectsInvalidGeometry)
{
    // entries % ways != 0 used to silently truncate the set count.
    EXPECT_DEATH(ContentionPredictor(10, 4), "multiple of ways");
    EXPECT_DEATH(ContentionPredictor(256, 0), "multiple of ways");
}

TEST(PersistTargets, CoversAllCachesAndHome)
{
    Topology topo;
    const Addr addr = 0x1000;
    MachineID self = topo.l1d(0, 0);
    std::vector<MachineID> targets;
    persistTargets(topo, addr, self, targets);
    // 32 L1s - self + 4 L2 banks + 1 home.
    EXPECT_EQ(targets.size(), 31u + 4u + 1u);
    for (const auto &t : targets)
        EXPECT_FALSE(t == self);
}

} // namespace tokencmp
