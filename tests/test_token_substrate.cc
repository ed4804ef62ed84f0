/**
 * @file
 * The token correctness substrate on its own terms: PersistentArbiter's
 * queueing rules driven directly (FIFO handoff, a Done that removes its
 * still-queued request, a Done that overtakes its own request), and the
 * paper's central split under a hostile performance policy — random
 * transient budgets, random persistent predictions, empty / partial /
 * duplicated destination sets and random relay masks may cost
 * performance, never safety or starvation freedom.
 */

#include <gtest/gtest.h>

#include "core/token_mem.hh"
#include "test_util.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

namespace {

// ---- PersistentArbiter ----------------------------------------------

constexpr Addr kArbAddr = 0x40000;

Msg
arbMsg(MsgType type, unsigned prio, MsgSeq seq)
{
    Msg m;
    m.type = type;
    m.addr = kArbAddr;
    m.prio = std::uint8_t(prio);
    m.reqId = seq;
    m.requestor = MachineID{MachineType::L1D, std::uint8_t(prio / 4),
                            std::uint8_t(prio % 4)};
    return m;
}

/**
 * An arbiter hosted by a fresh system's memory controller. Its
 * broadcasts target nobody, and the host holds no block at kArbAddr,
 * so the host's persistent table is the arbiter's only visible
 * effect.
 */
class ArbiterTest : public ::testing::Test
{
  protected:
    void request(unsigned prio, MsgSeq seq)
    {
        arb.onRequest(arbMsg(MsgType::PersistArbRequest, prio, seq));
    }

    void done(unsigned prio, MsgSeq seq)
    {
        arb.onDone(arbMsg(MsgType::PersistArbDone, prio, seq));
    }

    /** The processor whose request is active, or -1. */
    int
    active() const
    {
        return host.persistentTable().activeFor(kArbAddr);
    }

    System sys{SystemConfig{}};
    TokenMem &host = *sys.controller<TokenMem>(0);
    PersistentArbiter arb{host,
                          [](Addr) { return std::vector<MachineID>{}; },
                          0};
};

// ---- Hostile performance policy -------------------------------------

/** Draws every performance decision from its own seeded stream. */
class ChaosPolicy : public PerformancePolicy
{
  public:
    ChaosPolicy(const PolicyEnv &env, PersistentActivation activation)
        : PerformancePolicy(env), _activation(activation),
          _rng(env.ctx->rng.uniform(~std::uint64_t(0)) ^
               (std::uint64_t(env.self.type) << 48) ^
               (std::uint64_t(env.self.cmp) << 24) ^ env.self.index)
    {}

    unsigned
    maxTransients(bool) const override
    {
        return unsigned(_rng.uniform(5));
    }

    PersistentActivation
    activation() const override
    {
        return _activation;
    }

    bool
    shouldGoPersistent(Addr, unsigned) override
    {
        return _rng.chance(0.2);
    }

    void
    destinationSet(Addr addr, DestKind kind, bool, unsigned,
                   std::vector<MachineID> &out) override
    {
        std::vector<MachineID> all;
        broadcastSet(addr, kind, all);
        switch (_rng.uniform(3)) {
          case 0:
            return;  // reaches nobody
          case 1:
            for (const MachineID &t : all) {
                if (_rng.chance(0.5))
                    out.push_back(t);
            }
            return;
          default:
            for (const MachineID &t : all) {
                out.push_back(t);
                if (_rng.chance(0.3))
                    out.push_back(t);  // duplicated request
            }
        }
    }

    std::uint32_t
    filterExternal(Addr) override
    {
        return std::uint32_t(_rng.uniform(std::uint64_t(1) << 32));
    }

  private:
    PersistentActivation _activation;
    mutable Random _rng;
};

const PolicyRegistrar regChaosDst("chaos-dst", [](const PolicyEnv &env) {
    return std::make_unique<ChaosPolicy>(env,
                                         PersistentActivation::Distributed);
});

const PolicyRegistrar regChaosArb("chaos-arb", [](const PolicyEnv &env) {
    return std::make_unique<ChaosPolicy>(env, PersistentActivation::Arbiter);
});

/** Run `wl` under `policy`; run() audits quiescence (fatal) itself. */
System::RunResult
runChaos(const char *policy, std::uint64_t seed, Workload &wl)
{
    SystemConfig cfg = SystemConfig::select(policy);
    cfg.seed = seed;
    System sys(cfg);
    wl.reset();
    System::RunResult r = sys.run(wl);
    sys.verifyQuiescent(true);
    return r;
}

} // namespace

TEST_F(ArbiterTest, HandsOffInArrivalOrderNotPriorityOrder)
{
    request(3, 1);
    request(1, 1);
    request(2, 1);
    EXPECT_EQ(active(), 3);
    EXPECT_EQ(arb.stats.queueMax, 2u);
    done(3, 1);
    EXPECT_EQ(active(), 1);
    done(1, 1);
    EXPECT_EQ(active(), 2);
    done(2, 1);
    EXPECT_EQ(active(), -1);
    EXPECT_EQ(arb.stats.activations, 3u);
}

TEST_F(ArbiterTest, DoneForQueuedRequestRemovesIt)
{
    request(1, 1);
    request(2, 1);
    request(3, 1);
    done(2, 1);  // completed before the arbiter activated it
    EXPECT_EQ(active(), 1);
    done(1, 1);
    EXPECT_EQ(active(), 3);
    done(3, 1);
    EXPECT_EQ(active(), -1);
    EXPECT_EQ(arb.stats.activations, 2u);
}

TEST_F(ArbiterTest, DoneOvertakingItsRequestDiscardsTheRequest)
{
    done(2, 5);     // idle arbiter: the Done overtook its request
    request(2, 5);  // the stale request must never activate
    EXPECT_EQ(active(), -1);
    EXPECT_EQ(arb.stats.activations, 0u);

    request(1, 1);
    done(3, 7);     // busy arbiter, nothing queued for proc 3
    request(3, 7);
    EXPECT_EQ(arb.stats.queueMax, 0u);
    done(1, 1);
    EXPECT_EQ(active(), -1);
    EXPECT_EQ(arb.stats.activations, 1u);

    // Orphans match (processor, sequence): proc 2's next request runs.
    request(2, 6);
    EXPECT_EQ(active(), 2);
}

TEST(ChaosPolicy, LockingCompletesUnderHostilePolicies)
{
    LockingParams lp;
    lp.numLocks = 4;
    lp.acquiresPerProc = 8;
    for (const char *policy : {"chaos-dst", "chaos-arb"}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(std::string(policy) + " seed " +
                         std::to_string(seed));
            LockingWorkload wl(lp);
            const System::RunResult r = runChaos(policy, seed, wl);
            EXPECT_TRUE(r.completed);
            EXPECT_EQ(r.violations, 0u);
            EXPECT_GT(r.stats.get("token.persistents"), 0.0);
            if (std::string(policy) == "chaos-arb") {
                EXPECT_GT(r.stats.get("token.arbActivations"), 0.0);
            }
        }
    }
}

TEST(ChaosPolicy, OltpCompletesUnderHostilePolicies)
{
    SyntheticParams sp = oltpParams();
    sp.opsPerProc = 60;
    for (const char *policy : {"chaos-dst", "chaos-arb"}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(std::string(policy) + " seed " +
                         std::to_string(seed));
            SyntheticWorkload wl(sp);
            const System::RunResult r = runChaos(policy, seed, wl);
            EXPECT_TRUE(r.completed);
            EXPECT_EQ(r.violations, 0u);
        }
    }
}

} // namespace tokencmp::test
