/**
 * @file
 * Unit tests for topology maps, message sizing, classification and
 * names, and the interconnect's latency, bandwidth, traffic
 * accounting, per-message delivery order, multicast (copy-by-copy and
 * closed-form on-chip routes) and parked copies' wakes.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/controller.hh"
#include "net/machine.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace tokencmp {

TEST(Topology, CountsMatchPaperTarget)
{
    Topology t;
    EXPECT_EQ(t.numProcs(), 16u);
    EXPECT_EQ(t.cachesPerCmp(), 12u);          // 8 L1 + 4 L2 banks
    EXPECT_EQ(t.cachesPerCmpForBlock(), 9u);   // 8 L1 + 1 bank
    EXPECT_EQ(t.numCachesForBlock(), 36u);
    EXPECT_EQ(t.numControllers(), 52u);        // 48 caches + 4 mems
}

TEST(Topology, GlobalIndexIsDenseAndUnique)
{
    Topology t;
    std::vector<bool> seen(t.numControllers(), false);
    auto mark = [&](MachineID id) {
        const unsigned idx = t.globalIndex(id);
        ASSERT_LT(idx, t.numControllers());
        EXPECT_FALSE(seen[idx]) << id.toString();
        seen[idx] = true;
    };
    for (unsigned c = 0; c < t.numCmps; ++c) {
        for (unsigned p = 0; p < t.procsPerCmp; ++p) {
            mark(t.l1d(c, p));
            mark(t.l1i(c, p));
        }
        for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
            mark(t.l2(c, b));
        mark(t.mem(c));
    }
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(Topology, AddressInterleaving)
{
    Topology t;
    // Same block maps to the same bank index on every CMP.
    for (Addr blk = 0; blk < 64; ++blk) {
        const Addr a = blk * blockBytes;
        const unsigned bank = t.l2BankOf(a);
        EXPECT_LT(bank, t.l2BanksPerCmp);
        for (unsigned c = 0; c < t.numCmps; ++c)
            EXPECT_EQ(t.l2BankFor(c, a).index, bank);
    }
    // Homes spread across all CMPs.
    std::vector<unsigned> counts(t.numCmps, 0);
    for (Addr blk = 0; blk < 256; ++blk)
        ++counts[t.homeCmpOf(blk * blockBytes)];
    for (unsigned c : counts)
        EXPECT_EQ(c, 64u);
}

TEST(Message, SizesFollowSection8)
{
    Msg m;
    m.type = MsgType::GetS;
    EXPECT_EQ(m.size(), 8u);  // control
    m.hasData = true;
    EXPECT_EQ(m.size(), 72u);  // 8B header + 64B block
}

TEST(Message, NamesAreDistinctAndKnown)
{
    // Traces, panics and the traffic tables print these names.
    std::set<std::string> seen;
    for (unsigned t = 0; t <= unsigned(MsgType::WbAck); ++t) {
        const std::string name = msgTypeName(MsgType(t));
        EXPECT_NE(name, "?") << t;
        EXPECT_TRUE(seen.insert(name).second) << name;
    }
    seen.clear();
    for (unsigned c = 0; c < unsigned(TrafficClass::NumClasses); ++c) {
        const std::string name = trafficClassName(TrafficClass(c));
        EXPECT_NE(name, "?") << c;
        EXPECT_TRUE(seen.insert(name).second) << name;
    }
    EXPECT_STREQ(trafficClassName(TrafficClass::NumClasses), "?");

    Topology t;
    EXPECT_EQ(t.l1i(0, 0).toString(), "L1I[c0.0]");
    EXPECT_EQ(t.l1d(1, 2).toString(), "L1D[c1.2]");
    EXPECT_EQ(t.l2(3, 1).toString(), "L2[c3.1]");
    EXPECT_EQ(t.mem(2).toString(), "Mem[c2.0]");
}

TEST(Message, TrafficClassTaxonomy)
{
    Msg m;
    m.type = MsgType::TokReadReq;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Request);
    m.type = MsgType::TokResponse;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::ResponseData);
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::InvFwdAckTokens);
    m.type = MsgType::TokWriteback;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::WritebackData);
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::WritebackControl);
    m.type = MsgType::PersistActivate;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Persistent);
    m.type = MsgType::Unblock;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Unblock);
    m.type = MsgType::Data;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::ResponseData);
    m.type = MsgType::Inv;
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::InvFwdAckTokens);
}

namespace {

/**
 * Controller that records message arrival times (and, through `log`,
 * the global arrival order). While `ignoring`, multicasts from the
 * fixture park their copies to it (NetFixture::parkMask plays the
 * token family's holder mask); a token response ends that and wakes
 * the response's block, like an L1 line gaining its first token.
 */
class SinkController : public Controller
{
  public:
    SinkController(SimContext &ctx, MachineID id) : Controller(ctx, id)
    {}
    void
    handleMsg(const Msg &msg) override
    {
        arrivals.push_back({ctx.now(), msg});
        if (log != nullptr)
            log->push_back(id());
        if (msg.type == MsgType::TokResponse && ignoring) {
            ignoring = false;
            ctx.net->wake(id(), msg.addr);
        }
    }

    std::vector<std::pair<Tick, Msg>> arrivals;
    std::vector<MachineID> *log = nullptr;
    bool ignoring = false;

    /** Expose send for tests. */
    void
    testSend(Msg m, Tick delay = 0)
    {
        send(std::move(m), delay);
    }

    /** Expose multicast for tests. */
    void
    testMulticast(Msg m, const std::vector<MachineID> &dsts,
                  Tick delay = 0, std::uint64_t park_mask = 0)
    {
        multicast(std::move(m), dsts, delay, park_mask);
    }
};

struct NetFixture
{
    SimContext ctx;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<SinkController>> sinks;
    std::vector<MachineID> order;  //!< every arrival, in execution order

    explicit NetFixture(const NetworkParams &params = {})
    {
        net = std::make_unique<Network>(ctx.eventq, ctx.topo, params);
        ctx.net = net.get();
        const Topology &t = ctx.topo;
        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                add(t.l1d(c, p));
                add(t.l1i(c, p));
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
                add(t.l2(c, b));
            add(t.mem(c));
        }
    }

    void
    add(MachineID id)
    {
        auto s = std::make_unique<SinkController>(ctx, id);
        s->log = &order;
        net->registerController(s.get());
        sinks.push_back(std::move(s));
    }

    SinkController &
    sink(MachineID id)
    {
        for (auto &s : sinks) {
            if (s->id() == id)
                return *s;
        }
        throw std::runtime_error("no sink");
    }

    /** Bit i set when dsts[i] is ignoring. */
    std::uint64_t
    parkMask(const std::vector<MachineID> &dsts)
    {
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < dsts.size(); ++i)
            mask |= std::uint64_t(sink(dsts[i]).ignoring) << i;
        return mask;
    }

    /** Multicast from `src`, parking the copies to ignoring sinks. */
    void
    multicast(const MachineID &src, const Msg &m,
              const std::vector<MachineID> &dsts, Tick delay = 0)
    {
        sink(src).testMulticast(m, dsts, delay, parkMask(dsts));
    }
};

} // namespace

TEST(Network, IntraCmpLatency)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l2BankFor(0, 0x1000);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // 2 ns link + 8 B / 64 B/ns serialization = 2.125 ns.
    EXPECT_EQ(arr[0].first, ns(2) + 125);
}

TEST(Network, InterCmpLatency)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::TokResponse;
    m.hasData = true;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(2, 1);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // 20 ns + 72 B / 16 B/ns = 24.5 ns.
    EXPECT_EQ(arr[0].first, ns(20) + 4500);
}

TEST(Network, MemoryPathAddsMemLink)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetX;
    m.addr = 0;
    m.dst = f.ctx.topo.mem(3);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // inter (20 + 0.5) + memlink (20 + 0.5).
    EXPECT_EQ(arr[0].first, ns(40) + 1000);
}

TEST(Network, LookaheadIsTheInterCmpControlHop)
{
    // Every cross-domain message crosses an inter-CMP link, so the
    // fastest one is a control message on it: 20 ns + 8 B / 16 B/ns.
    EXPECT_EQ(NetFixture().net->lookahead(), ns(20) + 500);
    NetworkParams no_bw;
    no_bw.modelBandwidth = false;
    EXPECT_EQ(NetFixture(no_bw).net->lookahead(), ns(20));
}

TEST(Network, BandwidthSerializesBackToBackMessages)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::TokResponse;
    m.hasData = true;  // 72 B at 16 B/ns = 4.5 ns serialization
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(1, 0);
    auto &src = f.sink(f.ctx.topo.l1d(0, 0));
    src.testSend(m);
    src.testSend(m);
    src.testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[1].first - arr[0].first, 4500u);
    EXPECT_EQ(arr[2].first - arr[1].first, 4500u);
}

TEST(Network, TrafficAccountingByLevelAndClass)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(0, 1);  // intra
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    m.dst = f.ctx.topo.l1d(1, 0);  // inter
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    EXPECT_EQ(f.net->bytes(NetLevel::Intra, TrafficClass::Request), 8u);
    EXPECT_EQ(f.net->bytes(NetLevel::Inter, TrafficClass::Request), 8u);
    EXPECT_EQ(f.net->bytesByLevel(NetLevel::MemLink), 0u);
    EXPECT_EQ(f.net->totalMessages(), 2u);
    f.net->clearStats();
    EXPECT_EQ(f.net->bytesByLevel(NetLevel::Intra), 0u);
}

TEST(Network, SameTickFanInKeepsSendOrder)
{
    // Without link serialization, on-chip sends issued at one tick all
    // arrive at one tick: the same-(destination, tick) fan-in that
    // delivery batching used to coalesce. Each message is its own
    // delivery event, so arrivals follow send order and an event
    // scheduled between two sends runs between their arrivals.
    NetworkParams p;
    p.modelBandwidth = false;
    NetFixture f(p);
    const Topology &t = f.ctx.topo;
    const MachineID dst = t.l2(0, 0);
    auto &sink = f.sink(dst);
    auto sendFrom = [&](MachineID src, Addr tag) {
        Msg m;
        m.type = MsgType::GetS;
        m.addr = tag;
        m.dst = dst;
        f.sink(src).testSend(m);
    };
    std::size_t seen_by_closure = ~std::size_t(0);
    sendFrom(t.l1d(0, 0), 0x40);
    sendFrom(t.l1d(0, 1), 0x80);
    f.ctx.eventq.schedule(ns(2), [&] {
        seen_by_closure = sink.arrivals.size();
    });
    sendFrom(t.l1i(0, 0), 0xc0);
    sendFrom(t.l1d(0, 0), 0x100);
    f.ctx.eventq.run();

    ASSERT_EQ(sink.arrivals.size(), 4u);
    const Addr want[] = {0x40, 0x80, 0xc0, 0x100};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.arrivals[i].first, ns(2)) << i;
        EXPECT_EQ(sink.arrivals[i].second.addr, want[i]) << i;
    }
    EXPECT_EQ(seen_by_closure, 2u);
    EXPECT_EQ(f.net->totalMessages(), 4u);
    EXPECT_EQ(f.net->deliveryWakeups(), f.net->totalMessages());
    EXPECT_EQ(f.net->inFlight(), 0u);
}

TEST(Network, ResetWithMessagesInFlight)
{
    // EventQueue::reset() drops pending deliveries unfired; each
    // dropped message must leave the in-flight count, and the network
    // must keep delivering afterwards.
    NetFixture f;
    const Topology &t = f.ctx.topo;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    m.dst = t.l1d(1, 0);
    auto &src = f.sink(t.l1d(0, 0));
    src.testSend(m);
    src.testSend(m);
    m.dst = t.l2(0, 1);
    src.testSend(m);
    EXPECT_EQ(f.net->inFlight(), 3u);

    f.ctx.eventq.reset();
    EXPECT_EQ(f.net->inFlight(), 0u);
    EXPECT_TRUE(f.ctx.eventq.empty());
    EXPECT_EQ(f.net->deliveryWakeups(), 0u);

    m.addr = 0x2000;
    src.testSend(m);
    EXPECT_EQ(f.net->inFlight(), 1u);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    EXPECT_EQ(arr[0].second.addr, 0x2000u);
    EXPECT_TRUE(f.sink(t.l1d(1, 0)).arrivals.empty());
    EXPECT_EQ(f.net->inFlight(), 0u);
    EXPECT_EQ(f.net->deliveryWakeups(), 1u);
}

TEST(Network, MulticastMatchesSendsAndParksIgnoredCopies)
{
    // One multicast must route, time and account exactly like one
    // send() per destination in order (duplicates included); the only
    // difference is that the copies its park mask names (those to
    // ignoring destinations) never run. The destinations span chips
    // and memory, so this is the copy-by-copy route, parking an L1 of
    // another chip (one domain in serial mode) too.
    NetworkParams no_bw;
    no_bw.modelBandwidth = false;
    for (const NetworkParams &params : {NetworkParams{}, no_bw}) {
        NetFixture eager(params), lazy(params);
        const Topology &t = eager.ctx.topo;
        const MachineID src = t.l2(0, 1);
        const std::vector<MachineID> dsts = {
            t.l1d(0, 0), t.l1i(0, 0), t.l1d(0, 1), t.l1d(0, 0),
            t.l1d(1, 0), t.l2(2, 1),  t.mem(3),    t.l1i(0, 3)};
        const std::vector<MachineID> ignoring = {t.l1i(0, 0),
                                                 t.l1d(0, 0),
                                                 t.l1d(1, 0)};
        for (const MachineID &id : ignoring)
            lazy.sink(id).ignoring = true;

        Msg m;
        m.type = MsgType::TokReadReq;
        m.requestor = src;
        std::uint64_t parked = 0;
        for (Addr a : {Addr(0x1000), Addr(0x2040)}) {
            m.addr = a;
            for (const MachineID &d : dsts) {
                m.dst = d;
                eager.sink(src).testSend(m, ns(1));
                for (const MachineID &id : ignoring)
                    parked += d == id ? 1 : 0;
            }
            lazy.multicast(src, m, dsts, ns(1));
        }
        eager.ctx.eventq.run();
        lazy.ctx.eventq.run();

        std::vector<MachineID> want;
        for (const MachineID &id : eager.order) {
            if (!lazy.sink(id).ignoring)
                want.push_back(id);
        }
        EXPECT_EQ(lazy.order, want);
        for (const MachineID &d : dsts) {
            const auto &got = lazy.sink(d).arrivals;
            if (lazy.sink(d).ignoring) {
                EXPECT_TRUE(got.empty()) << d.toString();
                continue;
            }
            const auto &ref = eager.sink(d).arrivals;
            ASSERT_EQ(got.size(), ref.size()) << d.toString();
            for (std::size_t i = 0; i < ref.size(); ++i) {
                EXPECT_EQ(got[i].first, ref[i].first) << d.toString();
                EXPECT_EQ(got[i].second.addr, ref[i].second.addr);
            }
        }
        for (unsigned l = 0; l < unsigned(NetLevel::NumLevels); ++l) {
            for (unsigned c = 0; c < unsigned(TrafficClass::NumClasses);
                 ++c) {
                EXPECT_EQ(lazy.net->bytes(NetLevel(l), TrafficClass(c)),
                          eager.net->bytes(NetLevel(l), TrafficClass(c)));
            }
        }
        EXPECT_EQ(lazy.net->totalMessages(), eager.net->totalMessages());
        EXPECT_EQ(parked, 8u);  // 4 ignored copies (one duplicate) x 2
        EXPECT_EQ(lazy.net->deliveryWakeups(),
                  eager.net->deliveryWakeups() - parked);
        EXPECT_EQ(lazy.net->inFlight(), 0u);
    }
}

TEST(Network, ParkedCopyRunsOnlyIfKeyedAfterTheWakingArrival)
{
    // A request parked at an ignoring destination and the token
    // response that ends the ignoring arrive at the same tick. Eager
    // delivery runs them in send order: request first means it found
    // no tokens (a no-op, so it must not run late); response first
    // means the request sees the tokens, so the wake must schedule it
    // at its reserved key, which is still ahead.
    NetworkParams p;
    p.modelBandwidth = false;
    for (bool response_first : {true, false}) {
        SCOPED_TRACE(response_first ? "response keyed first"
                                    : "request keyed first");
        NetFixture f(p);
        const Topology &t = f.ctx.topo;
        const MachineID x = t.l1d(0, 0);
        SinkController &sink = f.sink(x);
        sink.ignoring = true;

        Msg tok;
        tok.type = MsgType::TokResponse;
        tok.addr = 0x1000;
        tok.dst = x;
        Msg req;
        req.type = MsgType::TokReadReq;
        req.addr = 0x1000;
        Msg other = req;  // another block: stays parked through the wake
        other.addr = 0x2000;

        if (response_first)
            f.sink(t.l1d(0, 1)).testSend(tok);
        f.multicast(t.l2(0, 0), other, {x});
        f.multicast(t.l2(0, 0), req, {x});
        if (!response_first)
            f.sink(t.l1d(0, 1)).testSend(tok);
        f.ctx.eventq.run();

        ASSERT_EQ(sink.arrivals.size(), response_first ? 2u : 1u);
        EXPECT_EQ(sink.arrivals[0].second.type, MsgType::TokResponse);
        for (const auto &[when, msg] : sink.arrivals)
            EXPECT_EQ(when, ns(2));
        if (response_first) {
            EXPECT_EQ(sink.arrivals[1].second.addr, 0x1000u);
        }
        EXPECT_EQ(f.net->totalMessages(), 3u);
    }
}

TEST(Network, WakeRunsOnlyTheWokenParkedCopy)
{
    // One on-chip fan-out of six copies whose 2nd and 5th are parked.
    // A token response reaches the 5th's destination before its copy
    // would have: the wake schedules that copy at its eager (tick,
    // seq), and the 2nd, never woken, never runs. Without bandwidth
    // every copy arrives at one tick, so only the reserved seq keeps
    // the woken copy between the 4th and the 6th.
    NetworkParams no_bw;
    no_bw.modelBandwidth = false;
    for (const NetworkParams &params : {NetworkParams{}, no_bw}) {
        SCOPED_TRACE(params.modelBandwidth ? "bandwidth" : "no bandwidth");
        NetFixture eager(params), lazy(params);
        const Topology &t = eager.ctx.topo;
        const MachineID src = t.l2(0, 0);
        const std::vector<MachineID> dsts = {t.l1d(0, 0), t.l1i(0, 0),
                                             t.l1d(0, 1), t.l1i(0, 1),
                                             t.l1d(0, 2), t.l1i(0, 2)};
        const MachineID second = dsts[1], fifth = dsts[4];
        lazy.sink(second).ignoring = true;
        lazy.sink(fifth).ignoring = true;

        Msg tok;
        tok.type = MsgType::TokResponse;
        tok.addr = 0x1000;
        tok.dst = fifth;
        Msg req;
        req.type = MsgType::TokReadReq;
        req.addr = 0x1000;
        req.requestor = t.l1d(0, 3);
        for (NetFixture *f : {&eager, &lazy})
            f->sink(t.l1d(0, 3)).testSend(tok);
        for (const MachineID &d : dsts) {
            req.dst = d;
            eager.sink(src).testSend(req, ns(10));
        }
        lazy.multicast(src, req, dsts, ns(10));
        EXPECT_EQ(lazy.net->inFlight(), 5u);  // the response + 4 acting
        lazy.ctx.eventq.run();
        eager.ctx.eventq.run();

        std::vector<MachineID> want = eager.order;
        std::erase(want, second);
        EXPECT_EQ(lazy.order, want);
        EXPECT_TRUE(lazy.sink(second).arrivals.empty());
        const auto &got = lazy.sink(fifth).arrivals;
        const auto &ref = eager.sink(fifth).arrivals;
        ASSERT_EQ(got.size(), 2u);
        ASSERT_EQ(ref.size(), 2u);
        EXPECT_EQ(got[0].second.type, MsgType::TokResponse);
        EXPECT_EQ(got[1].second.type, MsgType::TokReadReq);
        EXPECT_EQ(got[1].first, ref[1].first);
        // 10 ns delay, five 8 B copies on the port, 2 ns hop.
        EXPECT_EQ(got[1].first,
                  ns(12) + (params.modelBandwidth ? 5 * 125 : 0));
        EXPECT_EQ(lazy.net->totalMessages(), eager.net->totalMessages());
        EXPECT_EQ(lazy.net->deliveryWakeups(),
                  eager.net->deliveryWakeups() - 1);
        EXPECT_EQ(lazy.net->inFlight(), 0u);
    }
}

TEST(Network, SameChipFanOutMatchesSends)
{
    // A fan-out from a cache to caches of its own chip routes in
    // closed form. It must equal n send()s in everything observable:
    // arrival ticks, same-tick order against events scheduled just
    // before and just after it, bytes, the message count, and the
    // sender port's next availability (read from a probe sent after
    // it), with bandwidth on and off, from an idle and a busy port,
    // for control and data messages.
    NetworkParams no_bw;
    no_bw.modelBandwidth = false;
    for (const NetworkParams &params : {NetworkParams{}, no_bw}) {
        for (bool busy : {false, true}) {
            for (bool data : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << (params.modelBandwidth ? "bw" : "no bw")
                             << (busy ? " busy" : " idle")
                             << (data ? " data" : " control"));
                NetFixture eager(params), lazy(params);
                const Topology &t = eager.ctx.topo;
                const MachineID src = t.l1d(0, 1);
                // Every other cache of chip 0, one duplicated.
                std::vector<MachineID> dsts;
                for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                    for (MachineID id : {t.l1d(0, p), t.l1i(0, p)}) {
                        if (id != src)
                            dsts.push_back(id);
                    }
                }
                for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
                    dsts.push_back(t.l2(0, b));
                dsts.push_back(t.l1d(0, 2));

                std::vector<int> marks[2];
                NetFixture *fs[2] = {&eager, &lazy};
                for (int k = 0; k < 2; ++k) {
                    NetFixture &f = *fs[k];
                    Msg m;
                    m.type = MsgType::TokResponse;
                    m.hasData = true;
                    m.addr = 0x40;
                    m.dst = t.l2(0, 3);
                    if (busy)  // occupies the port past the fan-out
                        f.sink(src).testSend(m, ns(1));
                    const Tick at = ns(2) + ns(3);
                    std::vector<int> &mk = marks[k];
                    auto mark = [&f, &mk](int id) {
                        mk.push_back(int(f.order.size()) * 10 + id);
                    };
                    f.ctx.eventq.scheduleAbs(at, [mark] { mark(1); });
                    m.type = MsgType::TokReadReq;
                    m.hasData = data;
                    m.addr = 0x1000;
                    m.requestor = src;
                    if (k == 0) {
                        for (const MachineID &d : dsts) {
                            m.dst = d;
                            f.sink(src).testSend(m, ns(3));
                        }
                    } else {
                        f.multicast(src, m, dsts, ns(3));
                    }
                    f.ctx.eventq.scheduleAbs(at, [mark] { mark(2); });
                    m.type = MsgType::GetS;  // the port probe
                    m.hasData = false;
                    m.dst = t.l1i(0, 1);
                    f.sink(src).testSend(m, ns(1));
                    f.ctx.eventq.run();
                }

                EXPECT_EQ(lazy.order, eager.order);
                EXPECT_EQ(marks[1], marks[0]);
                for (const auto &s : eager.sinks) {
                    const auto &ref = s->arrivals;
                    const auto &got = lazy.sink(s->id()).arrivals;
                    ASSERT_EQ(got.size(), ref.size()) << s->id().toString();
                    for (std::size_t i = 0; i < ref.size(); ++i)
                        EXPECT_EQ(got[i].first, ref[i].first)
                            << s->id().toString() << " #" << i;
                }
                for (unsigned l = 0; l < unsigned(NetLevel::NumLevels);
                     ++l) {
                    for (unsigned c = 0;
                         c < unsigned(TrafficClass::NumClasses); ++c) {
                        EXPECT_EQ(
                            lazy.net->bytes(NetLevel(l), TrafficClass(c)),
                            eager.net->bytes(NetLevel(l), TrafficClass(c)));
                    }
                }
                EXPECT_EQ(lazy.net->totalMessages(),
                          eager.net->totalMessages());
                EXPECT_EQ(lazy.net->deliveryWakeups(),
                          eager.net->deliveryWakeups());
            }
        }
    }
}

TEST(Network, WakeAfterParkedArrivalPassedSchedulesNothing)
{
    // A copy parked and never woken before its arrival tick was a
    // no-op under eager delivery, so a wake after that tick must not
    // bring it back: neither while its fan-out's record is still live
    // (a later copy of the same fan-out is still ahead) nor once a
    // later fan-out has retired the record.
    NetFixture f;
    const Topology &t = f.ctx.topo;
    const MachineID x = t.l1d(0, 1), y = t.l1i(0, 1);
    SinkController &sink = f.sink(x);
    sink.ignoring = true;
    f.sink(y).ignoring = true;
    Msg req;
    req.type = MsgType::TokReadReq;
    req.addr = 0x1000;
    req.requestor = t.l1d(0, 0);
    // x's copy arrives at 2.125 ns, the last of y's ten at 3.375 ns.
    std::vector<MachineID> dsts(11, y);
    dsts[0] = x;
    f.multicast(t.l1d(0, 0), req, dsts);
    Msg tok;
    tok.type = MsgType::TokResponse;
    tok.addr = 0x1000;
    tok.dst = x;
    f.sink(t.l1d(0, 2)).testSend(tok, ns(1));  // arrives at 3.125 ns
    f.ctx.eventq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].first, ns(3) + 125);
    EXPECT_TRUE(f.sink(y).arrivals.empty());

    // Again for a second block, with the record retired by the time
    // of the wake: later traffic from the same domain parks another
    // copy.
    sink.ignoring = true;
    req.addr = tok.addr = 0x2000;
    f.multicast(t.l1d(0, 0), req, {x, t.l1d(0, 2)});
    f.ctx.eventq.run();
    req.addr = 0x3000;
    f.multicast(t.l1d(0, 3), req, {x});
    f.sink(t.l1d(0, 2)).testSend(tok, ns(5));
    f.ctx.eventq.run();

    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1].second.type, MsgType::TokResponse);
    EXPECT_EQ(f.sink(t.l1d(0, 2)).arrivals.size(), 1u);
    EXPECT_EQ(f.net->totalMessages(), 16u);
    EXPECT_EQ(f.net->inFlight(), 0u);
}

TEST(Network, SelfSendPanics)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.dst = f.ctx.topo.l1d(0, 0);
    EXPECT_DEATH(f.sink(f.ctx.topo.l1d(0, 0)).testSend(m), "self");
}

} // namespace tokencmp
