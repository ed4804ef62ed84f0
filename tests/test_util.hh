/**
 * @file
 * Shared helpers for the test suite: tiny inline workloads and
 * system-construction shortcuts.
 */

#ifndef TOKENCMP_TESTS_TEST_UTIL_HH
#define TOKENCMP_TESTS_TEST_UTIL_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "system/experiment.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace tokencmp::test {

/** A workload where every thread runs the same op program. */
class CounterWorkload : public Workload
{
  public:
    CounterWorkload(Addr addr, unsigned increments)
        : _addr(addr), _increments(increments)
    {}

    class Thread : public ThreadContext
    {
      public:
        Thread(SimContext &ctx, Sequencer &seq, Addr addr, unsigned n)
            : ThreadContext(ctx, seq), _addr(addr), _n(n)
        {}
        void start() override { step(); }

      private:
        void
        step()
        {
            if (_done == _n) {
                finish();
                return;
            }
            ++_done;
            atomic(_addr,
                   [](std::uint64_t v) { return v + 1; },
                   [this](std::uint64_t) {
                       think(ns(3), [this]() { step(); });
                   });
        }
        Addr _addr;
        unsigned _n;
        unsigned _done = 0;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t) override
    {
        return std::make_unique<Thread>(ctx, seq, _addr, _increments);
    }

    std::string name() const override { return "counter"; }

  private:
    Addr _addr;
    unsigned _increments;
};

/** A gtest parameter name for configuration `name`: its figure label
 *  with '-' spelled '_' ("TokenCMP_dst1_pred"). */
inline std::string
configTestName(const std::string &name)
{
    std::string n = SystemConfig::select(name).displayName();
    std::replace(n.begin(), n.end(), '-', '_');
    return n;
}

/** Run a single memory op to completion on a system; returns value. */
inline std::uint64_t
runOp(System &sys, unsigned proc,
      const std::function<void(Sequencer &,
                               std::function<void(const MemResult &)>)>
          &issue,
      Tick *latency_out = nullptr)
{
    bool done = false;
    std::uint64_t val = ~std::uint64_t(0);
    Tick lat = 0;
    issue(sys.sequencer(proc), [&](const MemResult &r) {
        done = true;
        val = r.value;
        lat = r.latency;
    });
    sys.context().eventq.runUntil([&]() { return done; },
                                  sys.context().eventq.curTick() +
                                      ns(1000000));
    if (latency_out != nullptr)
        *latency_out = lat;
    return done ? val : ~std::uint64_t(0) - 1;
}

inline std::uint64_t
runLoad(System &sys, unsigned proc, Addr a, Tick *lat = nullptr)
{
    return runOp(sys, proc,
                 [a](Sequencer &s, auto cb) { s.load(a, cb); }, lat);
}

inline void
runStore(System &sys, unsigned proc, Addr a, std::uint64_t v,
         Tick *lat = nullptr)
{
    runOp(sys, proc,
          [a, v](Sequencer &s, auto cb) { s.store(a, v, cb); }, lat);
}

inline std::uint64_t
runAtomicInc(System &sys, unsigned proc, Addr a)
{
    return runOp(sys, proc, [a](Sequencer &s, auto cb) {
        s.atomic(a, [](std::uint64_t v) { return v + 1; }, cb);
    });
}

/** Drain all in-flight protocol activity. */
inline void
drain(System &sys)
{
    sys.context().eventq.run(sys.context().eventq.curTick() +
                             ns(1000000));
}

} // namespace tokencmp::test

#endif // TOKENCMP_TESTS_TEST_UTIL_HH
