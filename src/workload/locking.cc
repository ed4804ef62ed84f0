#include "workload/locking.hh"

#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

const WorkloadRegistrar regLocking(
    "locking", [](const WorkloadParams &wp) {
        LockingParams p;
        if (wp.opsPerProc != 0)
            p.acquiresPerProc = wp.opsPerProc;
        if (wp.keys != 0)
            p.numLocks = wp.keys;
        if (wp.thinkMean != 0)
            p.thinkTime = wp.thinkMean;
        if (wp.warmupOps == 0)
            p.warmup = false;
        return std::make_unique<LockingWorkload>(p);
    });

/** One processor's acquire/release loop. */
class LockingThread : public ThreadContext
{
  public:
    LockingThread(SimContext &ctx, Sequencer &seq,
                  LockingWorkload &wl, unsigned num_procs,
                  std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _numProcs(num_procs)
    {
        reseed(seed);
    }

    void
    start() override
    {
        if (_wl.params().warmup)
            warm(procId());
        else
            loop();
    }

  private:
    /** Touch this processor's round-robin slice of the locks so the
     *  measured phase starts from the paper's warmed steady state. */
    void
    warm(unsigned lock)
    {
        if (lock >= _wl.params().numLocks) {
            _wl.noteWarmupDone(_ctx.now());
            loop();
            return;
        }
        testAndSet(_wl.lockAddr(lock), [this, lock](std::uint64_t) {
            store(_wl.lockAddr(lock), 0, [this, lock]() {
                warm(lock + _numProcs);
            });
        });
    }

    void
    loop()
    {
        if (_acquired >= _wl.params().acquiresPerProc) {
            finish();
            return;
        }
        think(_wl.params().thinkTime, [this]() { pickLock(); });
    }

    void
    pickLock()
    {
        const unsigned n = _wl.params().numLocks;
        unsigned lock;
        do {
            lock = unsigned(_rng.uniform(n));
        } while (n > 1 && lock == _last);
        _last = lock;
        spin(lock);
    }

    /** Test-and-test-and-set acquire (Table 2). */
    void
    spin(unsigned lock)
    {
        load(_wl.lockAddr(lock), [this, lock](std::uint64_t v) {
            if (v != 0) {
                think(_wl.params().spinDelay,
                      [this, lock]() { spin(lock); });
                return;
            }
            testAndSet(_wl.lockAddr(lock),
                       [this, lock](std::uint64_t old) {
                           if (old != 0) {
                               spin(lock);
                               return;
                           }
                           critical(lock);
                       });
        });
    }

    void
    critical(unsigned lock)
    {
        _wl.noteAcquire(lock, procId());
        ++_acquired;
        think(_wl.params().holdTime, [this, lock]() {
            _wl.noteRelease(lock, procId());
            store(_wl.lockAddr(lock), 0, [this]() { loop(); });
        });
    }

  private:
    LockingWorkload &_wl;
    unsigned _numProcs;
    unsigned _acquired = 0;
    unsigned _last = ~0u;
};

} // namespace

std::unique_ptr<ThreadContext>
LockingWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                            unsigned num_procs, std::uint64_t seed)
{
    return std::make_unique<LockingThread>(ctx, seq, *this, num_procs,
                                           seed);
}

void
LockingWorkload::noteAcquire(unsigned lock, unsigned proc)
{
    // Threads on concurrent shard domains report through these hooks;
    // a correct protocol separates conflicting acquire/release pairs
    // by at least one cross-CMP hop (>= the shard lookahead), so the
    // mutex only keeps the checker's updates race-free, never decides
    // the verdict.
    std::lock_guard<std::mutex> guard(_mu);
    ++_totalAcquires;
    int &holder = _holder.at(lock);
    if (holder != kFree)
        ++_violations;  // two processors inside one critical section
    holder = int(proc);
}

void
LockingWorkload::noteRelease(unsigned lock, unsigned proc)
{
    std::lock_guard<std::mutex> guard(_mu);
    int &holder = _holder.at(lock);
    if (holder != int(proc))
        ++_violations;
    else
        holder = kFree;
}

} // namespace tokencmp
