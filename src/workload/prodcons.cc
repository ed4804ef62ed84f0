#include "workload/prodcons.hh"

#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

/**
 * Producer half: think, wait for a free slot (head is the consumer's
 * published progress), write the item, publish the new tail. The
 * stored item is its 1-based sequence number, so the consumer can
 * check ordering end to end.
 */
class ProducerThread : public ThreadContext
{
  public:
    ProducerThread(SimContext &ctx, Sequencer &seq,
                   ProdConsWorkload &wl, unsigned pair,
                   std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _pair(pair)
    {
        reseed(seed);
    }

    void start() override { loop(); }

  private:
    void
    loop()
    {
        if (_produced >= _wl.params().itemsPerPair) {
            finish();
            return;
        }
        const Tick mean = _wl.params().thinkMean;
        think(1 + _rng.uniform(mean) + _rng.uniform(mean),
              [this]() { waitForSpace(); });
    }

    void
    waitForSpace()
    {
        load(_wl.headAddr(_pair), [this](std::uint64_t head) {
            if (_produced - head >= _wl.params().queueSlots) {
                think(_wl.params().spinDelay,
                      [this]() { waitForSpace(); });
                return;
            }
            enqueue();
        });
    }

    void
    enqueue()
    {
        const unsigned slot = _produced % _wl.params().queueSlots;
        const std::uint64_t item = _produced + 1;
        store(_wl.slotAddr(_pair, slot), item, [this, item]() {
            store(_wl.tailAddr(_pair), item, [this]() {
                ++_produced;
                loop();
            });
        });
    }

  private:
    ProdConsWorkload &_wl;
    unsigned _pair;
    std::uint64_t _produced = 0;
};

/**
 * Consumer half: wait for the tail to pass our head, read the slot,
 * check its sequence number, publish the new head.
 */
class ConsumerThread : public ThreadContext
{
  public:
    ConsumerThread(SimContext &ctx, Sequencer &seq,
                   ProdConsWorkload &wl, unsigned pair,
                   std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _pair(pair)
    {
        reseed(seed);
    }

    void start() override { loop(); }

  private:
    void
    loop()
    {
        if (_consumed >= _wl.params().itemsPerPair) {
            finish();
            return;
        }
        waitForItem();
    }

    void
    waitForItem()
    {
        load(_wl.tailAddr(_pair), [this](std::uint64_t tail) {
            if (tail <= _consumed) {
                think(_wl.params().spinDelay,
                      [this]() { waitForItem(); });
                return;
            }
            dequeue();
        });
    }

    void
    dequeue()
    {
        const unsigned slot = _consumed % _wl.params().queueSlots;
        load(_wl.slotAddr(_pair, slot), [this](std::uint64_t item) {
            _wl.noteConsumed(_consumed + 1, item);
            ++_consumed;
            store(_wl.headAddr(_pair), _consumed, [this]() {
                const Tick mean = _wl.params().thinkMean;
                think(1 + _rng.uniform(mean) + _rng.uniform(mean),
                      [this]() { loop(); });
            });
        });
    }

  private:
    ProdConsWorkload &_wl;
    unsigned _pair;
    std::uint64_t _consumed = 0;
};

/** Read-touch the pair's queue blocks so measurement starts warm. */
class WarmThread : public ThreadContext
{
  public:
    WarmThread(SimContext &ctx, Sequencer &seq, ProdConsWorkload &wl,
               unsigned pair, std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _pair(pair)
    {
        reseed(seed);
    }

    void
    start() override
    {
        load(_wl.headAddr(_pair), [this](std::uint64_t) {
            load(_wl.tailAddr(_pair), [this](std::uint64_t) {
                touchSlot(0);
            });
        });
    }

  private:
    void
    touchSlot(unsigned slot)
    {
        if (slot >= _wl.params().queueSlots) {
            finish();
            return;
        }
        load(_wl.slotAddr(_pair, slot), [this, slot](std::uint64_t) {
            touchSlot(slot + 1);
        });
    }

    ProdConsWorkload &_wl;
    unsigned _pair;
};

/** A processor with no partner (odd P, or P == 1). */
class IdleThread : public ThreadContext
{
  public:
    using ThreadContext::ThreadContext;
    void start() override { finish(); }
};

ProdConsParams
fromKnobs(const WorkloadParams &wp)
{
    ProdConsParams p;
    if (wp.opsPerProc != 0)
        p.itemsPerPair = wp.opsPerProc;
    if (wp.keys != 0)
        p.queueSlots = wp.keys;
    if (wp.thinkMean != 0)
        p.thinkMean = wp.thinkMean;
    if (wp.warmupOps == 0)
        p.warmup = false;
    return p;
}

const WorkloadRegistrar regProdCons(
    "prodcons", [](const WorkloadParams &wp) {
        return std::make_unique<ProdConsWorkload>(wp);
    });

} // namespace

ProdConsWorkload::ProdConsWorkload(const WorkloadParams &wp)
    : ProdConsWorkload(fromKnobs(wp))
{}

std::unique_ptr<ThreadContext>
ProdConsWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                             unsigned num_procs, std::uint64_t seed)
{
    const unsigned half = num_procs / 2;
    const unsigned proc = seq.procId();
    if (proc < half) {
        return std::make_unique<ProducerThread>(ctx, seq, *this, proc,
                                                seed);
    }
    if (proc < 2 * half) {
        return std::make_unique<ConsumerThread>(ctx, seq, *this,
                                                proc - half, seed);
    }
    return std::make_unique<IdleThread>(ctx, seq);
}

void
ProdConsWorkload::noteConsumed(std::uint64_t expected,
                               std::uint64_t value)
{
    // Consumers on concurrent shard domains report through this hook;
    // the verdict (value vs. the consumer's own expected sequence
    // number) never depends on interleaving, only the counters do.
    std::lock_guard<std::mutex> guard(_mu);
    ++_totalConsumed;
    if (value != expected)
        ++_violations;
}

std::unique_ptr<ThreadContext>
ProdConsWorkload::makeWarmupThread(SimContext &ctx, Sequencer &seq,
                                   unsigned num_procs,
                                   std::uint64_t seed)
{
    if (!_p.warmup)
        return nullptr;
    const unsigned half = num_procs / 2;
    const unsigned proc = seq.procId();
    const unsigned pair = proc < half ? proc : proc - half;
    if (half == 0 || proc >= 2 * half)
        return std::make_unique<IdleThread>(ctx, seq);
    return std::make_unique<WarmThread>(ctx, seq, *this, pair, seed);
}

} // namespace tokencmp
