#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace tokencmp {

const char *
schedulerKindName(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::TimingWheel: return "wheel";
      case SchedulerKind::ReferenceHeap: return "refheap";
    }
    return "?";
}

namespace {

/** Heap order: the (when, seq) minimum at the back-of-heap root. */
struct FarLater
{
    bool
    operator()(const Event *a, const Event *b) const
    {
        if (a->when() != b->when())
            return a->when() > b->when();
        return a->seq() > b->seq();
    }
};

} // namespace

EventQueue::~EventQueue()
{
    // Pending InlineActions recycle into _actionPool (still alive here);
    // foreign pooled events recycle into their owners' pools, which
    // must outlive the queue or have called releaseAll() already.
    releaseAll();
}

void
EventQueue::setKind(SchedulerKind k)
{
    if (_pending != 0 || _curTick != 0 || _nextSeq != 0)
        panic("EventQueue::setKind on a non-fresh queue");
    _kind = k;
}

void
EventQueue::recycleAction(InlineAction *a)
{
    _actionPool.recycle(a);
}

void
EventQueue::scheduleEvent(Event *e, Tick when)
{
    if (when < _curTick)
        panic("scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    if (e->_sched)
        panic("event scheduled twice");
    e->_when = when;
    e->_seq = _nextSeq++;
    e->_next = nullptr;
    e->_sched = true;
    ++_pending;
    insertScheduled(e);
}

void
EventQueue::scheduleKeyed(Event *e, Tick when, std::uint64_t key)
{
    if (when < _curTick)
        panic("keyed-scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    if (e->_sched)
        panic("event scheduled twice");
    e->_when = when;
    e->_seq = key;
    e->_next = nullptr;
    e->_sched = true;
    ++_pending;
    insertScheduled(e);
}

void
EventQueue::insertScheduled(Event *e)
{
    if (_kind == SchedulerKind::ReferenceHeap) {
        // Events already staged in the run queue (e.g. left there by a
        // horizon-bounded run()) cover ticks below _pos; a new event
        // below that mark must be spliced among them, exactly as in
        // wheel mode, or it would wait behind them in the heap.
        if (e->_when < _pos)
            runqInsert(e);
        else
            farPush(e);
        return;
    }
    insertPending(e);
}

void
EventQueue::insertPending(Event *e)
{
    const Tick when = e->_when;
    if (when < _pos) {
        runqInsert(e);
        return;
    }
    for (unsigned l = 0; l < numLevels; ++l) {
        const unsigned shift = levelShift(l);
        // Same epoch at this level: the slot is still in the future
        // window the level covers relative to the wheel position.
        if ((when >> (shift + slotBits)) == (_pos >> (shift + slotBits))) {
            const auto idx =
                static_cast<unsigned>((when >> shift) & (numSlots - 1));
            chainAppend(_wheel[l][idx], e);
            _occ[l][idx >> 6] |= std::uint64_t(1) << (idx & 63);
            return;
        }
    }
    farPush(e);
}

void
EventQueue::runqInsert(Event *e)
{
    // Splice by full (when, seq) key. For ordinary insertions the seq
    // is the freshest counter value, so this lands after every
    // equal-tick entry just like a when-only search; band-1 handoff
    // keys may sort between staged events, and the full compare places
    // them canonically.
    const RunEntry x{e->_when, e->_seq, e};
    _runq.insert(std::upper_bound(_runq.begin() +
                                      std::ptrdiff_t(_runqHead),
                                  _runq.end(), x),
                 x);
}

void
EventQueue::drainLevel0(Chain &c)
{
    // Insertion-sort the chain into the run queue as it is walked.
    // Chains are FIFO in insertion order, so most events land at the
    // back after one compare; an event inserted after a later-keyed
    // peer (a shorter delay into the same slot, a cascade, a keyed
    // handoff) shifts down into place. Compares read inline keys only.
    //
    // Insertion sort is quadratic on a large shuffled bucket (hundreds
    // of events at random sub-slot delays), so once the shifts exceed
    // a few per entry the rest of the chain is appended and the run
    // queue sorted in one pass. Protocol buckets rarely get there, and
    // for them the in-walk insertion beats a full sort of the bucket.
    std::size_t shifts = 0;
    bool sortAll = false;
    for (Event *e = c.head; e != nullptr;) {
        Event *next = e->_next;
        e->_next = nullptr;
        const RunEntry x{e->_when, e->_seq, e};
        std::size_t i = _runq.size();
        _runq.push_back(x);
        if (!sortAll) {
            for (; i > 0 && x < _runq[i - 1]; --i)
                _runq[i] = _runq[i - 1];
            _runq[i] = x;
            shifts += _runq.size() - 1 - i;
            sortAll = shifts > drainShiftsPerEntry * _runq.size();
        }
        e = next;
    }
    c.head = c.tail = nullptr;
    if (sortAll)
        std::sort(_runq.begin(), _runq.end());
}

void
EventQueue::chainAppend(Chain &c, Event *e)
{
    if (c.tail == nullptr) {
        c.head = c.tail = e;
    } else {
        c.tail->_next = e;
        c.tail = e;
    }
}

int
EventQueue::lowestSet(const std::uint64_t *occ) const
{
    for (unsigned w = 0; w < occWords; ++w) {
        if (occ[w] != 0)
            return int(w * 64 + unsigned(std::countr_zero(occ[w])));
    }
    return -1;
}

void
EventQueue::farPush(Event *e)
{
    _far.push_back(e);
    std::push_heap(_far.begin(), _far.end(), FarLater{});
}

Event *
EventQueue::farPop()
{
    std::pop_heap(_far.begin(), _far.end(), FarLater{});
    Event *e = _far.back();
    _far.pop_back();
    return e;
}

bool
EventQueue::refill()
{
    if (_runqHead < _runq.size())
        return true;
    _runq.clear();
    _runqHead = 0;

    if (_kind == SchedulerKind::ReferenceHeap) {
        if (_far.empty())
            return false;
        // Move the entire earliest tick out of the heap, so same-tick
        // events scheduled during execution (which go to the run queue)
        // cannot overtake their already-pending peers.
        const Tick when = _far.front()->when();
        while (!_far.empty() && _far.front()->when() == when) {
            Event *e = farPop();
            _runq.push_back(RunEntry{e->_when, e->_seq, e});
        }
        _pos = when + 1;
        return true;
    }

    const unsigned topShift = levelShift(numLevels - 1) + slotBits;
    for (;;) {
        if (_runqHead < _runq.size())
            return true;

        // The far heap may hold events in _pos's own top-level epoch:
        // _pos can enter a new epoch via a level-0 drain ending
        // exactly on the boundary, and fresh insertions for that epoch
        // then land in the wheel. Migrate them in before any drain, or
        // a later-tick wheel event would overtake an earlier far one.
        while (!_far.empty() &&
               (_far.front()->when() >> topShift) == (_pos >> topShift)) {
            insertPending(farPop());
        }

        // Cascade any higher-level slot whose window _pos has
        // already entered (top-down, so a level-2 cascade that lands
        // events in the current level-1 slot is flushed in the same
        // pass): its events belong interleaved with — possibly ahead
        // of — whatever sits in level 0 for this epoch.
        for (unsigned l = numLevels - 1; l >= 1; --l) {
            const unsigned shift = levelShift(l);
            const auto s =
                static_cast<unsigned>((_pos >> shift) & (numSlots - 1));
            if ((_occ[l][s >> 6] & (std::uint64_t(1) << (s & 63))) == 0)
                continue;
            Chain c = _wheel[l][s];
            _wheel[l][s].head = _wheel[l][s].tail = nullptr;
            _occ[l][s >> 6] &= ~(std::uint64_t(1) << (s & 63));
            for (Event *e = c.head; e != nullptr;) {
                Event *next = e->_next;
                e->_next = nullptr;
                insertPending(e);
                e = next;
            }
        }

        // Level 0: drain the earliest occupied bucket into the runq.
        if (int idx = lowestSet(_occ[0]); idx >= 0) {
            const Tick span0 = Tick(1) << (baseShift + slotBits);
            const Tick base0 = _pos & ~(span0 - 1);
            drainLevel0(_wheel[0][idx]);
            _occ[0][unsigned(idx) >> 6] &=
                ~(std::uint64_t(1) << (unsigned(idx) & 63));
            _pos = base0 + ((Tick(idx) + 1) << baseShift);
            return true;
        }

        // Levels 1+: cascade the earliest occupied slot downward.
        bool cascaded = false;
        for (unsigned l = 1; l < numLevels; ++l) {
            const int s = lowestSet(_occ[l]);
            if (s < 0)
                continue;
            const unsigned shift = levelShift(l);
            const Tick span = Tick(1) << (shift + slotBits);
            const Tick base = _pos & ~(span - 1);
            Chain c = _wheel[l][s];
            _wheel[l][s].head = _wheel[l][s].tail = nullptr;
            _occ[l][unsigned(s) >> 6] &=
                ~(std::uint64_t(1) << (unsigned(s) & 63));
            // Rebase the wheel position to the slot's window start so
            // the chain re-inserts into lower levels.
            _pos = base + (Tick(s) << shift);
            for (Event *e = c.head; e != nullptr;) {
                Event *next = e->_next;
                e->_next = nullptr;
                insertPending(e);
                e = next;
            }
            cascaded = true;
            break;
        }
        if (cascaded)
            continue;

        // Far-future spillover: jump to the next occupied top-level
        // epoch; the flush at the top of the loop migrates it in.
        if (!_far.empty()) {
            _pos = _far.front()->when();
            continue;
        }
        return false;
    }
}

bool
EventQueue::run(Tick horizon)
{
    while (Event *e = peekNext()) {
        if (e->_when > horizon)
            return false;
        executeOne(e);
    }
    return true;
}

bool
EventQueue::runUntil(const std::function<bool()> &done, Tick horizon)
{
    if (done())
        return true;
    while (Event *e = peekNext()) {
        if (e->_when > horizon)
            return false;
        executeOne(e);
        if (done())
            return true;
    }
    return false;
}

void
EventQueue::releaseAll()
{
    auto releaseOne = [this](Event *e) {
        e->_sched = false;
        e->_next = nullptr;
        e->release();
        --_pending;
    };
    for (std::size_t i = _runqHead; i < _runq.size(); ++i)
        releaseOne(_runq[i].event);
    _runq.clear();
    _runqHead = 0;
    for (auto &level : _wheel) {
        for (Chain &c : level) {
            for (Event *e = c.head; e != nullptr;) {
                Event *next = e->_next;
                releaseOne(e);
                e = next;
            }
            c.head = c.tail = nullptr;
        }
    }
    for (auto &level : _occ) {
        for (std::uint64_t &w : level)
            w = 0;
    }
    for (Event *e : _far)
        releaseOne(e);
    _far.clear();
    if (_pending != 0)
        panic("releaseAll: %zu events unaccounted for", _pending);
}

void
EventQueue::releaseAll(const std::function<bool(const Event &)> &mine)
{
    auto releaseOne = [this](Event *e) {
        e->_sched = false;
        e->_next = nullptr;
        e->release();
        --_pending;
    };

    // Run queue: compact survivors in place (order preserved).
    std::size_t out = _runqHead;
    for (std::size_t i = _runqHead; i < _runq.size(); ++i) {
        if (mine(*_runq[i].event))
            releaseOne(_runq[i].event);
        else
            _runq[out++] = _runq[i];
    }
    _runq.resize(out);
    if (_runqHead == _runq.size()) {
        _runq.clear();
        _runqHead = 0;
    }

    // Wheel chains: relink survivors, keeping FIFO order per slot.
    for (unsigned l = 0; l < numLevels; ++l) {
        for (unsigned s = 0; s < numSlots; ++s) {
            Chain &c = _wheel[l][s];
            if (c.head == nullptr)
                continue;
            Chain kept;
            for (Event *e = c.head; e != nullptr;) {
                Event *next = e->_next;
                e->_next = nullptr;
                if (mine(*e))
                    releaseOne(e);
                else
                    chainAppend(kept, e);
                e = next;
            }
            c = kept;
            if (kept.head == nullptr) {
                _occ[l][s >> 6] &= ~(std::uint64_t(1) << (s & 63));
            }
        }
    }

    // Far heap: filter, then restore the heap property.
    out = 0;
    for (std::size_t i = 0; i < _far.size(); ++i) {
        if (mine(*_far[i]))
            releaseOne(_far[i]);
        else
            _far[out++] = _far[i];
    }
    _far.resize(out);
    std::make_heap(_far.begin(), _far.end(), FarLater{});
}

void
EventQueue::reset()
{
    releaseAll();
    _curTick = 0;
    _curSeq = 0;
    _nextSeq = 0;
    _executed = 0;
    _pos = 0;
}

} // namespace tokencmp
