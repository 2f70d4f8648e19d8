#include "sim/eventq.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace varsim
{
namespace sim
{

Event::~Event()
{
    if (scheduled_ && queue_)
        queue_->deschedule(this);
}

void
CallbackEvent::process()
{
    invoke_(storage_);
    // The callable may have scheduled further one-shots (pulling from
    // the free list); this event only becomes reusable now.
    reset();
    owner_.releaseCallback(this);
}

EventQueue::EventQueue()
{
    // One simulated coherence transaction schedules a handful of
    // events; keep the steady-state heap free of regrowth.
    heap.reserve(1024);
}

EventQueue::~EventQueue() = default;

CallbackEvent *
EventQueue::acquireCallback()
{
    if (freeCallbacks != nullptr) {
        CallbackEvent *ev = freeCallbacks;
        freeCallbacks = ev->nextFree_;
        ev->nextFree_ = nullptr;
        return ev;
    }
    callbackPool.emplace_back(new CallbackEvent(*this));
    return callbackPool.back().get();
}

void
EventQueue::releaseCallback(CallbackEvent *ev)
{
    ev->nextFree_ = freeCallbacks;
    freeCallbacks = ev;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    VARSIM_ASSERT(ev != nullptr, "scheduling null event");
    VARSIM_ASSERT(!ev->scheduled_, "event '%s' already scheduled",
                  ev->name().c_str());
    VARSIM_ASSERT(when >= curTick_,
                  "event '%s' scheduled in the past (%llu < %llu)",
                  ev->name().c_str(),
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curTick_));

    ev->when_ = when;
    ev->seq_ = nextSeq++;
    ev->scheduled_ = true;
    ev->queue_ = this;
    pushEntry({when, ev->priority(), ev->seq_, ev});
    ++numPending;
}

void
EventQueue::deschedule(Event *ev)
{
    VARSIM_ASSERT(ev != nullptr, "descheduling null event");
    VARSIM_ASSERT(ev->scheduled_, "event '%s' not scheduled",
                  ev->name().c_str());
    // Lazy removal: the heap entry stays behind and is discarded when
    // popped (its seq no longer matches a live scheduled event).
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    --numPending;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::restoreTick(Tick t)
{
    VARSIM_ASSERT(empty(), "restoreTick with %zu pending events",
                  numPending);
    VARSIM_ASSERT(t >= curTick_, "restoreTick into the past");
    curTick_ = t;
}

bool
EventQueue::skimStale()
{
    // Discard tombstones left behind by deschedule()/reschedule().
    while (!heap.empty()) {
        const HeapEntry &top = heap.front();
        if (top.ev->scheduled_ && top.ev->seq_ == top.seq)
            return true;
        popEntry();
    }
    return false;
}

Tick
EventQueue::run(Tick stop_tick)
{
    while (!stopRequested) {
        if (!skimStale() || heap.front().when > stop_tick)
            break;

        // Dispatch inline: the top entry is known live, so the
        // peek-then-step double walk of the heap is unnecessary.
        const HeapEntry entry = popEntry();
        Event *ev = entry.ev;
        VARSIM_ASSERT(entry.when >= curTick_,
                      "time went backwards dispatching '%s'",
                      ev->name().c_str());
        curTick_ = entry.when;
        ev->scheduled_ = false;
        ev->queue_ = nullptr;
        --numPending;
        ++dispatched;
        ev->process();
    }
    return curTick_;
}

void
EventQueue::step()
{
    VARSIM_ASSERT(skimStale(), "step() on empty event queue");
    const HeapEntry entry = popEntry();
    Event *ev = entry.ev;
    VARSIM_ASSERT(entry.when >= curTick_,
                  "time went backwards dispatching '%s'",
                  ev->name().c_str());
    curTick_ = entry.when;
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    --numPending;
    ++dispatched;
    ev->process();
}

void
EventQueue::pushEntry(const HeapEntry &e)
{
    heap.push_back(e);
    siftUp(heap.size() - 1);
}

EventQueue::HeapEntry
EventQueue::popEntry()
{
    HeapEntry top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0);
    return top;
}

// A 4-ary heap: half the depth of a binary heap and the four
// children share cache lines, which matters because schedule/pop is
// on the critical path of every run (and dominates fast-mode
// sampling runs). The comparator is a strict total order over
// (when, priority, seq), so the dispatch sequence is identical to
// any other correct heap — event order, and with it every golden,
// is unaffected by the arity.

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry e = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (heap[parent] > e) {
            heap[i] = heap[parent];
            i = parent;
        } else {
            break;
        }
    }
    heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap.size();
    const HeapEntry e = heap[i];
    while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + 4, n);
        std::size_t smallest = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap[smallest] > heap[c])
                smallest = c;
        }
        if (!(e > heap[smallest]))
            break;
        heap[i] = heap[smallest];
        i = smallest;
    }
    heap[i] = e;
}

} // namespace sim
} // namespace varsim
