#include "sim/eventq.hh"

#include <algorithm>
#include <bit>

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
    // Far timers and their tombstones; keep the steady-state heap
    // free of regrowth.
    heap.reserve(1024);
}

EventQueue::~EventQueue() = default;

CallbackEvent *
EventQueue::acquireCallback()
{
    if (freeCallbacks != nullptr) {
        CallbackEvent *ev = freeCallbacks;
        freeCallbacks = static_cast<CallbackEvent *>(ev->next_);
        return ev;
    }
    callbackPool.emplace_back(new CallbackEvent(*this));
    return callbackPool.back().get();
}

void
EventQueue::releaseCallback(CallbackEvent *ev)
{
    ev->next_ = freeCallbacks;
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
    if (when - curTick_ < wheelSlots)
        link(ev);
    else
        pushEntry({when, ev->priority(), ev->seq_, ev});
    ++numPending;
}

void
EventQueue::deschedule(Event *ev)
{
    VARSIM_ASSERT(ev != nullptr, "descheduling null event");
    VARSIM_ASSERT(ev->scheduled_, "event '%s' not scheduled",
                  ev->name().c_str());
    // A wheel event leaves its slot now. A heap entry stays behind as
    // a tombstone, discarded when it surfaces; clearing its event
    // pointer marks it (the far heap holds a few dozen entries), so
    // no entry in either tier points at an event that is not pending.
    if (ev->inWheel_) {
        unlink(ev);
    } else {
        const auto live = [ev](const HeapEntry &e) { return e.ev == ev; };
        std::find_if(heap.begin(), heap.end(), live)->ev = nullptr;
    }
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

// The wheel holds only events due in [curTick_, curTick_ + wheelSlots):
// nothing is ever due before curTick_, and time only moves to the
// earliest pending event. So a slot holds a single tick's events, and
// its chain needs only (priority, seq) order. A new event carries the
// largest seq yet, so it goes after every event of its priority or
// lower: at the tail, unless the tail's priority is higher.

void
EventQueue::link(Event *ev)
{
    const std::size_t s = ev->when_ % wheelSlots;
    Slot &slot = wheel[s];
    ev->inWheel_ = true;
    if (slot.tail == nullptr) {
        ev->next_ = nullptr;
        slot.head = slot.tail = ev;
        occupied[s / 64] |= std::uint64_t{1} << (s % 64);
    } else if (slot.tail->priority_ <= ev->priority_) {
        ev->next_ = nullptr;
        slot.tail->next_ = ev;
        slot.tail = ev;
    } else {
        Event **at = &slot.head;
        while ((*at)->priority_ <= ev->priority_)
            at = &(*at)->next_;
        ev->next_ = *at;
        *at = ev;
    }
}

void
EventQueue::unlink(Event *ev)
{
    const std::size_t s = ev->when_ % wheelSlots;
    Slot &slot = wheel[s];
    Event *prev = nullptr;
    Event **at = &slot.head;
    while (*at != ev) {
        prev = *at;
        at = &prev->next_;
    }
    *at = ev->next_;
    if (slot.tail == ev)
        slot.tail = prev;
    if (slot.head == nullptr)
        occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    ev->next_ = nullptr;
    ev->inWheel_ = false;
}

std::size_t
EventQueue::firstSlot() const
{
    // Slots read from curTick_'s on, wrapping once, come in due
    // order: the rest of curTick_'s word, the other words, then the
    // bits of curTick_'s word below it (those above were clear).
    const std::size_t start = curTick_ % wheelSlots;
    std::size_t w = start / 64;
    std::uint64_t bits = occupied[w] & (~std::uint64_t{0} << start % 64);
    for (std::size_t k = 0; k <= wheelWords; ++k) {
        if (bits != 0)
            return w * 64 + std::size_t(std::countr_zero(bits));
        w = (w + 1) % wheelWords;
        bits = occupied[w];
    }
    return wheelSlots;
}

Event *
EventQueue::takeNext(Tick stop_tick)
{
    const std::size_t s = firstSlot();
    Event *near = s < wheelSlots ? wheel[s].head : nullptr;

    // The heap's top goes first only if it precedes the wheel's head
    // under the one (when, priority, seq) order; a tombstone there is
    // discarded and the next top compared.
    while (!heap.empty() &&
           (near == nullptr ||
            HeapEntry{near->when_, near->priority_, near->seq_, near} >
                heap.front())) {
        const HeapEntry &top = heap.front();
        if (top.ev != nullptr)
            return top.when <= stop_tick ? popEntry().ev : nullptr;
        popEntry();
    }
    if (near == nullptr || near->when_ > stop_tick)
        return nullptr;

    // The head leaves its slot (unlink() without the walk; calling
    // it here ran 1-6% slower on bench_sim_throughput).
    Slot &slot = wheel[s];
    slot.head = near->next_;
    if (slot.head == nullptr) {
        slot.tail = nullptr;
        occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
    }
    near->inWheel_ = false;
    return near;
}

void
EventQueue::dispatch(Event *ev)
{
    VARSIM_ASSERT(ev->when_ >= curTick_,
                  "time went backwards dispatching '%s'",
                  ev->name().c_str());
    curTick_ = ev->when_;
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    --numPending;
    ++dispatched;
    ev->process();
}

Tick
EventQueue::run(Tick stop_tick)
{
    while (!stopRequested) {
        Event *ev = takeNext(stop_tick);
        if (ev == nullptr)
            break;
        dispatch(ev);
    }
    return curTick_;
}

void
EventQueue::step()
{
    Event *ev = takeNext(maxTick);
    VARSIM_ASSERT(ev != nullptr, "step() on empty event queue");
    dispatch(ev);
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

// The far tier is a 4-ary heap: half the depth of a binary heap and
// the four children share cache lines. The comparator is a strict
// total order over (when, priority, seq), so the dispatch sequence is
// identical to any other correct heap's, and to the wheel's.

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
