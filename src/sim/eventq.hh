/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Determinism is the load-bearing property of this queue. The paper's
 * central observation (Section 3.3) is that architectural simulators
 * are deterministic — "they produce the same timing result every time
 * for the same workload and system configuration" — and that a
 * methodology must therefore *inject* perturbations to expose workload
 * variability. For the injected perturbation to be the only source of
 * divergence, event ordering must be a pure function of the schedule:
 * events firing at the same tick are ordered by (priority, insertion
 * sequence number), never by pointer value or container whim.
 */

#ifndef VARSIM_SIM_EVENTQ_HH
#define VARSIM_SIM_EVENTQ_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <cstddef>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace varsim
{
namespace sim
{

class EventQueue;

/**
 * An occurrence scheduled to happen at a particular tick.
 *
 * Events are owned by the components that schedule them; the queue
 * never deletes an Event. An event object can be rescheduled after it
 * has fired (but not while it is pending).
 */
class Event
{
  public:
    /**
     * Tie-break priorities for events at the same tick. Lower values
     * fire first.
     */
    enum Priority : std::int32_t
    {
        /** Memory responses settle before dependents react. */
        memoryResponsePri = -20,
        /** CPU pipeline activity. */
        cpuTickPri = -10,
        /** Default for everything else. */
        defaultPri = 0,
        /** OS scheduling decisions observe everything else first. */
        schedulerPri = 10,
        /** Measurement bookkeeping sees the final state of a tick. */
        statsPri = 20,
    };

    explicit Event(Priority p = defaultPri) : priority_(p) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable description, for tracing and error messages. */
    virtual std::string name() const { return "anon-event"; }

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire (valid while scheduled). */
    Tick when() const { return when_; }

    /** Priority used to order same-tick events. */
    Priority priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    Priority priority_;
    bool scheduled_ = false;
    /** Pending in a wheel slot (else in the far heap). */
    bool inWheel_ = false;
    EventQueue *queue_ = nullptr;
    /**
     * The next event in this event's wheel slot while it waits there,
     * or the next free one while a pooled CallbackEvent sits on its
     * queue's free list (it is never scheduled then).
     */
    Event *next_ = nullptr;
};

/**
 * Convenience event wrapping a callable; gem5's EventFunctionWrapper.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name,
                         Priority p = defaultPri)
        : Event(p), callback_(std::move(callback)),
          name_(std::move(name))
    {}

    void process() override { callback_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * A recyclable one-shot event with inline callable storage.
 *
 * Owned by an EventQueue and handed out by EventQueue::callAt(); after
 * firing, the event returns to the queue's free list instead of the
 * heap allocator. Together with the inline storage for the callable
 * (no std::function, no captured-state allocation for callables up to
 * inlineBytes) this makes the memory-system miss path — which
 * schedules a handful of one-shot callbacks per coherence
 * transaction — allocation-free in steady state.
 */
class CallbackEvent : public Event
{
  public:
    ~CallbackEvent() override { reset(); }

    void process() override;
    std::string name() const override { return "callback"; }

  private:
    friend class EventQueue;

    /** Covers every capture list in the simulator's hot paths. */
    static constexpr std::size_t inlineBytes = 56;

    explicit CallbackEvent(EventQueue &owner) : owner_(owner) {}

    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(::max_align_t)) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            // Oversized callable: fall back to the heap (cold path).
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            invoke_ = [](void *p) { (**static_cast<Fn **>(p))(); };
            destroy_ = [](void *p) { delete *static_cast<Fn **>(p); };
        }
    }

    void
    reset()
    {
        if (destroy_ != nullptr) {
            destroy_(storage_);
            destroy_ = nullptr;
            invoke_ = nullptr;
        }
    }

    EventQueue &owner_;
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    alignas(::max_align_t) unsigned char storage_[inlineBytes];
};

/**
 * The event queue, ordered by (tick, priority, seq) over two tiers.
 *
 * An event due fewer than wheelSlots ticks ahead (nearly all of a
 * run's memory, pipeline and callback events) is linked into a timing
 * wheel: one slot per tick of the next wheelSlots, each an intrusive
 * chain through Event::next_ kept in (priority, seq) order, with an
 * occupancy bitmap to find the first slot; a deschedule unlinks the
 * event at once. Anything further ahead (quantum, sleep and
 * lock-recheck timers, about 1% of schedules) goes to a 4-ary heap,
 * where a deschedule leaves a tombstone (the entry, its event pointer
 * cleared) that is discarded when it surfaces. Dispatch takes the
 * smaller of the first slot's head and the heap's top, so the
 * dispatch sequence is that of one queue ordered by (tick, priority,
 * seq). Neither tier ever points at an event that is not pending.
 *
 * Each Simulation owns exactly one queue; there are no global queues,
 * so independent simulations can run concurrently on host threads
 * (the paper's "coarse-grain parallelism" across simulation hosts,
 * Section 1).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event from the queue. */
    void deschedule(Event *ev);

    /** Deschedule (if pending) and schedule at a new tick. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callable at absolute tick @p when. The
     * event object comes from an internal free list and is recycled
     * after firing: allocation-free in steady state, unlike
     * heap-allocating a self-deleting Event per callback.
     */
    template <typename F>
    void
    callAt(Tick when, F &&fn,
           Event::Priority pri = Event::defaultPri)
    {
        CallbackEvent *ev = acquireCallback();
        ev->priority_ = pri;
        ev->emplace(std::forward<F>(fn));
        schedule(ev, when);
    }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** True if no events are pending. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t size() const { return numPending; }

    /** Total events dispatched since construction. */
    std::uint64_t numDispatched() const { return dispatched; }

    /**
     * Dispatch events until the queue is empty, the stop flag is
     * raised (requestStop()), or the next event lies beyond
     * @p stop_tick.
     *
     * @return the tick of the last dispatched event, or curTick() if
     *         nothing ran.
     */
    Tick run(Tick stop_tick = maxTick);

    /** Dispatch exactly one event. Queue must not be empty. */
    void step();

    /**
     * Ask a run() in progress to return after the current event
     * completes. Used by measurement logic when the target
     * transaction count is reached.
     */
    void requestStop() { stopRequested = true; }

    /** Clear a previously raised stop request. */
    void clearStop() { stopRequested = false; }

    /**
     * Restore simulated time when loading a checkpoint. Only valid
     * while the queue is empty (checkpoints are taken drained) and
     * time moves forward.
     */
    void restoreTick(Tick t);

    /** True if a stop has been requested but not yet cleared. */
    bool stopPending() const { return stopRequested; }

  private:
    struct HeapEntry
    {
        Tick when;
        std::int32_t priority;
        std::uint64_t seq;
        /** The pending event; nullptr once it was descheduled. */
        Event *ev;

        bool
        operator>(const HeapEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    /** One wheel slot's chain, in (priority, seq) order. */
    struct Slot
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /**
     * Ticks the wheel spans, one slot per tick (a power of two). On
     * bench_sim_throughput's single rows 128 slots ran 4-11% slower,
     * and 512 or 1024 no faster.
     */
    static constexpr std::size_t wheelSlots = 256;
    static constexpr std::size_t wheelWords = wheelSlots / 64;

    friend class CallbackEvent;

    void link(Event *ev);
    void unlink(Event *ev);
    /** First occupied slot from curTick_'s on, or wheelSlots. */
    std::size_t firstSlot() const;

    /**
     * Remove and return the next event if it is due by @p stop_tick,
     * discarding heap tombstones on the way; nullptr otherwise.
     */
    Event *takeNext(Tick stop_tick);
    void dispatch(Event *ev);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void pushEntry(const HeapEntry &e);
    HeapEntry popEntry();

    CallbackEvent *acquireCallback();
    void releaseCallback(CallbackEvent *ev);

    /** The near tier: slot t % wheelSlots holds the events due at t. */
    std::array<Slot, wheelSlots> wheel{};
    /** Bit s set while wheel[s] holds an event. */
    std::array<std::uint64_t, wheelWords> occupied{};
    /** The far tier. */
    std::vector<HeapEntry> heap;
    Tick curTick_ = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t dispatched = 0;
    std::size_t numPending = 0;
    bool stopRequested = false;

    /** All pooled one-shot events this queue ever created. */
    std::vector<std::unique_ptr<CallbackEvent>> callbackPool;
    /** Intrusive free list threaded through Event::next_. */
    CallbackEvent *freeCallbacks = nullptr;
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_EVENTQ_HH
