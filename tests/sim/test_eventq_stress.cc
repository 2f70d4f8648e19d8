/**
 * @file
 * Event-queue stress: both tiers, pooled one-shot callbacks and
 * ordering under dense schedule/deschedule/reschedule churn.
 *
 * An event due fewer than 256 ticks ahead waits in a wheel slot and is
 * unlinked at once when descheduled; one due further ahead waits in
 * the far heap, and tombstones exist only there (a descheduled entry
 * stays until it surfaces). The churn tests drive both tiers through
 * interleavings where tombstones pile up and verify that dispatch
 * order, size()/empty() accounting and rescheduling semantics are
 * exactly those of an eagerly-compacted queue. The differential tests
 * check every dispatch against a reference model written here: an
 * ordered set keyed by (when, priority, seq).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/eventq.hh"
#include "sim/random.hh"

namespace
{

using namespace varsim::sim;

/** Records its dispatch (tick, id) into a shared log. */
class LogEvent : public Event
{
  public:
    LogEvent(int id, EventQueue &q,
             std::vector<std::pair<Tick, int>> &log,
             Priority p = defaultPri)
        : Event(p), id_(id), q_(q), log_(log)
    {}

    void
    process() override
    {
        log_.emplace_back(q_.curTick(), id_);
    }

  private:
    int id_;
    EventQueue &q_;
    std::vector<std::pair<Tick, int>> &log_;
};

TEST(EventQueueStress, RescheduleChurnPreservesOrder)
{
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    const int n = 32;
    for (int i = 0; i < n; ++i)
        events.push_back(std::make_unique<LogEvent>(i, q, log));

    // Schedule all, then repeatedly move events around, within and
    // between the tiers: a tick of 256 or more lies in the far heap.
    // Every reschedule of a far event tombstones its old heap entry,
    // so after this loop the heap holds several times more entries
    // than live far events.
    for (int i = 0; i < n; ++i)
        q.schedule(events[i].get(), 100 + i);
    SplitMix64 rng(7);
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < n; ++i) {
            const Tick far = rng.next() % 2 ? 0 : 256 * (1 + rng.next() % 3);
            const Tick when = 100 + far + rng.next() % 64;
            q.reschedule(events[i].get(), when);
        }
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(n));

    q.run();
    ASSERT_EQ(log.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(q.empty());

    // Dispatch must be by (tick, then reschedule order): ticks
    // non-decreasing, and equal ticks in the order of the final
    // reschedule round (which assigned increasing sequence numbers
    // by index i).
    for (std::size_t k = 1; k < log.size(); ++k) {
        ASSERT_GE(log[k].first, log[k - 1].first);
        if (log[k].first == log[k - 1].first) {
            EXPECT_GT(log[k].second, log[k - 1].second)
                << "same-tick order must follow insertion sequence";
        }
    }
}

TEST(EventQueueStress, DescheduleIsExactDespiteTombstones)
{
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    const int n = 40;
    // Events 0..n-1 wait in the wheel, n..2n-1 in the far heap.
    for (int i = 0; i < 2 * n; ++i) {
        events.push_back(std::make_unique<LogEvent>(i, q, log));
        q.schedule(events[i].get(), (i < n ? 10 : 300) + i);
    }

    // Deschedule every third event; size() must track live events,
    // not heap entries.
    std::size_t live = 2 * n;
    for (int i = 0; i < 2 * n; i += 3) {
        q.deschedule(events[i].get());
        --live;
        EXPECT_FALSE(events[i]->scheduled());
    }
    EXPECT_EQ(q.size(), live);
    EXPECT_FALSE(q.empty());

    q.run();
    EXPECT_EQ(log.size(), live);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    for (const auto &entry : log)
        EXPECT_NE(entry.second % 3, 0)
            << "descheduled event " << entry.second << " fired";
}

TEST(EventQueueStress, DescheduleThenRescheduleFiresOnce)
{
    // In the wheel, through the far heap and back, and in the heap.
    const std::array<std::array<Tick, 3>, 3> plans = {
        {{50, 60, 70}, {50, 600, 70}, {600, 700, 800}}};
    for (const auto &ticks : plans) {
        EventQueue q;
        std::vector<std::pair<Tick, int>> log;
        LogEvent ev(1, q, log);

        q.schedule(&ev, ticks[0]);
        q.deschedule(&ev);
        q.schedule(&ev, ticks[1]);
        q.deschedule(&ev);
        q.schedule(&ev, ticks[2]);
        EXPECT_EQ(q.size(), 1u);

        q.run();
        ASSERT_EQ(log.size(), 1u);
        EXPECT_EQ(log[0].first, ticks[2]);
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueueStress, StepSkipsTombstones)
{
    // Events 0..2 are earliest but get descheduled; step() must fire
    // event 3: from the wheel, past tombstones at the top of the far
    // heap, and from the heap past an emptied wheel.
    const std::array<std::array<Tick, 4>, 3> plans = {
        {{10, 11, 12, 13}, {300, 301, 302, 303}, {10, 11, 12, 300}}};
    for (const auto &ticks : plans) {
        EventQueue q;
        std::vector<std::pair<Tick, int>> log;
        std::vector<std::unique_ptr<LogEvent>> events;
        for (int i = 0; i < 4; ++i)
            events.push_back(std::make_unique<LogEvent>(i, q, log));

        for (int i = 0; i < 4; ++i)
            q.schedule(events[i].get(), ticks[i]);
        for (int i = 0; i < 3; ++i)
            q.deschedule(events[i].get());

        q.step();
        ASSERT_EQ(log.size(), 1u);
        EXPECT_EQ(log[0].second, 3);
        EXPECT_EQ(log[0].first, ticks[3]);
        EXPECT_TRUE(q.empty());
    }
}

TEST(EventQueueStress, PooledCallbacksRecycleAndStayOrdered)
{
    EventQueue q;
    std::vector<int> order;

    // Rounds of one-shot callbacks: each round schedules from inside
    // the previous round's callbacks, continuously recycling pool
    // events. Interleave two priorities to check same-tick ordering
    // of pooled events.
    const int rounds = 50;
    std::function<void(int)> scheduleRound = [&](int r) {
        if (r >= rounds)
            return;
        q.callAt(q.curTick() + 5,
                 [&order, r, &scheduleRound] {
                     order.push_back(2 * r + 1);
                     scheduleRound(r + 1);
                 },
                 Event::schedulerPri);
        q.callAt(q.curTick() + 5, [&order, r] {
            order.push_back(2 * r);
        });
    };
    scheduleRound(0);
    q.run();

    ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * rounds));
    for (int r = 0; r < rounds; ++r) {
        // defaultPri (even id) fires before schedulerPri (odd id).
        EXPECT_EQ(order[2 * r], 2 * r);
        EXPECT_EQ(order[2 * r + 1], 2 * r + 1);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, OversizedCallableStillFires)
{
    EventQueue q;
    // A capture larger than the inline buffer takes the heap
    // fallback path; semantics must be identical.
    struct Big
    {
        std::uint64_t words[16];
    };
    Big big{};
    big.words[0] = 41;
    big.words[15] = 1;
    std::uint64_t result = 0;
    q.callAt(3, [big, &result] {
        result = big.words[0] + big.words[15];
    });
    q.run();
    EXPECT_EQ(result, 42u);
    EXPECT_TRUE(q.empty());
}


// ---- Both tiers against a reference model ----

/** The reference model's order: the queue's (when, priority, seq). */
using Key = std::tuple<Tick, int, std::uint64_t>;

constexpr std::array<Event::Priority, 5> allPriorities = {
    Event::memoryResponsePri, Event::cpuTickPri, Event::defaultPri,
    Event::schedulerPri, Event::statsPri};

/** The wheel's span: a delta this large or larger waits in the heap. */
constexpr Tick wheelSpan = 256;

TEST(EventQueueTiers, HeapAndWheelEventsOnOneTick)
{
    // An event scheduled 300 ticks ahead waits in the far heap; one
    // scheduled later for the same tick, 200 ahead, in the wheel.
    struct Case
    {
        Event::Priority far, near;
        bool farFirst;
    };
    const Case cases[] = {
        {Event::statsPri, Event::memoryResponsePri, false},
        {Event::memoryResponsePri, Event::statsPri, true},
        {Event::defaultPri, Event::defaultPri, true}, // the older seq
    };
    for (const Case &c : cases) {
        EventQueue q;
        std::vector<std::pair<Tick, int>> log;
        LogEvent clock(0, q, log);
        LogEvent far(1, q, log, c.far);
        LogEvent near(2, q, log, c.near);
        q.schedule(&far, 300);
        q.schedule(&clock, 100);
        EXPECT_EQ(q.run(100), Tick{100});
        q.schedule(&near, 300);
        EXPECT_EQ(q.run(), Tick{300});
        const std::vector<std::pair<Tick, int>> want = {
            {100, 0}, {300, c.farFirst ? 1 : 2}, {300, c.farFirst ? 2 : 1}};
        EXPECT_EQ(log, want) << "far priority " << c.far
                             << ", near priority " << c.near;
    }
}

TEST(EventQueueTiers, EveryDeltaAtEveryPriorityInOrder)
{
    // From a tick that is no multiple of the wheel's span, every
    // delta at every priority, twice, scheduled in a seeded shuffle:
    // dispatch must follow (when, priority, seq) exactly.
    const Tick deltas[] = {0, 1, 255, 256, 257, 20'000};
    std::vector<std::pair<Tick, Event::Priority>> plan;
    for (int copy = 0; copy < 2; ++copy)
        for (const Tick d : deltas)
            for (const Event::Priority p : allPriorities)
                plan.emplace_back(d, p);
    SplitMix64 rng(11);
    for (std::size_t i = plan.size() - 1; i > 0; --i)
        std::swap(plan[i], plan[rng.next() % (i + 1)]);

    EventQueue q;
    q.restoreTick(1000 + 37);
    std::vector<Key> want, got;
    for (std::size_t seq = 0; seq < plan.size(); ++seq) {
        const Key key{q.curTick() + plan[seq].first, plan[seq].second,
                      seq};
        q.callAt(std::get<0>(key), [key, &q, &got] {
            EXPECT_EQ(q.curTick(), std::get<0>(key));
            got.push_back(key);
        }, plan[seq].second);
        want.push_back(key);
    }
    std::sort(want.begin(), want.end());
    q.run();
    EXPECT_EQ(got, want);
}

TEST(EventQueueTiers, DestroyedEventsLeaveNothingBehind)
{
    // Pending events destroyed before the run, one in the wheel
    // (ahead of a kept one in its slot) and one in the far heap, plus
    // a far event descheduled before it was destroyed: none of them
    // may fire, and no tier may still point at one (the sanitizer
    // build checks the latter).
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;
    auto nearGone = std::make_unique<LogEvent>(1, q, log);
    auto farGone = std::make_unique<LogEvent>(2, q, log);
    auto farDescheduled = std::make_unique<LogEvent>(3, q, log);
    LogEvent nearKept(4, q, log);
    LogEvent farKept(5, q, log);
    q.schedule(nearGone.get(), 50);
    q.schedule(&nearKept, 50);
    q.schedule(farGone.get(), 500);
    q.schedule(&farKept, 500);
    q.schedule(farDescheduled.get(), 400);
    q.deschedule(farDescheduled.get());
    nearGone.reset();
    farGone.reset();
    farDescheduled.reset();
    EXPECT_EQ(q.size(), 2u);

    q.run();
    const std::vector<std::pair<Tick, int>> want = {{50, 4}, {500, 5}};
    EXPECT_EQ(log, want);
    EXPECT_TRUE(q.empty());
}

/**
 * Drives one queue and the reference model in lockstep: an ordered
 * map from (when, priority, seq) to the id of the event that must
 * fire then. The model's seq counts schedules, as the queue's does.
 * Member events (ids below callbackBase) and pooled callAt()s (ids
 * from it up) check each dispatch against the model's first entry
 * and then act again from inside process(): schedules at the wheel's
 * edges and at quantum scale, same-tick schedules at the firing
 * event's priority or lower, reschedules and deschedules.
 */
class Differential
{
  public:
    static constexpr int numMembers = 24;
    static constexpr int callbackBase = 1000;

    class Member : public Event
    {
      public:
        Member(Differential &d, int id, Priority p)
            : Event(p), d_(d), id_(id)
        {}

        void process() override { d_.fired(id_); }
        int id() const { return id_; }

        /** The model's key for this event while it is pending. */
        Key key{};

      private:
        Differential &d_;
        int id_;
    };

    explicit Differential(std::uint64_t seed) : rng(seed)
    {
        for (int i = 0; i < numMembers; ++i)
            members.push_back(std::make_unique<Member>(
                *this, i, allPriorities[i % allPriorities.size()]));
    }

    Tick
    delta()
    {
        const Tick edges[] = {0, 1, wheelSpan - 1, wheelSpan,
                              wheelSpan + 1};
        switch (rng.next() % 8) {
          case 0: return edges[rng.next() % 5];
          case 1: return 20'000 + rng.next() % 2'000; // a quantum
          case 2: return wheelSpan + rng.next() % 2'048;
          default: return rng.next() % wheelSpan;
        }
    }

    Event::Priority
    priority()
    {
        return allPriorities[rng.next() % allPriorities.size()];
    }

    Member &member() { return *members[rng.next() % members.size()]; }

    void
    note(Tick when)
    {
        ++(when - q.curTick() < wheelSpan ? nearSchedules : farSchedules);
    }

    void
    scheduleMember(Member &m, Tick when)
    {
        if (m.scheduled())
            model.erase(m.key);
        q.reschedule(&m, when);
        m.key = Key{when, m.priority(), seq++};
        model.emplace(m.key, m.id());
        note(when);
    }

    void
    descheduleMember(Member &m)
    {
        model.erase(m.key);
        q.deschedule(&m);
    }

    void
    callAt(Tick when, Event::Priority p)
    {
        const int id = nextCallback++;
        q.callAt(when, [this, id] { fired(id); }, p);
        model.emplace(Key{when, p, seq++}, id);
        note(when);
    }

    /** Destroy member @p i, pending or not, for a fresh one. */
    void
    replaceMember(std::size_t i)
    {
        Member &old = *members[i];
        if (old.scheduled()) {
            model.erase(old.key);
            ++destroyedPending;
        }
        const Event::Priority p = old.priority();
        members[i] = std::make_unique<Member>(*this, int(i), p);
    }

    /** A few seeded schedule/reschedule/deschedule actions. */
    void
    act(Event::Priority current)
    {
        const int actions = model.size() < 40 ? 3 : 1;
        for (int a = 0; a < actions; ++a) {
            const std::uint64_t r = rng.next() % 100;
            if (r < 35) {
                callAt(q.curTick() + delta(), priority());
            } else if (r < 50) {
                // This tick, at the firing event's priority or lower.
                std::size_t k = 0;
                while (allPriorities[k] < current)
                    ++k;
                callAt(q.curTick(),
                       allPriorities[k + rng.next() %
                                             (allPriorities.size() - k)]);
            } else if (r < 80) {
                scheduleMember(member(), q.curTick() + delta());
            } else {
                Member &m = member();
                if (m.scheduled())
                    descheduleMember(m);
            }
        }
    }

    void
    fired(int id)
    {
        if (!failure.empty())
            return;
        const auto first = model.begin();
        if (first == model.end() || first->second != id ||
            std::get<0>(first->first) != q.curTick()) {
            failure = "at tick " + std::to_string(q.curTick()) +
                      " event " + std::to_string(id) + " fired, the model" +
                      (first == model.end()
                           ? std::string(" holds nothing")
                           : " wants " + std::to_string(first->second) +
                                 " at " +
                                 std::to_string(std::get<0>(first->first)));
            q.requestStop();
            return;
        }
        const auto current =
            static_cast<Event::Priority>(std::get<1>(first->first));
        model.erase(first);
        ++dispatched;
        if (dispatched == stopAt)
            q.requestStop();
        if (dispatched < budget)
            act(current);
    }

    /** The queue's bookkeeping agrees with the model's. */
    void
    expectAccounting() const
    {
        EXPECT_EQ(q.size(), model.size());
        EXPECT_EQ(q.empty(), model.empty());
        EXPECT_EQ(q.numDispatched(), dispatched);
    }

    EventQueue q;
    std::vector<std::unique_ptr<Member>> members;
    std::map<Key, int> model;
    SplitMix64 rng;
    std::uint64_t seq = 0;
    int nextCallback = callbackBase;
    std::uint64_t dispatched = 0;
    std::uint64_t stopAt = 0;
    std::uint64_t budget = 0;
    std::uint64_t nearSchedules = 0;
    std::uint64_t farSchedules = 0;
    std::uint64_t destroyedPending = 0;
    std::string failure;
};

/**
 * Drive @p d until its queue drains (new work stops after @p events
 * more dispatches), by run(stop_tick), step(), run() cut short by
 * requestStop() from inside process(), schedules from outside, and
 * destroying members that may be pending.
 */
void
drive(Differential &d, std::uint64_t events)
{
    d.budget = d.dispatched + events;
    for (int i = 0; i < 40; ++i) {
        if (i % 2)
            d.callAt(d.q.curTick() + d.delta(), d.priority());
        else
            d.scheduleMember(d.member(), d.q.curTick() + d.delta());
    }
    while (!d.q.empty() && d.failure.empty()) {
        switch (d.rng.next() % 6) {
          case 0: {
            const Tick stop = d.q.curTick() + d.rng.next() % 600;
            const Tick last = d.q.run(stop);
            EXPECT_EQ(last, d.q.curTick());
            EXPECT_LE(last, stop);
            if (d.failure.empty() && !d.model.empty()) {
                EXPECT_GT(std::get<0>(d.model.begin()->first), stop);
            }
            break;
          }
          case 1:
            for (int k = 1 + d.rng.next() % 8; k > 0 && !d.q.empty(); --k)
                d.q.step();
            break;
          case 2:
            d.stopAt = d.dispatched + 1 + d.rng.next() % 64;
            d.q.run();
            if (d.failure.empty() && !d.q.empty()) {
                EXPECT_TRUE(d.q.stopPending());
                EXPECT_EQ(d.dispatched, d.stopAt);
            }
            d.q.clearStop();
            d.stopAt = 0;
            break;
          case 3:
            d.replaceMember(d.rng.next() % d.members.size());
            break;
          default:
            if (d.dispatched < d.budget)
                d.act(allPriorities.front());
            break;
        }
        d.expectAccounting();
    }
}

TEST(EventQueueDifferential, SeededChurnMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Differential d(seed);
        drive(d, 6'000);
        ASSERT_EQ(d.failure, "");
        EXPECT_TRUE(d.model.empty());

        // restoreTick after the drain: time jumps to a tick that is
        // no multiple of the wheel's span, and both tiers start over.
        const Tick resumed = d.q.curTick() + 100'000 + 37 * seed;
        d.q.restoreTick(resumed);
        EXPECT_EQ(d.q.curTick(), resumed);
        drive(d, 2'000);
        ASSERT_EQ(d.failure, "");
        EXPECT_TRUE(d.model.empty());

        // Both tiers were exercised, and pending events destroyed.
        EXPECT_GT(d.nearSchedules, 5 * d.farSchedules / 2);
        EXPECT_GT(d.farSchedules, 1'000u);
        EXPECT_GT(d.destroyedPending, 0u);
        d.expectAccounting();
    }
}

} // namespace
