/**
 * @file
 * Event-queue stress: lazy descheduling, pooled one-shot callbacks
 * and ordering under dense schedule/deschedule/reschedule churn.
 *
 * The queue deschedules lazily (tombstones stay in the heap until
 * they surface), so these tests drive the queue through interleavings
 * where stale entries pile up and verify that dispatch order,
 * size()/empty() accounting and rescheduling semantics are exactly
 * those of an eagerly-compacted queue.
 */

#include <gtest/gtest.h>

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

    // Schedule all, then repeatedly move events around. Every
    // reschedule tombstones the old heap entry, so after this loop
    // the heap holds several times more entries than live events.
    for (int i = 0; i < n; ++i)
        q.schedule(events[i].get(), 100 + i);
    SplitMix64 rng(7);
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < n; ++i) {
            const Tick when = 100 + rng.next() % 64;
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
    for (int i = 0; i < n; ++i) {
        events.push_back(std::make_unique<LogEvent>(i, q, log));
        q.schedule(events[i].get(), 10 + i);
    }

    // Deschedule every third event; size() must track live events,
    // not heap entries.
    std::size_t live = n;
    for (int i = 0; i < n; i += 3) {
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
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;
    LogEvent ev(1, q, log);

    q.schedule(&ev, 50);
    q.deschedule(&ev);
    q.schedule(&ev, 60);
    q.deschedule(&ev);
    q.schedule(&ev, 70);
    EXPECT_EQ(q.size(), 1u);

    q.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].first, Tick{70});
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, StepSkipsTombstones)
{
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int i = 0; i < 4; ++i)
        events.push_back(std::make_unique<LogEvent>(i, q, log));

    // Tombstones at the top of the heap: events 0..2 are earliest
    // but get descheduled; step() must fire event 3.
    for (int i = 0; i < 4; ++i)
        q.schedule(events[i].get(), 10 + i);
    for (int i = 0; i < 3; ++i)
        q.deschedule(events[i].get());

    q.step();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].second, 3);
    EXPECT_TRUE(q.empty());
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

} // namespace
