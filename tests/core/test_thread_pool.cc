/**
 * @file
 * Host thread pool: batch scheduling, exception propagation, reuse,
 * and the posted-task side the serve scheduler runs on (FIFO order,
 * stop() semantics, exception containment, tasks posting tasks).
 *
 * The historical bug being pinned here: a job exception thrown on a
 * pool thread used to escape the thread's start function and
 * std::terminate the whole process. The pool must instead capture
 * the first exception, cancel unclaimed work, rethrow on the caller
 * and remain usable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/thread_pool.hh"

namespace
{

using varsim::core::HostThreadPool;

TEST(HostThreadPool, RunsEveryIndexExactlyOnce)
{
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    HostThreadPool::instance().parallelFor(
        n, 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(HostThreadPool, SingleWorkerRunsInline)
{
    // With one worker the calling thread does everything, in order.
    std::vector<std::size_t> order;
    HostThreadPool::instance().parallelFor(
        5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(HostThreadPool, PropagatesJobException)
{
    EXPECT_THROW(
        HostThreadPool::instance().parallelFor(
            8, 4,
            [](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("job 3 failed");
            }),
        std::runtime_error);
}

TEST(HostThreadPool, ExceptionCancelsUnclaimedWork)
{
    // Serial path: job 0 throws, so of 100 jobs only a handful (the
    // ones already claimed by concurrent workers) may still run.
    std::atomic<std::size_t> ran{0};
    try {
        HostThreadPool::instance().parallelFor(
            100, 2, [&](std::size_t i) {
                if (i == 0)
                    throw std::runtime_error("first job failed");
                ++ran;
            });
        FAIL() << "exception did not propagate";
    } catch (const std::runtime_error &) {
    }
    // At most the other worker's in-flight job ran per thread; the
    // bulk of the queue must have been cancelled.
    EXPECT_LT(ran.load(), std::size_t{100});
}

TEST(HostThreadPool, UsableAfterException)
{
    auto &pool = HostThreadPool::instance();
    EXPECT_THROW(pool.parallelFor(4, 4,
                                  [](std::size_t) {
                                      throw std::logic_error("boom");
                                  }),
                 std::logic_error);

    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, 4, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), std::size_t{45});
}

TEST(HostThreadPool, ConcurrentIndicesAreDisjoint)
{
    // Each index is claimed exactly once even under heavy worker
    // contention; collect them under a mutex and check the set.
    std::mutex mu;
    std::set<std::size_t> seen;
    HostThreadPool::instance().parallelFor(
        500, 8, [&](std::size_t i) {
            std::lock_guard<std::mutex> lk(mu);
            EXPECT_TRUE(seen.insert(i).second)
                << "index " << i << " ran twice";
        });
    EXPECT_EQ(seen.size(), std::size_t{500});
}

TEST(HostThreadPool, ParallelForInsidePoolJobCompletes)
{
    // Batches nest: every outer job runs an inner batch on the same
    // pool, and on a one-worker pool a posted task runs a batch while
    // it occupies the only worker (its helper cannot start until the
    // task returns, so the task runs the whole batch itself).
    std::vector<std::atomic<int>> hits(4 * 8);
    auto &pool = HostThreadPool::instance();
    pool.parallelFor(4, 4, [&](std::size_t i) {
        pool.parallelFor(8, 4,
                         [&](std::size_t j) { ++hits[i * 8 + j]; });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "index " << k;

    HostThreadPool owned(1);
    std::atomic<std::size_t> sum{0};
    std::latch done(1);
    owned.post([&] {
        owned.parallelFor(10, 2, [&](std::size_t i) { sum += i; });
        done.count_down();
    });
    done.wait();
    owned.stop(); // join before the locals the task uses go away
    EXPECT_EQ(sum.load(), std::size_t{45});
}

TEST(HostThreadPool, PostRunsEveryTask)
{
    HostThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::latch done(100);
    for (int i = 0; i < 100; ++i)
        pool.post([&] { done.count_down(); });
    done.wait();
    pool.stop();
}

TEST(HostThreadPool, SingleWorkerPreservesFifoOrder)
{
    HostThreadPool pool(1);
    std::vector<int> order;
    std::latch done(1);
    for (int i = 0; i < 16; ++i)
        pool.post([&order, i] { order.push_back(i); });
    pool.post([&] { done.count_down(); });
    done.wait();
    pool.stop();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(HostThreadPool, StopDiscardsQueuedButFinishesRunning)
{
    HostThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false, started = false;
    std::atomic<int> ran{0};

    // First task blocks the sole worker; the rest queue behind it.
    pool.post([&] {
        std::unique_lock<std::mutex> lock(mu);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        ++ran;
    });
    for (int i = 0; i < 50; ++i)
        pool.post([&] { ++ran; });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return started; });
    }

    // stop() discards the queue and hands back the workers in one
    // step, then joins; release the running task only after that.
    std::thread stopper([&] { pool.stop(); });
    while (pool.workerCount() != 0)
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    stopper.join();
    EXPECT_EQ(ran.load(), 1); // the running task finished, alone

    // Posts after stop() are dropped; a batch still completes, run
    // by its caller alone.
    pool.post([&] { ran += 1000; });
    pool.stop(); // idempotent
    EXPECT_EQ(ran.load(), 1);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, 4, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), std::size_t{45});
    EXPECT_EQ(pool.workerCount(), 0u);
}

TEST(HostThreadPool, ThrowingTaskLeavesItsWorkerAlive)
{
    HostThreadPool pool(1);
    std::atomic<int> ran{0};
    std::latch done(1);
    pool.post([] { throw std::runtime_error("tenant bug"); });
    pool.post([&] {
        ++ran;
        done.count_down();
    });
    done.wait();
    pool.stop();
    EXPECT_EQ(ran.load(), 1);
}

TEST(HostThreadPool, TasksMayPostTasks)
{
    // The serve scheduler's refill does exactly this: a completing
    // cell posts the next round's tokens from inside a task.
    HostThreadPool pool(2);
    std::latch done(21);
    std::function<void(int)> chain = [&](int depth) {
        if (depth > 0)
            pool.post([&chain, depth] { chain(depth - 1); });
        done.count_down();
    };
    pool.post([&chain] { chain(20); });
    done.wait();
    pool.stop();
}

// End to end: a workload that fails validation inside a pooled run
// must surface as an exception from runMany on the caller, not as
// std::terminate on a pool thread.
TEST(RunManyExceptions, ThrowingWorkloadPropagates)
{
    varsim::core::SystemConfig sys =
        varsim::core::SystemConfig::testDefault();
    varsim::workload::WorkloadParams wl;
    wl.kind = varsim::workload::WorkloadKind::Oltp;
    wl.scale = -1.0; // invalid: Workload::build throws

    varsim::core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 10;

    varsim::core::ExperimentConfig exp;
    exp.numRuns = 4;
    exp.baseSeed = 1;
    exp.hostThreads = 4;

    EXPECT_THROW(varsim::core::runMany(sys, wl, rc, exp),
                 std::invalid_argument);

    // The serial path throws the same way.
    exp.hostThreads = 1;
    EXPECT_THROW(varsim::core::runMany(sys, wl, rc, exp),
                 std::invalid_argument);
}

TEST(RunManyBatch, MatchesPerSpecRunMany)
{
    varsim::core::SystemConfig sysA =
        varsim::core::SystemConfig::testDefault();
    varsim::core::SystemConfig sysB = sysA;
    sysB.mem.l2Assoc = 8;

    varsim::workload::WorkloadParams wl;
    wl.kind = varsim::workload::WorkloadKind::Apache;
    wl.threadsPerCpu = 2;

    varsim::core::RunConfig rc;
    rc.warmupTxns = 5;
    rc.measureTxns = 20;

    varsim::core::ExperimentConfig exp;
    exp.numRuns = 3;
    exp.baseSeed = 42;
    exp.hostThreads = 4;

    const auto batched = varsim::core::runManyBatch(
        {{sysA, wl, rc, exp}, {sysB, wl, rc, exp}});
    const auto plainA = varsim::core::runMany(sysA, wl, rc, exp);
    const auto plainB = varsim::core::runMany(sysB, wl, rc, exp);

    ASSERT_EQ(batched.size(), std::size_t{2});
    ASSERT_EQ(batched[0].size(), plainA.size());
    ASSERT_EQ(batched[1].size(), plainB.size());
    for (std::size_t i = 0; i < plainA.size(); ++i) {
        EXPECT_EQ(batched[0][i].runtimeTicks,
                  plainA[i].runtimeTicks);
        EXPECT_EQ(batched[0][i].txns, plainA[i].txns);
    }
    for (std::size_t i = 0; i < plainB.size(); ++i) {
        EXPECT_EQ(batched[1][i].runtimeTicks,
                  plainB[i].runtimeTicks);
        EXPECT_EQ(batched[1][i].txns, plainB[i].txns);
    }
}

} // namespace
