/**
 * @file
 * Tests of the simulated OS: dispatch, quantum preemption, mutex
 * mutual exclusion with FIFO handoff, barriers, sleeps, yields, work
 * stealing, the scheduling-event trace (Figure 1's raw data), and
 * the drain protocol.
 */

#include <gtest/gtest.h>

#include "cpu/simple_cpu.hh"
#include "mem/mem_system.hh"
#include "os/kernel.hh"

namespace varsim
{
namespace os
{
namespace
{

using cpu::Op;
using cpu::OpKind;

class ScriptStream : public cpu::OpStream
{
  public:
    explicit ScriptStream(std::vector<Op> ops) : ops_(std::move(ops))
    {}

    const Op &current() override { return ops_.at(pos); }
    void advance() override { ++pos; }

    void checkpoint(sim::CheckpointIo &cp) override { cp.field(pos); }

  private:
    std::vector<Op> ops_;
    std::size_t pos = 0;
};

/** Records transaction completions. */
struct RecordingSink : TxnSink
{
    void
    transactionCompleted(sim::ThreadId tid, int type,
                         sim::Tick when) override
    {
        completions.push_back({tid, type, when});
    }

    struct Rec
    {
        sim::ThreadId tid;
        int type;
        sim::Tick when;
    };
    std::vector<Rec> completions;
};

class KernelTest : public ::testing::Test
{
  protected:
    void
    build(std::size_t num_cpus, OsConfig oscfg = {})
    {
        mem::MemConfig mcfg;
        mcfg.numNodes = num_cpus;
        mcfg.l1Size = 8 * 1024;
        mcfg.l2Size = 64 * 1024;
        mcfg.perturbMaxNs = 0;
        ms = std::make_unique<mem::MemSystem>("mem", eq, mcfg);
        std::vector<cpu::BaseCpu *> ptrs;
        for (std::size_t i = 0; i < num_cpus; ++i) {
            cpus.push_back(std::make_unique<cpu::SimpleCpu>(
                sim::format("cpu%zu", i), eq, ccfg, ms->icache(i),
                ms->dcache(i), static_cast<sim::CpuId>(i)));
            ptrs.push_back(cpus.back().get());
        }
        kernel = std::make_unique<Kernel>("kernel", eq, oscfg, ptrs);
        kernel->setTxnSink(&sink);
    }

    Thread &
    addThread(std::vector<Op> ops)
    {
        streams.push_back(
            std::make_unique<ScriptStream>(std::move(ops)));
        auto t = std::make_unique<Thread>(
            static_cast<sim::ThreadId>(kernel->numThreads()),
            streams.back().get());
        t->fetch.codeBase = 0x100000;
        t->fetch.codeBlocks = 32;
        return kernel->addThread(std::move(t));
    }

    sim::EventQueue eq;
    cpu::CpuConfig ccfg;
    std::unique_ptr<mem::MemSystem> ms;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus;
    std::vector<std::unique_ptr<ScriptStream>> streams;
    std::unique_ptr<Kernel> kernel;
    RecordingSink sink;
};

TEST_F(KernelTest, ThreadsRunToCompletion)
{
    build(2);
    for (int i = 0; i < 4; ++i) {
        addThread({{OpKind::Compute, 100, 0, 0},
                   {OpKind::TxnEnd, 0, 0, 0},
                   {OpKind::End, 0, 0, 0}});
    }
    kernel->start();
    eq.run();
    EXPECT_EQ(kernel->finishedThreads(), 4u);
    EXPECT_EQ(sink.completions.size(), 4u);
    EXPECT_EQ(kernel->stats().transactions, 4u);
    EXPECT_TRUE(eq.empty());
}

TEST_F(KernelTest, QuantumPreemptsLongRunners)
{
    OsConfig oscfg;
    oscfg.quantum = 5'000;
    build(1, oscfg);
    // Two CPU-bound threads on one CPU must interleave.
    for (int i = 0; i < 2; ++i) {
        std::vector<Op> ops;
        for (int j = 0; j < 20; ++j) {
            ops.push_back({OpKind::Compute, 2000, 0, 0});
            ops.push_back({OpKind::TxnEnd, 0, 0, i});
        }
        ops.push_back({OpKind::End, 0, 0, 0});
        addThread(ops);
    }
    kernel->start();
    eq.run();
    EXPECT_GT(kernel->stats().preemptions, 0u);
    EXPECT_EQ(kernel->finishedThreads(), 2u);
    // Completions of the two threads must interleave, not be fully
    // serialized.
    bool interleaved = false;
    for (std::size_t i = 1; i < sink.completions.size(); ++i) {
        if (sink.completions[i].type !=
            sink.completions[i - 1].type) {
            interleaved = true;
        }
    }
    EXPECT_TRUE(interleaved);
}

TEST_F(KernelTest, MutexSerializesCriticalSections)
{
    build(2);
    // (adaptive mutexes may spin rather than sleep; both paths must
    // preserve mutual exclusion)
    const int m = kernel->createMutex(0x9000);
    // Each thread: lock, compute 10000 in the critical section,
    // report, unlock.
    for (int i = 0; i < 2; ++i) {
        addThread({{OpKind::Lock, 0, 0x9000, m},
                   {OpKind::Compute, 10000, 0, 0},
                   {OpKind::TxnEnd, 0, 0, i},
                   {OpKind::Unlock, 0, 0x9000, m},
                   {OpKind::End, 0, 0, 0}});
    }
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 2u);
    const sim::Tick gap = sink.completions[1].when -
                          sink.completions[0].when;
    EXPECT_GE(gap, 10000u)
        << "critical sections must not overlap";
    EXPECT_GE(kernel->stats().contendedLocks +
                  kernel->stats().lockSpins,
              1u);
    EXPECT_EQ(kernel->stats().lockAcquires, 2u);
}

TEST_F(KernelTest, MutexGrantsInFifoOrder)
{
    // Disable adaptive spinning to exercise the sleeping FIFO path.
    OsConfig oscfg;
    oscfg.spinRetryNs = 0;
    build(4, oscfg);
    const int m = kernel->createMutex(0x9000);
    // Thread 0 grabs the lock and holds it long enough for 1..3 to
    // queue in a deterministic order (they start staggered).
    addThread({{OpKind::Lock, 0, 0x9000, m},
               {OpKind::Compute, 50000, 0, 0},
               {OpKind::Unlock, 0, 0x9000, m},
               {OpKind::End, 0, 0, 0}});
    for (int i = 1; i <= 3; ++i) {
        addThread({{OpKind::Compute,
                    static_cast<std::uint64_t>(1000 * i), 0, 0},
                   {OpKind::Lock, 0, 0x9000, m},
                   {OpKind::TxnEnd, 0, 0, i},
                   {OpKind::Unlock, 0, 0x9000, m},
                   {OpKind::End, 0, 0, 0}});
    }
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 3u);
    EXPECT_EQ(sink.completions[0].type, 1);
    EXPECT_EQ(sink.completions[1].type, 2);
    EXPECT_EQ(sink.completions[2].type, 3);
}

TEST_F(KernelTest, BarrierReleasesAllTogether)
{
    build(2);
    const int b = kernel->createBarrier(2);
    // One fast and one slow thread; both report after the barrier.
    addThread({{OpKind::Compute, 10, 0, 0},
               {OpKind::Barrier, 0, 0, b},
               {OpKind::TxnEnd, 0, 0, 0},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 20000, 0, 0},
               {OpKind::Barrier, 0, 0, b},
               {OpKind::TxnEnd, 0, 0, 1},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 2u);
    for (const auto &c : sink.completions)
        EXPECT_GE(c.when, 20000u);
    EXPECT_EQ(kernel->stats().barrierEpisodes, 1u);
}

TEST_F(KernelTest, BarrierReusableAcrossEpisodes)
{
    build(2);
    const int b = kernel->createBarrier(2);
    for (int i = 0; i < 2; ++i) {
        addThread({{OpKind::Barrier, 0, 0, b},
                   {OpKind::Compute, 100, 0, 0},
                   {OpKind::Barrier, 0, 0, b},
                   {OpKind::TxnEnd, 0, 0, i},
                   {OpKind::End, 0, 0, 0}});
    }
    kernel->start();
    eq.run();
    EXPECT_EQ(kernel->stats().barrierEpisodes, 2u);
    EXPECT_EQ(kernel->finishedThreads(), 2u);
}

TEST_F(KernelTest, SleepWakesAfterRequestedTime)
{
    build(1);
    addThread({{OpKind::Sleep, 50000, 0, 0},
               {OpKind::TxnEnd, 0, 0, 0},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 1u);
    EXPECT_GE(sink.completions[0].when, 50000u);
}

TEST_F(KernelTest, SleepingCpuRunsOtherWork)
{
    build(1);
    addThread({{OpKind::Sleep, 100000, 0, 0},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 500, 0, 0},
               {OpKind::TxnEnd, 0, 0, 1},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 1u);
    EXPECT_LT(sink.completions[0].when, 100000u)
        << "the compute thread must run during the sleep";
}

TEST_F(KernelTest, YieldRotatesRunQueue)
{
    build(1);
    for (int i = 0; i < 2; ++i) {
        std::vector<Op> ops;
        for (int j = 0; j < 5; ++j) {
            ops.push_back({OpKind::Compute, 100, 0, 0});
            ops.push_back({OpKind::TxnEnd, 0, 0, i});
            ops.push_back({OpKind::Yield, 0, 0, 0});
        }
        ops.push_back({OpKind::End, 0, 0, 0});
        addThread(ops);
    }
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 10u);
    // Yields force strict alternation between the two threads.
    for (std::size_t i = 1; i < sink.completions.size(); ++i) {
        EXPECT_NE(sink.completions[i].type,
                  sink.completions[i - 1].type);
    }
}

TEST_F(KernelTest, IdleCpusStealWork)
{
    OsConfig oscfg;
    oscfg.workStealing = true;
    build(2, oscfg);
    // Three long threads: initial round-robin puts two on cpu0; when
    // cpu1's only thread finishes early it must steal.
    addThread({{OpKind::Compute, 100000, 0, 0},
               {OpKind::TxnEnd, 0, 0, 0},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 10, 0, 0},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 100000, 0, 0},
               {OpKind::TxnEnd, 0, 0, 2},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    EXPECT_EQ(kernel->finishedThreads(), 3u);
    EXPECT_GE(kernel->stats().steals, 1u);
    // Stolen work overlaps: both long transactions complete well
    // before 200000 (serialized would be ~200000).
    for (const auto &c : sink.completions)
        EXPECT_LT(c.when, 150000u);
}

TEST_F(KernelTest, TraceRecordsSchedulingEvents)
{
    OsConfig oscfg;
    oscfg.spinRetryNs = 0; // force the Block/Wakeup path
    build(2, oscfg);
    kernel->enableTrace(1024);
    const int m = kernel->createMutex(0x9000);
    for (int i = 0; i < 3; ++i) {
        addThread({{OpKind::Lock, 0, 0x9000, m},
                   {OpKind::Compute, 5000, 0, 0},
                   {OpKind::Unlock, 0, 0x9000, m},
                   {OpKind::End, 0, 0, 0}});
    }
    kernel->start();
    eq.run();
    const auto &tr = kernel->traceEvents();
    EXPECT_FALSE(tr.empty());
    bool sawDispatch = false, sawBlock = false, sawWake = false;
    for (const auto &e : tr) {
        sawDispatch |= e.kind == SchedEvent::Kind::Dispatch;
        sawBlock |= e.kind == SchedEvent::Kind::Block;
        sawWake |= e.kind == SchedEvent::Kind::Wakeup;
    }
    EXPECT_TRUE(sawDispatch);
    EXPECT_TRUE(sawBlock);
    EXPECT_TRUE(sawWake);
    // Events are in nondecreasing time order.
    for (std::size_t i = 1; i < tr.size(); ++i)
        EXPECT_LE(tr[i - 1].when, tr[i].when);
}

TEST_F(KernelTest, DrainParksEveryCpuAndResumes)
{
    build(2);
    for (int i = 0; i < 4; ++i) {
        std::vector<Op> ops;
        for (int j = 0; j < 50; ++j) {
            ops.push_back({OpKind::Compute, 1000, 0, 0});
            ops.push_back({OpKind::TxnEnd, 0, 0, 0});
        }
        ops.push_back({OpKind::End, 0, 0, 0});
        addThread(ops);
    }
    kernel->start();
    eq.run(20000); // run a while
    kernel->beginDrain();
    eq.run();
    EXPECT_TRUE(kernel->fullyDrained());
    EXPECT_TRUE(eq.empty());
    const std::uint64_t txnsAtDrain = kernel->stats().transactions;
    kernel->endDrain();
    eq.run();
    EXPECT_EQ(kernel->finishedThreads(), 4u);
    EXPECT_GT(kernel->stats().transactions, txnsAtDrain);
}

TEST_F(KernelTest, AdaptiveMutexSpinsWhileOwnerRuns)
{
    build(2);
    const int m = kernel->createMutex(0x9000);
    // Owner (t0) keeps running while t1 contends: t1 must spin (no
    // sleep) and still acquire after the release.
    addThread({{OpKind::Lock, 0, 0x9000, m},
               {OpKind::Compute, 20000, 0, 0},
               {OpKind::Unlock, 0, 0x9000, m},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 100, 0, 0},
               {OpKind::Lock, 0, 0x9000, m},
               {OpKind::TxnEnd, 0, 0, 1},
               {OpKind::Unlock, 0, 0x9000, m},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    EXPECT_EQ(kernel->finishedThreads(), 2u);
    EXPECT_GT(kernel->stats().lockSpins, 10u);
    EXPECT_EQ(kernel->stats().contendedLocks, 0u);
    ASSERT_EQ(sink.completions.size(), 1u);
    EXPECT_GE(sink.completions[0].when, 20000u);
}

TEST_F(KernelTest, LockHolderIsNotPreempted)
{
    OsConfig oscfg;
    oscfg.quantum = 1000; // aggressive quantum
    build(1, oscfg);
    const int m = kernel->createMutex(0x9000);
    // The holder computes far beyond the quantum inside the critical
    // section; a competing thread is ready on the same CPU. The
    // holder must not be preempted mid-section (schedctl-style).
    addThread({{OpKind::Lock, 0, 0x9000, m},
               {OpKind::Compute, 20000, 0, 0},
               {OpKind::TxnEnd, 0, 0, 0},
               {OpKind::Unlock, 0, 0x9000, m},
               {OpKind::End, 0, 0, 0}});
    addThread({{OpKind::Compute, 500, 0, 0},
               {OpKind::TxnEnd, 0, 0, 1},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    ASSERT_EQ(sink.completions.size(), 2u);
    // The holder's transaction completes before the other thread
    // ever runs on the single CPU.
    EXPECT_EQ(sink.completions[0].type, 0);
}

TEST_F(KernelTest, DrainCompletesWhileThreadsBlockOnLocks)
{
    // Regression: a thread that blocks on a mutex *during* the drain
    // window must still leave its CPU quiescent.
    OsConfig oscfg;
    oscfg.spinRetryNs = 0; // force the sleeping path
    build(2, oscfg);
    const int m = kernel->createMutex(0x9000);
    for (int i = 0; i < 4; ++i) {
        std::vector<Op> ops;
        for (int j = 0; j < 200; ++j) {
            ops.push_back({OpKind::Lock, 0, 0x9000, m});
            ops.push_back({OpKind::Compute, 400, 0, 0});
            ops.push_back({OpKind::Unlock, 0, 0x9000, m});
            ops.push_back({OpKind::TxnEnd, 0, 0, 0});
        }
        ops.push_back({OpKind::End, 0, 0, 0});
        addThread(ops);
    }
    kernel->start();
    eq.run(5000); // mid-flight
    kernel->beginDrain();
    eq.run();
    EXPECT_TRUE(kernel->fullyDrained());
    EXPECT_TRUE(eq.empty());
    kernel->endDrain();
    eq.run();
    EXPECT_EQ(kernel->finishedThreads(), 4u);
}

TEST_F(KernelTest, DispatchStatsAccumulate)
{
    build(1);
    addThread({{OpKind::Compute, 10, 0, 0},
               {OpKind::End, 0, 0, 0}});
    kernel->start();
    eq.run();
    EXPECT_GE(kernel->stats().dispatches, 1u);
}

} // namespace
} // namespace os
} // namespace varsim
