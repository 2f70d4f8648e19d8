/**
 * @file
 * The simulated operating system: a preemptive, quantum-based,
 * per-CPU run-queue scheduler with sleeping mutexes, barriers, timed
 * sleeps and load balancing.
 *
 * The paper (Section 2.1) names three mechanisms through which small
 * timing variations become divergent executions; all three live here:
 *
 *  1. "the operating system may make different scheduling decisions
 *     (e.g., a scheduling quantum may end before an event in one run,
 *     but not another)" — the quantum timer races against op
 *     boundaries and memory stalls;
 *  2. "locks may be acquired in different orders" — mutex grant order
 *     is arrival order, and arrival ticks inherit every upstream
 *     perturbation;
 *  3. "a transaction may complete during the measurement interval in
 *     one run, but not another" — transaction completions are
 *     reported through the TxnSink at exact ticks.
 *
 * Everything is deterministic: run queues are FIFO, ties break by
 * CPU id, the mutex wait list is FIFO with direct handoff. Divergence
 * between runs arises only from timing.
 */

#ifndef VARSIM_OS_KERNEL_HH
#define VARSIM_OS_KERNEL_HH

#include <deque>
#include <memory>
#include <vector>

#include "cpu/base_cpu.hh"
#include "os/thread.hh"
#include "sim/sim_object.hh"

namespace varsim
{
namespace os
{

/** Scheduler tunables. */
struct OsConfig
{
    /**
     * Scheduling quantum. Scaled to the synthetic workloads'
     * transaction sizes (as the paper's Solaris quantum was to real
     * TPC-C transactions) so quantum expiry genuinely races against
     * lock blocking — "a scheduling quantum may end before an event
     * in one run, but not another" (Section 2.1).
     */
    sim::Tick quantum = 20'000;

    /** Cost of a context switch (dispatch latency). */
    sim::Tick ctxSwitchCost = 2'000;

    /** Kernel overhead of a lock/unlock/yield syscall. */
    sim::Tick syscallCost = 200;

    /**
     * Adaptive-mutex spin: when a contended lock's owner is running
     * on another CPU, the waiter retries after this delay instead of
     * sleeping (Solaris adaptive mutexes). Zero disables spinning.
     */
    sim::Tick spinRetryNs = 250;

    /**
     * A wakeup enqueues to the waker's idea of the sleeper's last
     * CPU, but migrates to the shortest queue if the target is this
     * much longer (load balancing).
     */
    std::size_t migrateThreshold = 2;

    /** Allow idle CPUs to steal from the longest run queue. */
    bool workStealing = true;
};

/** Receiver of transaction-completion notifications. */
class TxnSink
{
  public:
    virtual ~TxnSink() = default;

    /** Thread @p tid completed a transaction of type @p type. */
    virtual void transactionCompleted(sim::ThreadId tid, int type,
                                      sim::Tick when) = 0;
};

/** One scheduling decision, for Figure 1-style traces. */
struct SchedEvent
{
    enum class Kind : std::uint8_t
    {
        Dispatch, ///< thread placed on a CPU
        Preempt,  ///< quantum expired
        Block,    ///< thread blocked on a mutex/barrier
        Wakeup,   ///< thread became ready
        Finish,   ///< thread terminated
    };

    sim::Tick when;
    sim::CpuId cpu;
    sim::ThreadId thread;
    Kind kind;
};

/** Aggregate OS statistics for one run. */
struct OsStats
{
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
    std::uint64_t lockAcquires = 0;
    std::uint64_t contendedLocks = 0;
    std::uint64_t lockSpins = 0;
    std::uint64_t barrierEpisodes = 0;
    std::uint64_t transactions = 0;
};

class Kernel : public sim::SimObject, public cpu::CpuHost
{
  public:
    Kernel(std::string name, sim::EventQueue &eq, OsConfig cfg,
           std::vector<cpu::BaseCpu *> cpus);

    ~Kernel() override;

    /** Register a thread (before start()). The kernel owns it. */
    Thread &addThread(std::unique_ptr<Thread> thread);

    /** Thread lookup. */
    Thread &thread(sim::ThreadId tid);
    std::size_t numThreads() const { return threads.size(); }

    /**
     * Create a mutex whose lock word lives at @p lock_word.
     * @return the mutex id for Lock/Unlock ops.
     */
    int createMutex(sim::Addr lock_word);

    /** Create a barrier released when @p expected threads arrive. */
    int createBarrier(std::uint32_t expected);

    /** Receiver of TxnEnd notifications (measurement harness). */
    void setTxnSink(TxnSink *sink) { txnSink = sink; }

    /** Initial placement and dispatch of all Ready threads. */
    void start();

    /** Number of threads that have executed their End op. */
    std::size_t finishedThreads() const { return numFinished; }

    // ---- drain protocol (checkpointing) ----

    /** Stop dispatching; CPUs park at their next op boundary. */
    void beginDrain();

    /** True once every CPU has parked. */
    bool fullyDrained() const;

    /** Resume execution after a drain (or a checkpoint restore). */
    void endDrain();

    // ---- cpu::CpuHost ----
    void syscall(cpu::BaseCpu &cpu, cpu::ThreadContext &tc,
                 const cpu::Op &op) override;
    void preempted(cpu::BaseCpu &cpu) override;
    void drained(cpu::BaseCpu &cpu) override;
    bool draining() const override { return draining_; }

    // ---- introspection ----
    const OsStats &stats() const { return stats_; }

    /** Enable collection of SchedEvents (capped at @p cap). */
    void enableTrace(std::size_t cap);

    /** Collected scheduling events. */
    const std::vector<SchedEvent> &traceEvents() const { return trace; }

    void checkpoint(sim::CheckpointIo &cp) override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    struct Mutex
    {
        sim::Addr lockWord = 0;
        sim::ThreadId owner = sim::invalidThreadId;
        std::deque<sim::ThreadId> waiters;
    };

    struct Barrier
    {
        std::uint32_t expected = 0;
        std::vector<sim::ThreadId> waiting;
    };

    void dispatch(std::size_t cpu_idx);
    void enqueue(Thread &t, bool allow_migrate);
    void wake(Thread &t);
    void record(SchedEvent::Kind kind, sim::CpuId cpu,
                sim::ThreadId tid);
    void armQuantum(std::size_t cpu_idx);
    void cancelQuantum(std::size_t cpu_idx);
    std::size_t shortestQueue() const;
    std::size_t longestQueue() const;

    void doLock(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op);
    void doUnlock(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op);
    void doBarrier(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op);
    void doSleep(cpu::BaseCpu &cpu, Thread &t, const cpu::Op &op);

    OsConfig cfg;
    std::vector<cpu::BaseCpu *> cpus;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<std::deque<sim::ThreadId>> runQueues;
    std::vector<Mutex> mutexes;
    std::vector<Barrier> barriers;
    std::vector<std::unique_ptr<sim::EventFunctionWrapper>>
        quantumEvents;
    std::vector<std::unique_ptr<sim::EventFunctionWrapper>>
        sleepEvents;
    TxnSink *txnSink = nullptr;

    bool draining_ = false;
    std::vector<bool> cpuDrained;
    std::size_t numFinished = 0;

    OsStats stats_;
    std::vector<SchedEvent> trace;
    std::size_t traceCap = 0;
};

} // namespace os
} // namespace varsim

#endif // VARSIM_OS_KERNEL_HH
