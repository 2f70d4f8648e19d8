/**
 * @file
 * The simulated OS's thread control block.
 *
 * OLTP-style commercial workloads run many more software threads than
 * processors (the paper emulates 8 database users per processor,
 * Section 3.1); which thread runs where and when is decided by the
 * scheduler, and those decisions are the paper's primary source of
 * space variability (Figure 1).
 */

#ifndef VARSIM_OS_THREAD_HH
#define VARSIM_OS_THREAD_HH

#include "cpu/base_cpu.hh"
#include "cpu/op.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace varsim
{
namespace os
{

class Thread : public cpu::ThreadContext, public sim::Serializable
{
  public:
    enum class State : std::uint8_t
    {
        Ready,    ///< runnable, waiting in a run queue
        Running,  ///< on a CPU
        Blocked,  ///< waiting on a mutex or barrier
        Sleeping, ///< waiting on a timer
        Finished, ///< terminated (End op reached)
    };

    /**
     * @param tid    unique thread id
     * @param stream the thread's op generator (owned by the workload)
     */
    Thread(sim::ThreadId tid, cpu::OpStream *stream)
        : tid_(tid), stream_(stream)
    {}

    // cpu::ThreadContext
    cpu::OpStream &stream() override { return *stream_; }
    cpu::FetchState &fetchState() override { return fetch; }
    sim::ThreadId tid() const override { return tid_; }

    State state = State::Ready;

    /** Last CPU this thread ran on (affinity hint). */
    sim::CpuId lastCpu = sim::invalidCpuId;

    /** Per-thread instruction-fetch walker. */
    cpu::FetchState fetch;

    /** Absolute wake tick while Sleeping. */
    sim::Tick sleepUntil = 0;

    /** Transactions this thread has completed. */
    std::uint64_t txnsCompleted = 0;

    /** Times this thread blocked on a contended mutex. */
    std::uint64_t lockBlocks = 0;

    /**
     * Mutexes currently held. The scheduler postpones quantum
     * preemption of lock holders (schedctl-style), avoiding
     * lock-holder-preemption convoys.
     */
    std::int32_t heldLocks = 0;

    void
    checkpoint(sim::CheckpointIo &cp) override
    {
        cp.field(state);
        cp.field(lastCpu);
        cp.field(fetch);
        cp.field(sleepUntil);
        cp.field(txnsCompleted);
        cp.field(lockBlocks);
        cp.field(heldLocks);
    }

  private:
    sim::ThreadId tid_;
    cpu::OpStream *stream_;
};

} // namespace os
} // namespace varsim

#endif // VARSIM_OS_THREAD_HH
