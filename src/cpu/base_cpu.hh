/**
 * @file
 * The processor models the paper uses (Section 3.2.4) and the one
 * blocking engine they share. BaseCpu::resume() is the blocking
 * model: one instruction per cycle given perfect L1s, and a full
 * stall on every miss (SimpleCpu is this engine under its model's
 * name). Every model also runs it in fast mode, the functional
 * warming of sampled runs: there a miss completes synchronously
 * through the caches' warm path and its fixed latency joins the
 * cycle debt. The two modes differ only in that one access step.
 * The 4-wide out-of-order model in the spirit of TFsim (OoOCpu)
 * keeps its own detailed loop, but takes its phase, debt, op
 * boundary and control-op retire from here.
 *
 * A CPU executes the op stream of the thread the simulated OS has
 * dispatched onto it, converting ops into timing against the memory
 * hierarchy. Scheduling policy lives entirely in the OS model; the
 * CPU reports back through the CpuHost interface at op boundaries
 * (syscalls, preemption points, drain points).
 */

#ifndef VARSIM_CPU_BASE_CPU_HH
#define VARSIM_CPU_BASE_CPU_HH

#include <cstdint>

#include "cpu/op.hh"
#include "mem/iface.hh"
#include "mem/l1_cache.hh"
#include "sim/sim_object.hh"

namespace varsim
{
namespace cpu
{

class BaseCpu;

/**
 * What a CPU needs to know about the software thread it is running.
 * Implemented by os::Thread.
 */
class ThreadContext
{
  public:
    virtual ~ThreadContext() = default;

    /** The thread's deterministic op stream. */
    virtual OpStream &stream() = 0;

    /** The thread's instruction-fetch walker. */
    virtual FetchState &fetchState() = 0;

    /** Thread id (for tracing). */
    virtual sim::ThreadId tid() const = 0;
};

/**
 * The CPU-to-OS upcall interface. Implemented by os::Scheduler.
 *
 * Contract: after any of these calls the CPU does nothing further
 * until the host invokes runThread(), continueThread(), or
 * setIdle() on it (except drained(), after which resumeFromDrain()
 * restarts execution).
 */
class CpuHost
{
  public:
    virtual ~CpuHost() = default;

    /**
     * The running thread reached an OS-visible op (Lock, Unlock,
     * Barrier, TxnEnd, Sleep, Yield, End). The host advances the
     * stream as appropriate and redispatches the CPU.
     */
    virtual void syscall(BaseCpu &cpu, ThreadContext &tc,
                         const Op &op) = 0;

    /** A requested preemption was honoured at an op boundary. */
    virtual void preempted(BaseCpu &cpu) = 0;

    /** The CPU reached a quiescent op boundary while draining. */
    virtual void drained(BaseCpu &cpu) = 0;

    /** True while the system is draining toward a checkpoint. */
    virtual bool draining() const = 0;
};

/** Configuration shared by the processor models. */
struct CpuConfig
{
    enum class Model
    {
        Simple,    ///< blocking, IPC 1 with perfect L1s
        OutOfOrder ///< 4-wide, ROB-windowed, multiple misses in flight
    };

    Model model = Model::Simple;

    /** Reorder buffer entries (Experiment 2 varies 16/32/64). */
    std::uint32_t robEntries = 64;

    /** Sustainable compute issue rate, instructions per cycle. */
    std::uint32_t issueIpc = 2;

    /** Maximum outstanding data misses (MSHRs). */
    std::uint32_t mshrEntries = 8;

    /** Pipeline refill penalty on a branch misprediction. */
    sim::Tick mispredictPenalty = 12;

    /**
     * Maximum accumulated "time debt" before the model synchronizes
     * with the event queue. Hitting ops cost no events; their cycles
     * accumulate as debt paid at interaction points (misses,
     * syscalls) or when this threshold is reached.
     */
    sim::Tick debtThreshold = 256;
};

/** Per-CPU execution statistics. */
struct CpuStats
{
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t contextSwitches = 0;
    sim::Tick idleTicks = 0;
};

/**
 * The thread attachment protocol, the drain/preempt flags, the
 * bookkeeping and the blocking engine (resume()). A model with a
 * detailed engine of its own overrides resume() and hands fast mode
 * back to BaseCpu::resume().
 */
class BaseCpu : public sim::SimObject, public mem::MemClient
{
  public:
    BaseCpu(std::string name, sim::EventQueue &eq,
            const CpuConfig &cfg, mem::L1Cache &icache,
            mem::L1Cache &dcache, sim::CpuId id);

    ~BaseCpu() override = default;

    /** Attach the OS. Must happen before any thread runs. */
    void setHost(CpuHost *host) { host_ = host; }

    sim::CpuId cpuId() const { return id_; }

    /**
     * Dispatch @p tc onto this CPU; execution begins @p delay ticks
     * from now (the context-switch cost, charged by the OS).
     */
    void runThread(ThreadContext *tc, sim::Tick delay);

    /**
     * Resume the currently attached thread after @p delay ticks
     * (e.g. following a successful syscall).
     */
    void continueThread(sim::Tick delay);

    /** Detach any thread; the CPU idles until runThread(). */
    void setIdle();

    /** Ask the CPU to stop at the next op boundary. */
    void requestPreempt() { preemptPending = true; }

    /** Restart execution after a drain period ends. */
    void resumeFromDrain();

    /**
     * Functional-warming fast mode (sampling): when on, every model
     * runs the blocking engine with its misses completed
     * synchronously through the caches' warm path at a fixed charged
     * latency, and control ops retired through retireControl() with
     * no misprediction penalty. All architectural and
     * microarchitectural *state* (caches, coherence, predictors, OS
     * schedule) evolves exactly as the op stream dictates; only
     * detailed timing is approximated.
     *
     * Only legal at a quiesced op boundary (between drain periods):
     * Simulation::setFastMode() is the supported entry point.
     */
    void setFastMode(bool on);

    /** True while the fast engine is active. */
    bool fastModeActive() const { return fastMode_; }

    /**
     * Re-attach a thread without dispatch accounting or a kick; used
     * when restoring a checkpoint. Follow with resumeFromDrain().
     *
     * Deliberately does NOT reset the pipeline: the CPU's own
     * checkpoint() restore already did, and then reinstated saved
     * residue (e.g. the OoO model's partial-issue carry) that a
     * second reset here would destroy, forking the restored timing
     * from the original's.
     */
    void
    attachThread(ThreadContext *tc)
    {
        tc_ = tc;
        idle_ = tc == nullptr;
    }

    /** The attached thread (may be non-null while idle is false). */
    ThreadContext *currentThread() const { return tc_; }

    /** True if no thread is attached. */
    bool isIdle() const { return idle_; }

    /** Execution statistics. */
    const CpuStats &stats() const { return stats_; }
    CpuStats &stats() { return stats_; }

    /** The blocking miss completed: resume the engine. */
    void memResponse(std::uint64_t tag) override;

    void checkpoint(sim::CheckpointIo &cp) override;
    void regStats(sim::statistics::Registry &r) override;

  protected:
    /** Where an engine is within the current op. */
    enum class Phase : std::uint8_t
    {
        Start,  ///< op boundary: drain/preempt checks, fetch next op
        Instr,  ///< charge the op's instruction cycles (with ifetch)
        Data,   ///< perform the op's data access, if any
        Finish, ///< retire the op or hand it to the OS
    };

    /** (Re)enter the engine: the blocking one, timed or fast. */
    virtual void resume();

    /** Clear per-dispatch scratch state. */
    virtual void resetPipeline();

    /**
     * Settle the pipeline before an op boundary or an OS-visible op.
     * @return false if the CPU parked waiting for in-flight work
     * (its completion resumes the engine).
     */
    virtual bool pipelineEmpty() { return true; }

    /**
     * Retire a control op (Branch, Call, Return, IndirectBranch):
     * count it and train whatever predictor state the model keeps.
     * The blocking model keeps none: it models no speculation.
     * @return true if the op was mispredicted; the detailed engine
     * charges the refill penalty for it, warming does not.
     */
    virtual bool retireControl(const Op &op);

    /** No miss in flight, no debt, parked at an op boundary. */
    virtual bool quiescent() const;

    /**
     * Settle the cycle debt by scheduling a resume.
     * @return true if there was no debt (continue immediately).
     */
    bool
    payDebt()
    {
        if (owed == 0)
            return true;
        const sim::Tick d = owed;
        owed = 0;
        scheduleIn(resumeEvent, d);
        return false;
    }

    /**
     * The op boundary: honour a pending drain or preemption once
     * the debt is paid and the pipeline is empty.
     * @return true if the CPU stopped here (the engine returns).
     */
    bool stopAtBoundary();

    /**
     * Send a miss that parks the engine (awaitingMem) until
     * memResponse() sees its tag: the blocking engine's every miss,
     * the OoO engine's fetch misses and synchronizing stores.
     */
    void
    sendBlocking(mem::L1Cache &cache, sim::Addr addr, bool write)
    {
        awaitingMem = true;
        blockingTag = nextTag;
        cache.access({addr, write, &cache == &icache, nextTag++});
    }

    /** Instruction footprint of an op. */
    static std::uint64_t instrCost(const Op &op);

    CpuHost &host();

    const CpuConfig &cfg;
    mem::L1Cache &icache;
    mem::L1Cache &dcache;
    ThreadContext *tc_ = nullptr;
    bool idle_ = true;
    bool preemptPending = false;
    std::uint64_t nextTag = 1;
    CpuStats stats_;
    sim::EventFunctionWrapper resumeEvent;

    Phase phase = Phase::Start;
    std::uint64_t remaining = 0; ///< instructions left in this op
    sim::Tick owed = 0;          ///< unsettled cycles (the debt)
    bool awaitingMem = false;    ///< a blocking miss is in flight
    std::uint64_t blockingTag = 0; ///< its request tag

  private:
    /**
     * The blocking engine's one access step, the only place the two
     * modes differ. Fast, the access completes through the warm path
     * and its fixed latency joins the debt. Timed, a hit completes;
     * a miss pays the debt first (the access is retried when the CPU
     * resumes), then sends it through sendBlocking().
     * @return true if the access completed.
     */
    bool blockingAccess(mem::L1Cache &cache, sim::Addr addr,
                        bool write);

    CpuHost *host_ = nullptr;
    sim::CpuId id_;
    sim::Tick idleSince = 0;
    bool fastMode_ = false;
};

} // namespace cpu
} // namespace varsim

#endif // VARSIM_CPU_BASE_CPU_HH
