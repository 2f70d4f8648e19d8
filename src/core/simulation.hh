/**
 * @file
 * One full-system simulation instance: an event queue, a memory
 * hierarchy, processors, the simulated OS, and a workload, plus
 * transaction-count-based run control (the measurement methodology
 * of Section 3.1: measure the simulated time to complete a fixed
 * number of transactions) and Simics-style checkpointing
 * (Section 3.2.2).
 *
 * Simulations are self-contained — no global state — so a
 * multiple-simulation experiment can run many instances concurrently
 * on host threads (the paper's "coarse-grain parallelism" across
 * simulation hosts).
 */

#ifndef VARSIM_CORE_SIMULATION_HH
#define VARSIM_CORE_SIMULATION_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/sample_config.hh"
#include "mem/mem_system.hh"
#include "sim/serialize.hh"
#include "sim/statistics.hh"
#include "workload/workload.hh"

namespace varsim
{
namespace core
{

/** An opaque full-system checkpoint. */
struct Checkpoint
{
    std::vector<std::uint8_t> bytes;

    /** Layout of @p bytes: sim::kCheckpointFormat for a snapshot
     *  this build took, older when read from an older library. */
    std::uint32_t format = sim::kCheckpointFormat;

    bool empty() const { return bytes.empty(); }
    std::size_t size() const { return bytes.size(); }
};

/** One completed transaction, for windowed/time analyses. */
struct TxnRecord
{
    sim::Tick when;
    std::int32_t type;
    sim::ThreadId tid;
};

class Simulation : public os::TxnSink
{
  public:
    Simulation(const SystemConfig &sys,
               const workload::WorkloadParams &wl);
    ~Simulation() override;

    /**
     * Seed this run's memory-latency perturbation stream
     * (Section 3.3). Call before the first runTransactions().
     */
    void seedPerturbation(std::uint64_t seed);

    /** Result of a runTransactions() call. */
    struct Progress
    {
        std::uint64_t txns = 0;      ///< completed during this call
        sim::Tick elapsed = 0;       ///< simulated time consumed
        bool workloadEnded = false;  ///< all threads finished
    };

    /**
     * Simulate until @p n more transactions complete (or the
     * workload ends). The first call also boots the OS.
     */
    Progress runTransactions(std::uint64_t n);

    /** Current simulated time. */
    sim::Tick now() const { return eq.curTick(); }

    /** Transactions completed since construction/restore. */
    std::uint64_t totalTxns() const { return txnCount; }

    /** Record every completion into completions() (off by default). */
    void recordCompletions(bool on) { recording = on; }
    const std::vector<TxnRecord> &completions() const { return txns; }

    /**
     * Switch every CPU between detailed timing and the
     * functional-warming fast engine. The system is drained to a
     * quiescent op boundary first, so the two engines hand the op
     * streams to each other with no partial-op or in-flight-miss
     * residue. A no-op if already in the requested mode.
     */
    void setFastMode(bool on);

    /**
     * Sampled-estimate slots read by the sim.sampled.* metrics. The
     * sampling controller fills them; they stay zero (enabled=0) on
     * unsampled runs, keeping the exported schema stable.
     */
    SampledStats &sampledStats() { return sampled_; }
    const SampledStats &sampledStats() const { return sampled_; }

    /**
     * Drain the system to a quiescent point and serialize the full
     * architectural state. The simulation resumes afterwards and can
     * keep running.
     */
    Checkpoint checkpoint();

    /**
     * Build a simulation from a checkpoint taken on an identical
     * (sys, wl) configuration pair — except that the *memory timing*
     * knobs of @p sys may differ (that is the whole point: start
     * different configurations from identical initial conditions).
     * The state is read in place from @p cp, which is never written:
     * any number of threads may restore from one Checkpoint at once.
     */
    static std::unique_ptr<Simulation>
    restore(const SystemConfig &sys,
            const workload::WorkloadParams &wl, const Checkpoint &cp);

    // ---- introspection ----
    os::Kernel &kernel() { return *kernel_; }
    mem::MemSystem &memSystem() { return *mem_; }
    workload::Workload &workloadInstance() { return *wl_; }
    cpu::BaseCpu &cpu(std::size_t i) { return *cpus_.at(i); }
    std::size_t numCpus() const { return cpus_.size(); }
    const SystemConfig &config() const { return sys_; }

    /** Aggregate CPU stats across all processors. */
    cpu::CpuStats totalCpuStats() const;

    /**
     * The metrics registry every SimObject in this instance
     * registered into at construction. Dumping is read-only and
     * schedules nothing: it never perturbs simulated timing.
     */
    const sim::statistics::Registry &statsRegistry() const
    {
        return statsReg;
    }

    /** Host-side event dispatch count (profiling, not sim state). */
    std::uint64_t eventsDispatched() const
    {
        return eq.numDispatched();
    }

    // ---- os::TxnSink ----
    void transactionCompleted(sim::ThreadId tid, int type,
                              sim::Tick when) override;

  private:
    void bootIfNeeded();
    void quiesce();

    /**
     * The one walk checkpoint() and restore() share: tick,
     * transaction count, memory, CPUs, kernel, workload.
     */
    void walk(sim::CheckpointIo &cp);

    SystemConfig sys_;
    workload::WorkloadParams wlParams;
    sim::EventQueue eq;
    std::unique_ptr<mem::MemSystem> mem_;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<workload::Workload> wl_;
    sim::statistics::Registry statsReg;

    bool booted = false;
    bool fastMode_ = false;
    SampledStats sampled_;
    bool recording = false;
    std::uint64_t txnCount = 0;
    std::uint64_t txnTarget = 0;
    std::vector<TxnRecord> txns;
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_SIMULATION_HH
