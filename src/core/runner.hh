/**
 * @file
 * Single-run measurement (paper Section 3.1): warm the system up for
 * a number of transactions, then measure the simulated time to
 * complete a fixed number of transactions. The reported metric is
 * aggregate cycles per transaction:
 *
 *     cyclesPerTxn = elapsed_ticks * num_cpus / transactions
 *
 * (one tick = one cycle at the 1 GHz target clock), matching the
 * paper's use of "cycles per transaction" as the performance metric
 * for all workloads.
 */

#ifndef VARSIM_CORE_RUNNER_HH
#define VARSIM_CORE_RUNNER_HH

#include "core/simulation.hh"
#include "os/kernel.hh"

namespace varsim
{
namespace core
{

/** Parameters of one measured run. */
struct RunConfig
{
    /** Transactions completed before measurement starts. */
    std::uint64_t warmupTxns = 0;

    /** Transactions measured (0 = the workload's default count). */
    std::uint64_t measureTxns = 0;

    /**
     * Seed of this run's latency-perturbation stream. Distinct seeds
     * produce distinct members of the space of possible executions
     * (Section 3.3).
     */
    std::uint64_t perturbSeed = 1;

    /**
     * If nonzero, also record cycles-per-transaction for every
     * window of this many transactions (Figure 8-style series).
     */
    std::uint64_t windowTxns = 0;

    /**
     * Intra-run statistical sampling (default: off, full detail).
     * When enabled, drive the measure phase through
     * sample::measure() — core::measure() ignores this field.
     */
    SampleConfig sample;
};

/**
 * Host-side profile of one run: wall-clock phase timers and
 * simulation throughput. Pure observation — derived from the host
 * clock and the event-dispatch counter, never fed back into the
 * simulation.
 */
struct HostProfile
{
    double warmupWallSec = 0.0;  ///< wall time in the warmup phase
    double measureWallSec = 0.0; ///< wall time in the measure phase
    std::uint64_t eventsDispatched = 0; ///< events in measure phase
    double eventsPerSec = 0.0;   ///< event throughput (measure phase)
    double hostMips = 0.0; ///< simulated M-instructions / host second
};

/** Everything measured in one run. */
struct RunResult
{
    double cyclesPerTxn = 0.0;
    sim::Tick runtimeTicks = 0;
    std::uint64_t txns = 0;
    bool workloadEnded = false;

    mem::MemStats mem;
    os::OsStats os;
    cpu::CpuStats cpu;

    /** Per-window cycles/txn (only if RunConfig::windowTxns set). */
    std::vector<double> windows;

    /**
     * Full dump of the simulation's metrics registry, taken after the
     * measure phase. Names are stable across runs of one
     * configuration (schema-stable JSONL via statsJsonl()).
     */
    sim::statistics::StatDump stats;

    /** Host-side profiling of this run. */
    HostProfile host;

    /**
     * Sampling estimates (sampled runs only; enabled=false and all
     * zeros on full-detail runs). When enabled, cyclesPerTxn above
     * holds the sampled point estimate so downstream metric
     * pipelines work unchanged.
     */
    SampledStats sampled;

    /** The stats dump as one JSONL line. */
    std::string statsJsonl() const
    {
        return sim::statistics::toJsonl(stats);
    }
};

/**
 * Run one fresh simulation of (sys, wl) under @p run.
 */
RunResult runOnce(const SystemConfig &sys,
                  const workload::WorkloadParams &wl,
                  const RunConfig &run);

/**
 * Run one simulation restored from @p cp (same workload; the system
 * configuration may differ in timing knobs). warmupTxns is usually 0
 * here — the checkpoint *is* the warmup.
 */
RunResult runFromCheckpoint(const SystemConfig &sys,
                            const workload::WorkloadParams &wl,
                            const Checkpoint &cp,
                            const RunConfig &run);

/**
 * Measure an already-constructed simulation (advanced use: callers
 * that warmed up or checkpointed by hand).
 */
RunResult measure(Simulation &simn, const RunConfig &run,
                  std::size_t num_cpus);

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_RUNNER_HH
