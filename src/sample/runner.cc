#include "sample/runner.hh"

#include <chrono>

#include "core/thread_pool.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace sample
{

namespace
{

double
wallSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Publication hook: one library entry per measurement window. */
SamplingController::CheckpointSink
librarySink(ckpt::CheckpointLibrary *library,
            const core::SystemConfig &sys,
            const workload::WorkloadParams &wl,
            const core::RunConfig &run, core::Simulation &simn)
{
    if (library == nullptr)
        return {};
    return [library, sys, wl, seed = run.perturbSeed,
            &simn](std::uint64_t, const core::Checkpoint &cp) {
        ckpt::CheckpointKey key;
        key.sys = sys;
        key.wl = wl;
        key.warmupSeed = seed;
        key.position = simn.totalTxns();
        library->publish(key, cp);
    };
}

} // anonymous namespace

core::RunResult
measure(core::Simulation &simn, const core::RunConfig &run,
        std::size_t num_cpus, SamplingController::CheckpointSink sink)
{
    if (!run.sample.enabled())
        return core::measure(simn, run, num_cpus);

    const std::uint64_t n =
        run.measureTxns != 0
            ? run.measureTxns
            : simn.workloadInstance().defaultTxnCount();

    core::RunResult r;

    // The pre-measurement warm-up stays fully detailed: sampling
    // governs only the measure phase (matching core::measure's
    // phase structure, so sampled and full runs are comparable).
    const auto warmupT0 = std::chrono::steady_clock::now();
    if (run.warmupTxns > 0)
        simn.runTransactions(run.warmupTxns);
    r.host.warmupWallSec = wallSecondsSince(warmupT0);

    SamplingController ctl(simn, run.sample, run.perturbSeed);
    if (sink)
        ctl.setCheckpointSink(std::move(sink));

    const sim::Tick start = simn.now();
    const std::uint64_t startTxns = simn.totalTxns();
    const std::uint64_t startEvents = simn.eventsDispatched();
    const std::uint64_t startInstrs =
        simn.totalCpuStats().instructions;
    const auto measureT0 = std::chrono::steady_clock::now();
    r.sampled = ctl.run(n);
    r.host.measureWallSec = wallSecondsSince(measureT0);
    r.host.eventsDispatched = simn.eventsDispatched() - startEvents;
    if (r.host.measureWallSec > 0.0) {
        r.host.eventsPerSec =
            static_cast<double>(r.host.eventsDispatched) /
            r.host.measureWallSec;
        r.host.hostMips =
            static_cast<double>(simn.totalCpuStats().instructions -
                                startInstrs) /
            (r.host.measureWallSec * 1e6);
    }

    r.txns = simn.totalTxns() - startTxns;
    r.runtimeTicks = simn.now() - start;
    r.workloadEnded = ctl.workloadEnded();
    VARSIM_ASSERT(r.txns > 0 || r.workloadEnded,
                  "sampled run covered zero transactions");

    // The headline metric is the sampled estimate: downstream
    // consumers (stores, t tests, ANOVA) operate on it unchanged.
    r.cyclesPerTxn = r.sampled.cptMean;

    r.mem = simn.memSystem().totalStats();
    r.os = simn.kernel().stats();
    r.cpu = simn.totalCpuStats();
    // Dumped after the controller filled SampledStats, so the
    // sim.sampled.* formulas export the estimates.
    r.stats = simn.statsRegistry().dump();
    return r;
}

core::RunResult
runOnce(const core::SystemConfig &sys,
        const workload::WorkloadParams &wl,
        const core::RunConfig &run,
        ckpt::CheckpointLibrary *library)
{
    if (!run.sample.enabled())
        return core::runOnce(sys, wl, run);
    core::Simulation simn(sys, wl);
    simn.seedPerturbation(run.perturbSeed);
    return measure(simn, run, sys.numCpus(),
                   librarySink(library, sys, wl, run, simn));
}

core::RunResult
runFromCheckpoint(const core::SystemConfig &sys,
                  const workload::WorkloadParams &wl,
                  const core::Checkpoint &cp,
                  const core::RunConfig &run,
                  ckpt::CheckpointLibrary *library)
{
    if (!run.sample.enabled())
        return core::runFromCheckpoint(sys, wl, cp, run);
    auto simn = core::Simulation::restore(sys, wl, cp);
    simn->seedPerturbation(run.perturbSeed);
    return measure(*simn, run, sys.numCpus(),
                   librarySink(library, sys, wl, run, *simn));
}

std::vector<core::RunResult>
runMany(const core::SystemConfig &sys,
        const workload::WorkloadParams &wl,
        const core::RunConfig &run,
        const core::ExperimentConfig &exp)
{
    if (!run.sample.enabled())
        return core::runMany(sys, wl, run, exp);
    exp.validate();
    std::vector<core::RunResult> results(exp.numRuns);
    core::HostThreadPool::instance().parallelFor(
        exp.numRuns, exp.hostThreads, [&](std::size_t i) {
            sim::trace::RunScope scope(sim::format("r%zu", i));
            core::RunConfig r = run;
            r.perturbSeed = exp.baseSeed + i;
            results[i] = sample::runOnce(sys, wl, r);
        });
    return results;
}

std::vector<core::RunResult>
runManyFromCheckpoint(const core::SystemConfig &sys,
                      const workload::WorkloadParams &wl,
                      const core::Checkpoint &cp,
                      const core::RunConfig &run,
                      const core::ExperimentConfig &exp)
{
    if (!run.sample.enabled())
        return core::runManyFromCheckpoint(sys, wl, cp, run, exp);
    exp.validate();
    std::vector<core::RunResult> results(exp.numRuns);
    core::HostThreadPool::instance().parallelFor(
        exp.numRuns, exp.hostThreads, [&](std::size_t i) {
            sim::trace::RunScope scope(sim::format("r%zu", i));
            core::RunConfig r = run;
            r.perturbSeed = exp.baseSeed + i;
            results[i] = sample::runFromCheckpoint(sys, wl, cp, r);
        });
    return results;
}

} // namespace sample
} // namespace varsim
