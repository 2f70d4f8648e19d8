#include "core/runner.hh"

#include <chrono>

#include "core/sampling_controller.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace core
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

std::uint64_t
resolveMeasureTxns(const Simulation &simn, const RunConfig &run)
{
    if (run.measureTxns != 0)
        return run.measureTxns;
    return const_cast<Simulation &>(simn)
        .workloadInstance()
        .defaultTxnCount();
}

} // anonymous namespace

RunResult
measure(Simulation &simn, const RunConfig &run, std::size_t num_cpus)
{
    const std::uint64_t n = resolveMeasureTxns(simn, run);
    const bool sampled = run.sample.enabled();

    RunResult r;

    // The pre-measurement warm-up is fully detailed either way:
    // sampling governs only the measure phase, so sampled and full
    // runs share one phase structure and stay comparable.
    const auto warmupT0 = std::chrono::steady_clock::now();
    if (run.warmupTxns > 0)
        simn.runTransactions(run.warmupTxns);
    r.host.warmupWallSec = wallSecondsSince(warmupT0);

    const bool wantWindows = !sampled && run.windowTxns != 0;
    simn.recordCompletions(wantWindows);

    const sim::Tick start = simn.now();
    const std::uint64_t startTxns = simn.totalTxns();
    const std::uint64_t startEvents = simn.eventsDispatched();
    const std::uint64_t startInstrs =
        simn.totalCpuStats().instructions;
    const auto measureT0 = std::chrono::steady_clock::now();
    if (sampled) {
        SamplingController ctl(simn, run.sample, run.perturbSeed);
        r.sampled = ctl.run(n);
        r.workloadEnded = ctl.workloadEnded();
    } else {
        r.workloadEnded = simn.runTransactions(n).workloadEnded;
    }
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
    VARSIM_ASSERT(r.txns > 0 || r.workloadEnded,
                  "measured zero transactions");
    // A sampled run's headline metric is its estimate, so stores,
    // t tests and ANOVA consume sampled and full runs alike.
    if (sampled) {
        r.cyclesPerTxn = r.sampled.cptMean;
    } else if (r.txns > 0) {
        r.cyclesPerTxn = static_cast<double>(r.runtimeTicks) *
                         static_cast<double>(num_cpus) /
                         static_cast<double>(r.txns);
    }
    r.mem = simn.memSystem().totalStats();
    r.os = simn.kernel().stats();
    r.cpu = simn.totalCpuStats();
    // Dumped after the controller filled SampledStats, so the
    // sim.sampled.* formulas export the estimates.
    r.stats = simn.statsRegistry().dump();

    if (wantWindows) {
        const auto &recs = simn.completions();
        sim::Tick winStart = start;
        std::uint64_t inWin = 0;
        for (const auto &rec : recs) {
            if (rec.when < start)
                continue;
            ++inWin;
            if (inWin == run.windowTxns) {
                r.windows.push_back(
                    static_cast<double>(rec.when - winStart) *
                    static_cast<double>(num_cpus) /
                    static_cast<double>(inWin));
                winStart = rec.when;
                inWin = 0;
            }
        }
    }
    return r;
}

RunResult
runOnce(const SystemConfig &sys, const workload::WorkloadParams &wl,
        const RunConfig &run)
{
    Simulation simn(sys, wl);
    simn.seedPerturbation(run.perturbSeed);
    return measure(simn, run, sys.numCpus());
}

RunResult
runFromCheckpoint(const SystemConfig &sys,
                  const workload::WorkloadParams &wl,
                  const Checkpoint &cp, const RunConfig &run)
{
    auto simn = Simulation::restore(sys, wl, cp);
    simn->seedPerturbation(run.perturbSeed);
    return measure(*simn, run, sys.numCpus());
}

} // namespace core
} // namespace varsim
