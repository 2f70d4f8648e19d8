#include "core/experiment.hh"

#include <algorithm>
#include <functional>
#include <string>

#include "core/thread_pool.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace core
{

namespace
{

using RunOne = std::function<RunResult(const ExperimentSpec &spec,
                                       const RunConfig &run)>;

/**
 * The fan-out behind every runMany* entry point. Every run of every
 * spec goes into one index space on the host pool, so host threads
 * stay busy across configuration boundaries (no join barrier
 * between configurations). Results are grouped per spec in run
 * order, independent of host scheduling, and job exceptions rethrow
 * on the calling thread. @p runOne simulates one run whose seed is
 * already set. The worker budget is the largest hostThreads of any
 * spec, and 0 (hardware concurrency) wins.
 */
std::vector<std::vector<RunResult>>
fanOut(const std::vector<ExperimentSpec> &specs, const RunOne &runOne)
{
    std::vector<std::size_t> offsets(specs.size() + 1, 0);
    std::size_t hostThreads = 1;
    bool useHardware = false;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        specs[s].exp.validate();
        offsets[s + 1] = offsets[s] + specs[s].exp.numRuns;
        const std::size_t ht = specs[s].exp.hostThreads;
        useHardware |= ht == 0;
        hostThreads = std::max(hostThreads, ht);
    }
    if (useHardware)
        hostThreads = 0;

    std::vector<std::vector<RunResult>> results(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s)
        results[s].resize(specs[s].exp.numRuns);

    HostThreadPool::instance().parallelFor(
        offsets.back(), hostThreads, [&](std::size_t flat) {
            const std::size_t s = static_cast<std::size_t>(
                std::upper_bound(offsets.begin(), offsets.end(),
                                 flat) -
                offsets.begin() - 1);
            const std::size_t i = flat - offsets[s];
            // Runs execute concurrently on host threads; the scope
            // gives every DPRINTF line this run emits a run identity.
            sim::trace::RunScope scope(
                specs.size() == 1 ? sim::format("r%zu", i)
                                  : sim::format("e%zu.r%zu", s, i));
            RunConfig r = specs[s].run;
            r.perturbSeed = specs[s].exp.baseSeed + i;
            results[s][i] = runOne(specs[s], r);
        });
    return results;
}

RunResult
runFresh(const ExperimentSpec &spec, const RunConfig &run)
{
    return runOnce(spec.sys, spec.wl, run);
}

} // anonymous namespace

void
ExperimentConfig::validate() const
{
    if (numRuns == 0)
        sim::fatal("ExperimentConfig::numRuns is 0: an experiment "
                   "must run at least one simulation");
    // Seeds are baseSeed + i for i in [0, numRuns); wraparound would
    // alias two runs onto one seed and silently destroy the "N
    // independent perturbed runs" premise.
    if (baseSeed > UINT64_MAX - (numRuns - 1))
        sim::fatal("experiment seed range [%llu, +%zu) wraps "
                   "around 2^64; lower baseSeed or numRuns",
                   static_cast<unsigned long long>(baseSeed),
                   numRuns);
}

std::vector<RunResult>
runMany(const SystemConfig &sys, const workload::WorkloadParams &wl,
        const RunConfig &run, const ExperimentConfig &exp)
{
    return std::move(fanOut({{sys, wl, run, exp}}, runFresh).front());
}

std::vector<RunResult>
runManyFromCheckpoint(const SystemConfig &sys,
                      const workload::WorkloadParams &wl,
                      const Checkpoint &cp, const RunConfig &run,
                      const ExperimentConfig &exp)
{
    return std::move(
        fanOut({{sys, wl, run, exp}},
               [&cp](const ExperimentSpec &spec, const RunConfig &r) {
                   return runFromCheckpoint(spec.sys, spec.wl, cp, r);
               })
            .front());
}

std::vector<std::vector<RunResult>>
runManyBatch(const std::vector<ExperimentSpec> &specs)
{
    return fanOut(specs, runFresh);
}

std::vector<double>
metricOf(const std::vector<RunResult> &results)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto &r : results)
        xs.push_back(r.cyclesPerTxn);
    return xs;
}

std::vector<double>
metricOf(const std::vector<RunResult> &results,
         const std::string &name)
{
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto &r : results) {
        if (name == "cycles_per_txn") {
            xs.push_back(r.cyclesPerTxn);
            continue;
        }
        if (name == "runtime_ticks") {
            xs.push_back(static_cast<double>(r.runtimeTicks));
            continue;
        }
        if (name == "txns") {
            xs.push_back(static_cast<double>(r.txns));
            continue;
        }
        bool found = false;
        for (const auto &sv : r.stats) {
            if (sv.name == name) {
                xs.push_back(sv.value);
                found = true;
                break;
            }
        }
        if (!found)
            sim::fatal("metricOf: run has no metric named '%s'",
                       name.c_str());
    }
    return xs;
}

} // namespace core
} // namespace varsim
