#include "core/sampling_controller.hh"

#include <algorithm>
#include <span>

#include "sim/logging.hh"
#include "stats/inference.hh"

namespace varsim
{
namespace core
{

namespace
{

/**
 * Offset-stream seed: the stratified design mixes the run's
 * perturbation seed in (independent window placement per run); the
 * matched-pair design does not (identical placement across the seeds
 * being compared, so placement noise cancels in the pair).
 */
std::uint64_t
offsetStreamSeed(const SampleConfig &cfg,
                 std::uint64_t perturb_seed)
{
    using Design = SampleConfig::Design;
    if (cfg.design == Design::Stratified)
        return cfg.offsetSeed ^
               (perturb_seed * 0x9e3779b97f4a7c15ULL);
    return cfg.offsetSeed;
}

} // anonymous namespace

SamplingController::SamplingController(Simulation &simn,
                                       const SampleConfig &cfg,
                                       std::uint64_t perturb_seed)
    : simn_(simn), cfg_(cfg),
      offsetRng_(offsetStreamSeed(cfg, perturb_seed))
{
    VARSIM_ASSERT(cfg_.enabled(),
                  "sampling controller with design=off");
    VARSIM_ASSERT(cfg_.warmupTxns + cfg_.measureTxns <=
                      cfg_.periodTxns,
                  "sampling W+M exceeds the period U");
}

void
SamplingController::setCheckpointSink(CheckpointSink sink)
{
    sink_ = std::move(sink);
}

SamplingController::Snapshot
SamplingController::snap() const
{
    Snapshot s;
    s.ticks = simn_.now();
    s.txns = simn_.totalTxns();
    s.instructions = simn_.totalCpuStats().instructions;
    const mem::MemStats m = simn_.memSystem().totalStats();
    s.l2Hits = m.l2Hits;
    s.l2Misses = m.l2Misses;
    return s;
}

std::uint64_t
SamplingController::runTxns(std::uint64_t n)
{
    if (n == 0 || ended_)
        return 0;
    const Simulation::Progress p = simn_.runTransactions(n);
    if (p.workloadEnded)
        ended_ = true;
    return p.txns;
}

void
SamplingController::fastForward(std::uint64_t n)
{
    if (n == 0 || ended_)
        return;
    simn_.setFastMode(true);
    st_.fastTxns += runTxns(n);
}

void
SamplingController::detailedWarm(std::uint64_t n)
{
    if (n == 0 || ended_)
        return;
    simn_.setFastMode(false);
    st_.warmTxns += runTxns(n);
}

void
SamplingController::measureWindow(std::uint64_t n)
{
    if (n == 0 || ended_)
        return;
    simn_.setFastMode(false);
    const Snapshot a = snap();
    runTxns(n);
    const Snapshot b = snap();
    if (b.txns == a.txns)
        return; // ended before completing anything: no window
    record(a, b);
    st_.measuredTxns += b.txns - a.txns;
    ++st_.windows;
    if (sink_)
        sink_(st_.windows - 1, simn_.checkpoint());
}

void
SamplingController::record(const Snapshot &a, const Snapshot &b)
{
    const double dTxns = static_cast<double>(b.txns - a.txns);
    const double dTicks = static_cast<double>(b.ticks - a.ticks);
    const double cpus = static_cast<double>(simn_.numCpus());
    cpt_.push_back(dTicks * cpus / dTxns);
    ipc_.push_back(
        dTicks > 0.0
            ? static_cast<double>(b.instructions - a.instructions) /
                  (dTicks * cpus)
            : 0.0);
    const double accesses = static_cast<double>(
        (b.l2Hits - a.l2Hits) + (b.l2Misses - a.l2Misses));
    miss_.push_back(
        accesses > 0.0
            ? static_cast<double>(b.l2Misses - a.l2Misses) / accesses
            : 0.0);
}

std::uint64_t
SamplingController::chooseOffset(std::uint64_t slack)
{
    using Design = SampleConfig::Design;
    if (slack == 0 || cfg_.design == Design::Systematic)
        return slack; // window at the unit's end, fixed phase
    return offsetRng_.uniformInt(0, slack);
}

void
SamplingController::finishEstimates(const Snapshot &runStart)
{
    if (st_.windows == 0) {
        // The workload ended before any window completed (it can
        // outrun the requested transaction budget). Whatever ran is
        // the whole population: report the cumulative metrics as an
        // exact, degenerate-interval estimate and flag the fallback.
        const Snapshot end = snap();
        if (end.txns > runStart.txns) {
            record(runStart, end);
            st_.measuredTxns += end.txns - runStart.txns;
            st_.windows = 1;
        }
        st_.fullDetailFallback = true;
    }

    auto fill = [this](const std::vector<double> &xs, double &mean,
                       double &lo, double &hi) {
        if (xs.empty())
            return;
        if (xs.size() < 2) {
            mean = lo = hi = xs.front();
            return;
        }
        const stats::ConfidenceInterval ci =
            stats::meanConfidenceInterval(
                std::span<const double>(xs), cfg_.confidence);
        mean = ci.mean;
        lo = ci.lo;
        hi = ci.hi;
    };
    fill(cpt_, st_.cptMean, st_.cptLo, st_.cptHi);
    fill(ipc_, st_.ipcMean, st_.ipcLo, st_.ipcHi);
    fill(miss_, st_.l2MissMean, st_.l2MissLo, st_.l2MissHi);
}

SampledStats
SamplingController::run(std::uint64_t total_txns)
{
    st_ = SampledStats{};
    st_.enabled = true;
    st_.confidence = cfg_.confidence;
    cpt_.clear();
    ipc_.clear();
    miss_.clear();
    ended_ = false;

    const Snapshot runStart = snap();
    const std::uint64_t startTxns = runStart.txns;
    auto done = [&] { return simn_.totalTxns() - startTxns; };

    const std::uint64_t need = cfg_.warmupTxns + cfg_.measureTxns;
    while (done() < total_txns && !ended_) {
        const std::uint64_t remaining = total_txns - done();
        if (remaining < need) {
            if (st_.windows == 0) {
                // Shorter than one window and nothing measured yet:
                // degrade to full detail — a short run must yield an
                // exact answer, never an empty one.
                simn_.setFastMode(false);
                const Snapshot a = snap();
                runTxns(remaining);
                const Snapshot b = snap();
                if (b.txns > a.txns) {
                    record(a, b);
                    st_.measuredTxns += b.txns - a.txns;
                    ++st_.windows;
                }
                st_.fullDetailFallback = true;
            } else {
                fastForward(remaining);
            }
            break;
        }
        // One sampling unit, truncated to what remains. The window
        // sits chooseOffset() transactions into the unit's slack.
        const std::uint64_t unit =
            std::min(cfg_.periodTxns, remaining);
        const std::uint64_t slack = unit - need;
        const std::uint64_t before = chooseOffset(slack);
        fastForward(before);
        detailedWarm(cfg_.warmupTxns);
        measureWindow(cfg_.measureTxns);
        fastForward(slack - before);
        ++st_.periods;
    }

    simn_.setFastMode(false);
    finishEstimates(runStart);
    simn_.sampledStats() = st_;
    return st_;
}

} // namespace core
} // namespace varsim
