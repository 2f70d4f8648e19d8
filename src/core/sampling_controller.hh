/**
 * @file
 * The intra-run sampling controller: drives one Simulation through
 * alternating fast-forward (functional warming), detailed warm-up,
 * and detailed measurement intervals, and turns the measured windows
 * into confidence-bounded estimates of the full-detail metrics.
 *
 * Interval layout per sampling unit of U transactions (SMARTS-style,
 * but transaction- rather than instruction-denominated, matching the
 * paper's "simulated time to complete a fixed number of
 * transactions" methodology):
 *
 *     [ fast f1 ][ warm W ][ measure M ][ fast f2 ]   f1+f2 = U-W-M
 *
 * The placement of the window within the unit is the *design*:
 * systematic puts it at the end of every unit (fixed phase);
 * stratified draws f1 uniformly per unit from a stream mixed with
 * the run's perturbation seed (independent placement per run);
 * matched-pair draws from a seed-independent stream, so every
 * perturbation seed of a comparison measures the same windows and
 * the within-pair difference cancels placement noise.
 *
 * Edge rules (exercised by tests/sample):
 *  - a remainder too short for one full W+M window fast-forwards if
 *    at least one window was already measured;
 *  - a run that would otherwise yield *zero* windows (shorter than
 *    one period, or a workload — like the scientific benchmarks —
 *    that completes in a single transaction) degrades to full
 *    detail: the estimate is then exact with a degenerate interval,
 *    and SampledStats::fullDetailFallback says so.
 */

#ifndef VARSIM_CORE_SAMPLING_CONTROLLER_HH
#define VARSIM_CORE_SAMPLING_CONTROLLER_HH

#include <functional>
#include <vector>

#include "core/simulation.hh"
#include "sim/random.hh"

namespace varsim
{
namespace core
{

class SamplingController
{
  public:
    /**
     * @param perturb_seed the run's perturbation seed; mixed into
     *        the stratified design's offset stream (and ignored by
     *        the matched-pair design, by construction).
     */
    SamplingController(Simulation &simn,
                       const SampleConfig &cfg,
                       std::uint64_t perturb_seed);

    /**
     * Publish hook called after each measurement window with the
     * 0-based window index and a full checkpoint taken at the
     * window's end boundary (the system is quiescent there anyway —
     * the mode switch drained it — so snapshots are nearly free).
     */
    using CheckpointSink =
        std::function<void(std::uint64_t window,
                           const Checkpoint &cp)>;

    void setCheckpointSink(CheckpointSink sink);

    /**
     * Drive the simulation until @p total_txns more transactions
     * complete (or the workload ends), sampling per the config.
     * Fills the simulation's SampledStats (so the sim.sampled.*
     * metrics export the estimates) and returns them. The
     * simulation is left in detailed mode.
     */
    SampledStats run(std::uint64_t total_txns);

    /** True if the workload ended during run(). */
    bool workloadEnded() const { return ended_; }

  private:
    /** Cumulative counters a window is a difference of. */
    struct Snapshot
    {
        sim::Tick ticks = 0;
        std::uint64_t instructions = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t txns = 0;
    };

    Snapshot snap() const;

    /** runTransactions with end tracking; returns txns completed. */
    std::uint64_t runTxns(std::uint64_t n);

    void fastForward(std::uint64_t n);
    void detailedWarm(std::uint64_t n);
    void measureWindow(std::uint64_t n);

    /** Record one window's metrics from its boundary snapshots. */
    void record(const Snapshot &a, const Snapshot &b);

    /** Fast-forward txns before the window, given U-W-M slack. */
    std::uint64_t chooseOffset(std::uint64_t slack);

    /** Reduce the window series to the reported estimates. */
    void finishEstimates(const Snapshot &runStart);

    Simulation &simn_;
    SampleConfig cfg_;
    sim::Random offsetRng_;
    CheckpointSink sink_;
    bool ended_ = false;
    std::vector<double> cpt_, ipc_, miss_;
    SampledStats st_;
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_SAMPLING_CONTROLLER_HH
