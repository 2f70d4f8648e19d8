/**
 * @file
 * Declarative description of a simulation campaign: the closed-loop
 * version of the paper's methodology. A campaign is a grid of
 * (configuration, checkpoint) cell groups, each of which accumulates
 * perturbed runs until a stopping rule says the conclusion is safe —
 * the paper's Section 5.1 workflow (pilot runs, sample-size
 * estimation, more runs) made durable and restartable.
 *
 * A CampaignSpec is pure data. Its fingerprint() identifies the
 * experiment: a result store created for one spec refuses to resume
 * under a different one.
 */

#ifndef VARSIM_CAMPAIGN_SPEC_HH
#define VARSIM_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/planner.hh"
#include "core/runner.hh"
#include "workload/workload.hh"

namespace varsim
{
namespace campaign
{

/**
 * Seed distance between cell groups: run i of group g uses seed
 * baseSeed + g * kSeedStride + i (overflow-checked), so seeds are
 * unique across the whole campaign as long as every group's run
 * count stays below the stride.
 */
constexpr std::uint64_t kSeedStride = 1u << 20;

/** One named configuration point of the campaign grid. */
struct ConfigVariant
{
    /** Stable human-readable name ("base", "l2-assoc=1", ...). */
    std::string name;
    core::SystemConfig sys;
};

/**
 * When a cell group (one configuration at one starting point) has
 * enough runs. With fixedRuns set the rule is the classic open-loop
 * K; otherwise the controller runs pilotRuns first and then applies
 * the paper's estimators to the pilot:
 *
 *  - mean precision (Section 5.1.1): n = (t * CoV / relativeError)^2
 *    if relativeError > 0;
 *  - comparison significance (Section 5.1.2 / Table 5): the smallest
 *    n whose pooled t statistic clears the one-sided critical value
 *    at @ref alpha, maximized over all partner configurations at the
 *    same starting point, if alpha > 0.
 *
 * The target is the largest demand, clamped to [pilotRuns, maxRuns].
 * Decisions are functions of the pilot prefix only (runs
 * 0..pilotRuns-1), never of later arrivals, so a resumed campaign
 * recomputes exactly the targets the uninterrupted one chose.
 */
struct StoppingRule
{
    /** Nonzero: run exactly this many per group, no adaptation. */
    std::size_t fixedRuns = 0;

    /** Runs per group before the first adaptive decision. */
    std::size_t pilotRuns = 6;

    /** Hard per-group cap on adaptively scheduled runs. */
    std::size_t maxRuns = 32;

    /**
     * Target CI half-width as a fraction of the mean (the paper's
     * worked example uses 0.04). Zero disables the criterion.
     */
    double relativeError = 0.0;

    /**
     * Wrong-conclusion bound for pairwise configuration comparisons
     * (Table 5 uses 0.10 .. 0.005). Zero disables the criterion.
     */
    double alpha = 0.0;

    /** Confidence level behind the mean-precision criterion. */
    double confidence = 0.95;
};

/** The full declarative description of a campaign. */
struct CampaignSpec
{
    /** Configurations under comparison (>= 1). */
    std::vector<ConfigVariant> configs;

    /** The (single) workload all cells run. */
    workload::WorkloadParams wl;

    /** Per-run measurement parameters (perturbSeed is overwritten). */
    core::RunConfig run;

    /**
     * Starting-point sampling (Section 5.2). Zero checkpoints means
     * every run starts fresh (warmupTxns does the warming); nonzero
     * plans numCheckpoints positions over checkpointStep *
     * numCheckpoints warmup transactions and every configuration
     * runs from each.
     */
    std::size_t numCheckpoints = 0;
    std::uint64_t checkpointStep = 0;
    core::SamplingStrategy strategy =
        core::SamplingStrategy::Systematic;

    /** Root of the campaign's seed space. */
    std::uint64_t baseSeed = 1000;

    StoppingRule stop;

    /**
     * Nonzero: a fixed budget of measured transactions. Before the
     * grid runs, the engine measures CoV pilots at a few run lengths
     * and lets core::planBudget pick the (run length, run count)
     * split; the chosen plan is recorded in the store and reused
     * verbatim on resume.
     */
    std::uint64_t budgetTxns = 0;

    // ---- derived geometry ----

    /** Starting points per configuration (1 when not checkpointing). */
    std::size_t
    numCheckpointSlots() const
    {
        return numCheckpoints ? numCheckpoints : 1;
    }

    /** Cell groups: configurations x starting points. */
    std::size_t
    numGroups() const
    {
        return configs.size() * numCheckpointSlots();
    }

    std::size_t
    groupIndex(std::size_t config, std::size_t ckpt) const
    {
        return config * numCheckpointSlots() + ckpt;
    }

    std::size_t
    configOf(std::size_t group) const
    {
        return group / numCheckpointSlots();
    }

    std::size_t
    ckptOf(std::size_t group) const
    {
        return group % numCheckpointSlots();
    }

    /** "l2-assoc=4 @ckpt2" style display name of a group. */
    std::string groupName(std::size_t group) const;

    /** Perturbation seed of run @p runIdx of group @p group. */
    std::uint64_t groupSeed(std::size_t group,
                            std::size_t runIdx) const;

    /**
     * Identity of the experiment: a hash over every knob that
     * changes what a run record means. Two specs with equal
     * fingerprints produce interchangeable result stores.
     */
    std::uint64_t fingerprint() const;

    /** fatal() on a nonsensical spec (empty grid, bad rule, ...). */
    void validate() const;

    /**
     * Non-fatal validate(): true when the spec is runnable, false
     * with @p why set otherwise. The daemon rejects submissions with
     * this; the CLI's validate() wraps it in fatal().
     */
    bool check(std::string *why) const;
};

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_SPEC_HH
