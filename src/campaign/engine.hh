/**
 * @file
 * The campaign engine: turns a CampaignSpec into recorded runs.
 *
 * runCampaign() is idempotent and restartable: it opens (or creates)
 * the durable result store, asks the store which (group, run) cells
 * already exist, and schedules only the missing cells below the
 * stopping controller's targets onto the persistent host thread
 * pool. Killing the process at any point loses at most the runs in
 * flight; invoking runCampaign() again with the same spec finishes
 * the remainder without repeating completed work, and the final
 * statistics are bit-identical to an uninterrupted campaign's.
 *
 * Multi-host operation: cells are striped across shards by cell
 * index; shard i of N (CampaignOptions::shardIndex/shardCount) only
 * executes its own stripe, so N processes pointed at N stores (or,
 * on one filesystem, run sequentially against one store) partition
 * the campaign. Adaptive extension beyond the pilot happens once
 * every group's pilot prefix is present in the store an invocation
 * can see.
 */

#ifndef VARSIM_CAMPAIGN_ENGINE_HH
#define VARSIM_CAMPAIGN_ENGINE_HH

#include <string>
#include <vector>

#include "campaign/controller.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"

namespace varsim
{
namespace campaign
{

/** Per-invocation knobs (nothing here changes results). */
struct CampaignOptions
{
    /** Host threads for the run pool (0 = hardware concurrency). */
    std::size_t hostThreads = 0;

    /** This process's stripe: executes cells with id % count == index. */
    std::size_t shardIndex = 0;
    std::size_t shardCount = 1;

    /**
     * Testing/demo hook: behave as if the process were killed after
     * this many newly recorded runs (0 = never). In-flight runs
     * still complete and record, exactly like a real SIGKILL whose
     * victims had already fsync'd.
     */
    std::size_t interruptAfter = 0;

    /**
     * Persistent checkpoint-library directory. Empty: warm-up
     * checkpoints are rebuilt in memory per invocation (classic
     * behavior). Set: a campaign that plans checkpoints opens its
     * own handle on the library, consults it before any warm-up
     * re-simulation and publishes misses for the next process;
     * safe to share between concurrent shards, campaigns and
     * daemon tenants. Never changes run results — a restored
     * snapshot is bit-identical to a re-warmed one.
     */
    std::string ckptDir;

    /** Print per-round progress to stdout. */
    bool verbose = false;
};

/** What one runCampaign() invocation did. */
struct CampaignOutcome
{
    /** Runs newly executed and recorded by this invocation. */
    std::size_t runsExecuted = 0;

    /** Total runs in the store afterwards. */
    std::size_t runsRecorded = 0;

    /** True if every group meets its target (all shards' cells). */
    bool complete = false;

    /** True if the interruptAfter hook fired. */
    bool interrupted = false;

    /** The controller's final per-group targets. */
    std::vector<std::size_t> targetRuns;

    /** Recorded runs per group afterwards. */
    std::vector<std::size_t> recordedRuns;

    /** Warm-up checkpoints restored from the library (hits). */
    std::size_t checkpointsRestored = 0;

    /** Warm-up checkpoints built by re-simulation this invocation. */
    std::size_t checkpointsWarmed = 0;
};

/**
 * Execute (or resume) the campaign described by @p spec against the
 * store at @p dir. Creates the store on first use; on reuse the
 * spec's fingerprint must match the store's.
 */
CampaignOutcome runCampaign(const CampaignSpec &spec,
                            const std::string &dir,
                            const CampaignOptions &opt = {});

/**
 * Pre-populate the checkpoint library for @p spec: warm every
 * (configuration, position) cell the campaign would need and publish
 * each snapshot, restoring whatever the library already holds. This
 * is `varsim ckpt create` — run it once (or per shard; publication
 * races are benign) and every later `campaign run` skips straight to
 * measurement. Requires spec.numCheckpoints > 0 and a nonempty
 * opt.ckptDir.
 */
struct WarmupResult
{
    /** Checkpoints served from the library. */
    std::size_t restored = 0;

    /** Checkpoints built by re-simulation. */
    std::size_t warmed = 0;

    /** Library entry count / byte size afterwards. */
    std::size_t libraryEntries = 0;
    std::uint64_t libraryBytes = 0;
};

WarmupResult warmCampaignCheckpoints(const CampaignSpec &spec,
                                     const CampaignOptions &opt);

/** Store-only progress view (no spec needed). */
struct CampaignStatus
{
    StoreHeader header;
    PlanRecord plan;
    CkptStatsRecord ckpt;
    std::size_t totalRuns = 0;
    std::vector<std::size_t> runsPerGroup;
    std::vector<std::string> groupNames;

    /** Compacted-segment split (all zero for a pure-JSONL store). */
    std::size_t segmentRuns = 0;
    std::size_t tailRuns = 0;

    std::string toString() const;
};

CampaignStatus campaignStatus(const std::string &dir);

/**
 * Store-only statistical report: per-group variability summaries
 * plus the full Section 5 comparison for every configuration pair
 * at every starting point with enough runs.
 */
struct CampaignReport
{
    std::string text;
};

CampaignReport campaignReport(const std::string &dir,
                              double confidence = 0.95);

/**
 * Per-group variability of one named metric: a built-in run metric
 * ("cycles_per_txn", "runtime_ticks", "txns") or any registry
 * metric recorded with the runs (e.g. "system.mem.bus.l2_misses").
 * @p metric == "list" enumerates the recorded names instead.
 */
CampaignReport campaignMetricReport(const std::string &dir,
                                    const std::string &metric,
                                    double confidence = 0.95);

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_ENGINE_HH
