/**
 * @file
 * Incremental campaign execution: one open campaign, advanced one
 * recorded run at a time.
 *
 * runCampaign() used to own the whole loop — decide targets, find
 * missing cells, run them on the thread pool, repeat. The `varsim
 * serve` daemon needs the same machinery at cell granularity so its
 * scheduler can interleave many tenants' campaigns on one worker
 * pool, stream per-run progress, and cancel between cells. Execution
 * is that machinery factored out; runCampaign() is now a thin loop
 * over it, which is what guarantees a served campaign's records are
 * bit-identical to the CLI's: both paths run the same seeds through
 * the same code against the same durable store.
 *
 * Thread contract: pendingCells()/complete()/outcome() may be called
 * from any thread; prepareCell()/prepareCells() too (a configuration
 * warms once, on the first thread that needs it; a thread preparing
 * another configuration does not wait for it); runCell() may run
 * concurrently from many threads for *distinct* prepared cells.
 */

#ifndef VARSIM_CAMPAIGN_EXEC_HH
#define VARSIM_CAMPAIGN_EXEC_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/controller.hh"
#include "campaign/engine.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"

namespace varsim
{
namespace campaign
{

/** One schedulable unit: run @c runIdx of cell group @c group. */
struct Cell
{
    std::size_t group = 0;
    std::size_t runIdx = 0;
};

class CheckpointWarmer;

class Execution
{
  public:
    /**
     * Open (or create) the store at @p dir for @p spec and prepare
     * to execute. Runs the budget-planning pilots synchronously when
     * the spec has a budget and the store no recorded plan, then
     * opens opt.ckptDir when the spec plans checkpoints. Returns
     * nullptr with @p err set on a bad spec, a locked store, a
     * fingerprint mismatch or a library it cannot open — the daemon
     * fails that campaign; runCampaign() turns it into fatal().
     */
    static std::unique_ptr<Execution>
    tryCreate(const CampaignSpec &spec, const std::string &dir,
              const CampaignOptions &opt, std::string *err);

    ~Execution();

    Execution(const Execution &) = delete;
    Execution &operator=(const Execution &) = delete;

    /** The spec actually executed (budget plan applied). */
    const CampaignSpec &effective() const { return eff; }

    const CampaignOptions &options() const { return opt; }

    ResultStore &resultStore() { return *store; }

    /**
     * Recompute stopping decisions from the store and return every
     * cell below target that is missing and owned by this shard.
     * The list shrinks as runs record and can *grow* after a pilot
     * completes (adaptive extension); callers poll it until empty.
     */
    std::vector<Cell> pendingCells();

    /**
     * Latest decisions (valid after the first pendingCells() call).
     * Snapshot by value: the vector is replaced on recompute.
     */
    std::vector<GroupDecision> decisions() const;

    /**
     * Make @p cell runnable: restore or re-simulate its
     * configuration's warm-up checkpoints. Cheap when already warmed
     * or when the spec plans none. The configuration's library
     * objects are fetched concurrently on HostThreadPool with
     * options().hostThreads workers (1 keeps them on the calling
     * thread).
     */
    void prepareCell(const Cell &cell);

    /**
     * prepareCell() for every cell of @p cells: the distinct
     * configurations they start from warm concurrently on
     * HostThreadPool with options().hostThreads workers, and their
     * verbose lines print in configuration order.
     */
    void prepareCells(const std::vector<Cell> &cells);

    /**
     * Execute @p cell and durably record it. Returns the record
     * (already appended; a duplicate is dropped by the store).
     */
    RunRecord runCell(const Cell &cell);

    /** Runs executed through this Execution instance. */
    std::size_t runsExecuted() const;

    /** True when every group meets its latest target. */
    bool complete();

    /**
     * Append the checkpoint-library traffic snapshot to the store
     * (no-op without a library). Call once, when execution stops.
     */
    void recordCkptStats();

    /** Assemble the invocation outcome (status counters). */
    CampaignOutcome outcome();

    std::size_t checkpointsRestored() const;
    std::size_t checkpointsWarmed() const;

  private:
    Execution() = default;

    /**
     * Stopping decisions replayed from the store: every group's
     * pilot prefix and, for sampled specs, its runs' within-run CI
     * half-widths.
     */
    std::vector<GroupDecision> decideFromStore() const;

    CampaignSpec eff;
    CampaignOptions opt;
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<CheckpointWarmer> warmer;

    mutable std::mutex mu; ///< decisions_, executed, ckptRecorded
    std::vector<GroupDecision> decisions_;
    std::size_t executed = 0;
    bool ckptRecorded = false;
};

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_EXEC_HH
