/**
 * @file
 * Durable result store for campaigns: an append-only JSONL journal
 * plus at most one compacted binary segment.
 *
 * One directory per campaign. `manifest.jsonl` is the journal: a
 * header record identifying the spec, an optional budget-plan
 * record, and one record per completed run. Appends are single
 * `write(2)` calls followed by `fsync(2)`, so a record is either
 * fully on disk or absent; replay on open tolerates a torn final
 * line (the signature of a crash mid-append) by discarding it.
 *
 * Replaying a large journal re-parses every record, which makes the
 * open cost of `status`/`report`/resume O(campaign size). compact()
 * fixes that: it folds every recorded run into one checksummed
 * binary segment under `segments/` (see campaign/segment.hh), then
 * atomically rewrites the manifest to a header + one "segment"
 * reference record. Open cost becomes proportional to the
 * un-compacted JSONL *tail* — the appends since the last compaction
 * — while the JSONL journal remains the interchange format
 * (exportJsonl() re-emits any store, compacted or not, as pure
 * JSONL). Compaction is observationally a no-op: a compacted store
 * replays to the same records, the same reports, and the same
 * resume decisions as its pure-JSONL twin.
 *
 * In memory a store is the journal tail's flat index and the one
 * segment's index, both sorted by (group, run). A tail run is one
 * fixed-size record: its metric names are interned once per store,
 * each distinct name list is kept (and, on replay, sorted) once, and
 * its values sit in one arena, so a replayed run allocates no string
 * and no node. Every per-group query is one walk over the group's
 * contiguous run prefix with a cursor in each index, reading both in
 * place; RunRecords are built only for groupRuns(), export and
 * compaction, which merge the two indexes whole. Replay refuses a
 * segment record after a run record, the one manifest order that
 * could put a run in both indexes; a run in both would be the
 * tail's.
 *
 * The store is the campaign's only authority on what has already
 * happened: the scheduler asks it which (group, run) cells exist and
 * schedules only the rest, which is what makes kill-and-resume free
 * of duplicated work, and the aggregate statistics are computed from
 * replayed records (metric doubles round-trip %.17g in the journal
 * and as raw bits in segments), which is what makes a resumed
 * campaign's statistics bit-identical to an uninterrupted one's.
 */

#ifndef VARSIM_CAMPAIGN_STORE_HH
#define VARSIM_CAMPAIGN_STORE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace varsim
{

namespace sim
{
class JsonLine;
}

namespace campaign
{

class SegmentView; // campaign/segment.hh
struct SegmentLoad;

/**
 * Most cell groups, and most checkpoints, one campaign may declare.
 * CampaignSpec::check refuses a larger grid and replay refuses a
 * larger store header: status and report loop over every declared
 * group.
 */
constexpr std::size_t kMaxGroups = 65536;

/** Identity record written when a store is created. */
struct StoreHeader
{
    /**
     * Manifest format version. 1 = pure JSONL journal; 2 = journal
     * that may reference compacted binary segments. Replay accepts
     * both and rejects anything newer with a clear message.
     */
    int version = 1;
    std::uint64_t fingerprint = 0;
    std::size_t numGroups = 0;
    std::size_t numCheckpoints = 0; ///< 0 = fresh-start campaign
    std::string workload;
    std::vector<std::string> configNames;
};

/** One completed run of one cell. */
struct RunRecord
{
    std::size_t group = 0;
    std::size_t configIdx = 0;
    std::size_t ckptIdx = 0;
    std::size_t runIdx = 0;
    std::uint64_t seed = 0;
    double cyclesPerTxn = 0.0;
    std::uint64_t runtimeTicks = 0;
    std::uint64_t txns = 0;

    /**
     * The run's full metrics-registry dump (name, value). Persisted
     * as a companion "metrics" record so pre-existing manifests (and
     * older readers) still parse the unchanged "run" record. Order
     * is registration order when freshly appended and name order
     * after a replay or compaction; every consumer looks metrics up
     * by name, so the order is not part of the contract.
     */
    std::vector<std::pair<std::string, double>> metrics;
};

/** The budget planner's recorded decision (empty until planned). */
struct PlanRecord
{
    bool valid = false;
    std::uint64_t runLength = 0;
    std::size_t numRuns = 0;
};

/**
 * Checkpoint-library traffic of a campaign invocation. Appended once
 * per invocation that used a library; on replay the latest record
 * wins, so status always shows the most recent run's hit/miss split.
 */
struct CkptStatsRecord
{
    bool valid = false;

    /** Library directory the campaign consulted. */
    std::string dir;

    /** Warm-up checkpoints restored from disk (library hits). */
    std::size_t restored = 0;

    /** Warm-up checkpoints built by re-simulation (misses). */
    std::size_t warmed = 0;

    /** Library size after the invocation. */
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

class ResultStore
{
  public:
    /**
     * Open @p dir, creating directory and manifest (with @p header)
     * if absent. When the manifest exists, its header must match
     * @p header's fingerprint — resuming under a different spec is
     * a user error (fatal).
     *
     * Writable opens take an exclusive advisory flock(2) on a
     * dedicated `.lock` file in the store directory for the life of
     * the store, so a daemon and a stray `varsim campaign run`
     * pointed at the same directory fail fast with a clear message
     * instead of interleaving appends. (The lock cannot live on the
     * manifest itself: compaction replaces the manifest by
     * rename(2), which would strand a manifest-fd lock on the old
     * inode.)
     */
    static std::unique_ptr<ResultStore>
    openOrCreate(const std::string &dir, const StoreHeader &header);

    /**
     * Non-fatal openOrCreate(): nullptr with @p err set when the
     * store is locked by another process, was created for a
     * different fingerprint, or cannot be created. The daemon opens
     * campaign stores with this so a bad submission is an error
     * reply, not an exit.
     */
    static std::unique_ptr<ResultStore>
    tryOpenOrCreate(const std::string &dir,
                    const StoreHeader &header, std::string *err);

    /** Open an existing store read-write (locked); fatal if absent. */
    static std::unique_ptr<ResultStore>
    open(const std::string &dir);

    /**
     * Open an existing store for reading only: no write lock, no
     * torn-tail truncation (a torn final line is dropped from the
     * replay but left on disk — it may simply be a live writer's
     * append in progress). Status and report paths use this so they
     * work while a daemon or campaign process holds the write lock.
     */
    static std::unique_ptr<ResultStore>
    openReadOnly(const std::string &dir);

    const StoreHeader &header() const { return header_; }

    /** True if (group, runIdx) already has a recorded run. */
    bool hasRun(std::size_t group, std::size_t runIdx) const;

    /** Recorded runs of @p group (any run indices). */
    std::size_t runsInGroup(std::size_t group) const;

    /** All recorded runs. */
    std::size_t totalRuns() const;

    /**
     * Metric values of @p group ordered by run index. Only the
     * contiguous prefix starting at run 0 is returned: a gap (a run
     * another shard has not recorded yet) ends the sequence, so
     * every consumer sees a deterministic prefix of the group's
     * seed sequence. @p maxRuns caps the prefix — the stopping
     * controller only ever reads the pilot, so it passes the pilot
     * size and stops paying O(recorded runs) per decision.
     */
    std::vector<double>
    groupMetric(std::size_t group,
                std::size_t maxRuns = SIZE_MAX) const
    {
        return groupMetricNamed(group, "cycles_per_txn", maxRuns);
    }

    /** Full records of @p group's contiguous prefix, by run index. */
    std::vector<RunRecord> groupRuns(std::size_t group) const;

    /**
     * Values of metric @p name over @p group's contiguous prefix,
     * capped at @p maxRuns. @p name is a built-in run metric
     * ("cycles_per_txn", "runtime_ticks", "txns") or any registry
     * metric stored with the runs. The sequence stops at the first
     * run lacking the metric (e.g. runs recorded before the metric
     * existed).
     */
    std::vector<double>
    groupMetricNamed(std::size_t group, const std::string &name,
                     std::size_t maxRuns = SIZE_MAX) const;

    /**
     * Sorted union of every metric name any recorded run carries,
     * built-ins first.
     */
    std::vector<std::string> metricNames() const;

    /** Runs living in the compacted segment (0 when there is none). */
    std::size_t segmentRunCount() const;

    /** Runs living in the JSONL journal tail (not yet compacted). */
    std::size_t tailRunCount() const;

    /**
     * Durably append one run record (thread-safe). A duplicate
     * (group, runIdx) — possible when two shards of the same index
     * race — keeps the first record and drops this one. Compacts
     * automatically when the journal tail reaches 8192 runs.
     */
    void appendRun(const RunRecord &rec);

    const PlanRecord &plan() const { return plan_; }

    /** Durably record the budget plan (once per store). */
    void appendPlan(const PlanRecord &plan);

    /** Latest checkpoint-library statistics (invalid when unused). */
    const CkptStatsRecord &ckptStats() const { return ckpt_; }

    /** Durably record a checkpoint-library statistics snapshot. */
    void appendCkptStats(const CkptStatsRecord &rec);

    struct CompactResult
    {
        /** False when the store was already fully compacted. */
        bool performed = false;

        /** Runs in the segment the compaction wrote. */
        std::size_t runs = 0;

        /** Segment file, relative to the store directory. */
        std::string segmentFile;
    };

    /**
     * Fold every recorded run (segment + journal tail) into one new
     * binary segment and atomically rewrite the manifest to
     * reference it (writer only — fatal on a read-only store).
     *
     * Crash-safe by ordering: the segment is written and fsync'd
     * first, the manifest swap (temp + fsync + rename) second. A
     * crash between the two leaves the old manifest authoritative
     * and the new segment an unreferenced orphan. After the swap,
     * every file under `segments/` that the new manifest does not
     * name is deleted: the replaced segment and any such orphan. A
     * reader that already mapped the replaced segment keeps its
     * mapping; one that replayed the old manifest but finds its
     * segment gone re-reads the manifest (see openReadOnly()).
     */
    CompactResult compact();

    /**
     * Re-emit the store as pure version-1 JSONL (header, plan,
     * checkpoint stats, then every run with its metrics companion,
     * sorted by (group, run)). This is the interchange guarantee:
     * any store, compacted or not, exports to a journal that any
     * version-1 reader replays to the same records.
     */
    void exportJsonl(std::ostream &os) const;

    /** @name Manifest line builders
     * The single source of the journal's record formats, shared by
     * the append path, compaction, exportJsonl(), and the store
     * benchmarks (which synthesize large journals without paying an
     * fsync per record). @{ */
    static std::string headerLineFor(const StoreHeader &h);
    static std::string runLineFor(const RunRecord &r);
    static std::string metricsLineFor(const RunRecord &r);
    static std::string planLineFor(const PlanRecord &p);
    static std::string ckptStatsLineFor(const CkptStatsRecord &r);
    /** @} */

    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

  private:
    ResultStore();

    /**
     * open() and tryOpenOrCreate(): lock, open the manifest, then
     * replay it or start it with *@p create. A null @p create needs
     * an existing store. nullptr with @p err set on failure.
     */
    static std::unique_ptr<ResultStore>
    openWriter(const std::string &dir, const StoreHeader *create,
               std::string *err);

    /**
     * Replay manifest lines into the in-memory index; false when
     * loadSegmentRecord() reports a deleted segment through @p gone.
     * A loaded segment is walked while the journal tail is parsed,
     * and its checksum runs until the tail is replayed and is
     * awaited before this returns; a mismatch is fatal.
     */
    bool replay(const std::string &path, std::string *gone);

    /**
     * Finish the "segment" record with @p load, the load its replay
     * started for it: any bad reference, a second segment record
     * included, is fatal. A reader passes @p gone: a missing file not
     * already named there (a compaction deleted it) goes into *gone
     * and returns false instead.
     */
    bool loadSegmentRecord(const sim::JsonLine &obj,
                           const std::string &path,
                           std::size_t lineNo, SegmentLoad &load,
                           std::string *gone);

    /** Write one line + '\n' with fsync; requires mu held. */
    void appendLine(const std::string &line);

    /** The journal tail's run index (campaign/store.cc). */
    class TailIndex;

    /** Where a run lives: the journal tail, the segment, or nowhere. */
    struct RunLoc;

    /** @name Accessor internals (require mu held) @{ */
    RunLoc locateLocked(std::size_t g, std::size_t i) const;

    /**
     * The prefix walk: @p visit runs 0, 1, ... of group @p g until a
     * run is missing, @p maxRuns were visited, or @p visit says stop.
     */
    template <class Visit>
    void walkPrefixLocked(std::size_t g, std::size_t maxRuns,
                          Visit &&visit) const;

    /** @p visit every run once, in (group, run) order. */
    template <class Visit>
    void walkAllLocked(Visit &&visit) const;

    CompactResult compactLocked();
    void maybeAutoCompactLocked();
    /** @} */

    std::string dir_;
    int fd = -1;     ///< manifest append fd (-1: read-only)
    int lockFd = -1; ///< .lock fd holding the writer flock
    StoreHeader header_;
    PlanRecord plan_;
    CkptStatsRecord ckpt_;

    /** Next segment file sequence number (orphans overwritten). */
    std::size_t nextSegmentSeq = 1;

    mutable std::mutex mu;

    /** Journal-tail runs (records appended since last compaction). */
    std::unique_ptr<TailIndex> tail_;

    /** The compacted segment the manifest references, if any. */
    std::shared_ptr<SegmentView> segment_;
};

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_STORE_HH
