/**
 * @file
 * The compacted binary result-segment format.
 *
 * A segment holds every run record of a campaign store at the moment
 * of compaction, in one checksummed, length-framed, mmap-able file —
 * the same container conventions as the checkpoint archives in
 * src/ckpt/archive.hh (little-endian fixed-width integers, trailing
 * whole-file FNV-1a 64 checksum, parse-never-aborts). Layout:
 *
 *     offset  size  field
 *     0       8     magic "VSIMSEG1"
 *     8       4     format version (currently 1)
 *     12      4     dictionary entry count D
 *     16      8     run record count R
 *     24      8     legacy footer entry count G (written as 0)
 *     32      ...   dictionary: D x { u32 length, bytes } metric
 *                   names, sorted, unique
 *     ...           records: R x {
 *                     u64 group, u64 run, u64 config, u64 ckpt,
 *                     u64 seed, u64 cycles_per_txn (double bits),
 *                     u64 runtime_ticks, u64 txns,
 *                     u32 metric count M,
 *                     M x { u32 dict index, u64 value (double
 *                     bits) } sorted by dict index
 *                   } sorted by (group, run), strictly increasing
 *     ...           legacy footer: G x 48 bytes, skipped. Older
 *                   writers stored per-group running summaries
 *                   here, which no reader used; an older reader
 *                   given G = 0 recomputes them from the records.
 *     end-8   8     FNV-1a 64 checksum over every preceding byte
 *
 * Metric doubles travel as raw IEEE-754 bits, so a segment round
 * trip is bit-exact by construction (the JSONL journal achieves the
 * same through %.17g). The per-segment dictionary makes a record's
 * metric list an array of (u32, u64) pairs instead of repeated name
 * strings — the dominant space and parse cost of large journals.
 *
 * Truncation and bit flips are rejected with a description, not
 * misread: every frame is bounds-checked, record keys must strictly
 * increase, dictionary references must resolve, the declared frames
 * must exactly tile the file, and the trailing checksum must match.
 * The checksum runs on its own thread while the walk indexes the
 * records, and a load that fails both reports the checksum.
 */

#ifndef VARSIM_CAMPAIGN_SEGMENT_HH
#define VARSIM_CAMPAIGN_SEGMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/store.hh"

namespace varsim
{
namespace campaign
{

constexpr std::uint32_t kSegmentVersion = 1;

/**
 * Serialize @p records (must be sorted by (group, run), unique) into
 * segment bytes with an empty legacy footer.
 */
std::vector<std::uint8_t>
buildSegment(const std::vector<const RunRecord *> &records);

/**
 * A parsed, validated segment. Read-only and immutable: accessors
 * read straight out of the backing bytes (an mmap'd file or an
 * owned buffer), so holding a view costs index + dictionary memory,
 * not a copy of the records.
 */
class SegmentView
{
  public:
    /** Handle to one record inside the view. */
    struct Ref
    {
        std::size_t idx = SIZE_MAX;
        bool valid() const { return idx != SIZE_MAX; }
    };

    std::size_t runCount() const { return index.size(); }

    /** Recorded runs of @p group (any run indices). */
    std::size_t runsInGroup(std::size_t group) const;

    /** Locate (group, run); !valid() when absent. */
    Ref find(std::size_t group, std::size_t run) const;

    /** Position of the first record not below (group, run). */
    std::size_t lowerBound(std::uint64_t group,
                           std::uint64_t run) const;

    /** The record at position @p pos if it is (group, run). */
    Ref at(std::size_t pos, std::size_t group, std::size_t run) const;

    double cyclesPerTxn(Ref r) const;
    std::uint64_t runtimeTicks(Ref r) const;
    std::uint64_t txns(Ref r) const;

    /** Full record, metric names resolved through the dictionary. */
    RunRecord materialize(Ref r) const;

    /**
     * Dictionary index of @p name, or -1. Resolve once per walk,
     * then look values up by index.
     */
    int dictIndex(const std::string &name) const;

    /** Value of dictionary metric @p dictIdx in record @p r. */
    bool metricValue(Ref r, std::uint32_t dictIdx,
                     double *out) const;

    /** Sorted unique metric names the segment's records carry. */
    const std::vector<std::string> &dictionary() const
    {
        return dict;
    }

    /** The trailing whole-file checksum (manifest cross-check). */
    std::uint64_t checksum() const { return fnv; }

    /**
     * Wait for the whole-file checksum the load started beside its
     * walk. False, with @p error set as a failed load would set
     * SegmentLoad::error, when the bytes do not match it. Until this
     * returns true the view is bounds-checked but not vouched for.
     */
    bool verify(std::string *error);

    ~SegmentView();

    SegmentView(const SegmentView &) = delete;
    SegmentView &operator=(const SegmentView &) = delete;

  private:
    SegmentView() = default;

    friend struct SegmentParser;

    struct Entry
    {
        std::uint64_t group;
        std::uint64_t run;
        std::size_t offset; ///< record start within the bytes
    };

    const std::uint8_t *base = nullptr;
    std::size_t size_ = 0;
    void *mapping = nullptr;         ///< munmap'd when set
    std::size_t mappingLen = 0;
    std::vector<std::uint8_t> owned; ///< backing when not mapped

    /** Joins the checksum: "" when it matches, else the mismatch. */
    std::string checksumMismatch();

    std::string path; ///< the file mapped or read; empty when parsed
    std::vector<std::string> dict;
    std::vector<Entry> index; ///< sorted by (group, run)
    std::uint64_t fnv = 0;      ///< the stored trailing checksum
    std::uint64_t computed = 0; ///< set by checker

    /**
     * Computes the checksum of the bytes above; joined by verify()
     * or, for a view dropped unverified, by the destructor before
     * the bytes go.
     */
    std::thread checker;
};

/** Outcome of loading a segment; never aborts on damage. */
struct SegmentLoad
{
    bool ok = false;

    /** Human-readable reason when !ok. */
    std::string error;

    std::shared_ptr<SegmentView> view;
};

/**
 * Validate and index @p bytes (the view takes ownership), checksum
 * included. Tests and the damage sweeps use this direct form.
 */
SegmentLoad parseSegment(std::vector<std::uint8_t> bytes);

/**
 * mmap (falling back to a plain read) and parse @p path. The walk's
 * damage and I/O errors land in SegmentLoad; the whole-file checksum
 * is still running on its own thread when this returns, and the
 * caller awaits it with SegmentView::verify() once it has done what
 * does not depend on it.
 */
SegmentLoad loadSegmentFile(const std::string &path);

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_SEGMENT_HH
