/**
 * @file
 * The compacted binary result-segment format.
 *
 * A segment holds every run record of a campaign store at the moment
 * of compaction, in one checksummed, length-framed, mmap-able file —
 * the same container conventions as the checkpoint archives in
 * src/ckpt/archive.hh (little-endian fixed-width integers, trailing
 * whole-file checksum, parse-never-aborts). Layout:
 *
 *     offset  size  field
 *     0       8     magic "VSIMSEG1"
 *     8       4     format version: 2 is written, 1 and 2 are read
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
 *     end-8   8     checksum over every preceding byte: format 1
 *                   byte-wise FNV-1a 64, format 2 the word-lane
 *                   checksum of segmentChecksum()
 *
 * The two formats differ only in the checksum. Byte-wise FNV-1a is
 * one serial xor-multiply per byte; format 2 runs xxHash64's round
 * over 64-bit words in four independent lanes, about 7x faster, and
 * the round is a bijection of the lane for a fixed word and of the
 * word for a fixed lane, so any change confined to one of those
 * words is always detected. A build that reads only
 * format 1 refuses a format-2 segment ("unsupported segment version
 * 2"); compact() rewrites a format-1 segment as format 2.
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
 * A load checks the header, then the checksum and the walk that
 * indexes the records each run on their own thread while the caller
 * goes on; a load that fails both reports the checksum.
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

/** The format compaction writes; every version up to it is read. */
constexpr std::uint32_t kSegmentVersion = 2;

/**
 * The trailing checksum a format-@p version segment keeps over its
 * first @p n bytes. Format 1: byte-wise FNV-1a 64. Format 2:
 * xxHash64's round r(a, w) = rotl(a + w * 0xc2b2ae3d27d4eb4f, 31) *
 * 0x9e3779b185ebca87 over the little-endian 64-bit words, word j into
 * lane j % 4, lane k starting from the FNV basis plus k; then, from
 * the FNV basis, the four lanes, the n % 8 bytes after the last whole
 * word as one zero-padded word (if any) and n itself are folded in
 * with the same round.
 */
std::uint64_t segmentChecksum(std::uint32_t version,
                              const std::uint8_t *p, std::size_t n);

/**
 * Serialize @p records (must be sorted by (group, run), unique) into
 * format-kSegmentVersion bytes with an empty legacy footer.
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

    /** The format the header names (which checksum it carries). */
    std::uint32_t version() const { return version_; }

    /**
     * Wait for the walk the load started. False, with @p error set as
     * a failed load would set SegmentLoad::error, when the records do
     * not frame; no accessor may be used before this returns true.
     * The records are then bounds-checked but not vouched for.
     */
    bool awaitIndex(std::string *error);

    /**
     * awaitIndex(), then wait for the whole-file checksum. False,
     * with @p error set as for awaitIndex(), when the bytes do not
     * match it either.
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

    /** @p why, or the path it concerns and @p why. */
    std::string located(const std::string &why) const;

    std::string path; ///< the file mapped or read; empty when parsed
    std::vector<std::string> dict;
    std::vector<Entry> index; ///< sorted by (group, run)
    std::uint32_t version_ = 0;
    std::uint64_t fnv = 0;      ///< the stored trailing checksum
    std::uint64_t computed = 0; ///< set by checker
    std::string walkError;      ///< set by walker; empty: it framed

    /**
     * Compute the checksum and build dict and index from the bytes
     * above; joined by verify() and awaitIndex() or, for a view
     * dropped before, by the destructor before the bytes go.
     */
    std::thread checker;
    std::thread walker;
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
 * mmap (falling back to a plain read) @p path and check its header.
 * I/O errors and a bad header land in SegmentLoad; the walk and the
 * whole-file checksum are still running on their own threads when
 * this returns, and the caller awaits them with
 * SegmentView::awaitIndex() and SegmentView::verify() once it has
 * done what does not depend on them.
 */
SegmentLoad loadSegmentFile(const std::string &path);

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_SEGMENT_HH
