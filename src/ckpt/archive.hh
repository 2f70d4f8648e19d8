/**
 * @file
 * The on-disk checkpoint archive format.
 *
 * Layout (all integers little-endian, fixed width):
 *
 *     offset  size  field
 *     0       8     magic "VSIMCKPT"
 *     8       4     format version (currently 3)
 *     12      4     section count S
 *     16      12*S  section table: {u32 id, u64 length} per section
 *     ...           section payloads, in table order
 *     end-8   8     FNV-1a 64 checksum over every preceding byte
 *
 * Section 1 is the metadata (one JSON line holding the key's
 * canonical string, digest, position, and warm-up seed); section 2
 * is the raw core::Checkpoint payload, in the sim::CheckpointOut
 * layout the version names (sim::kCheckpointFormat). The container
 * above is the same in every version; the versions differ only in
 * the payload's cache images:
 *
 *     1   every line of an array in 24 bytes (whole address, state,
 *         aux, 64-bit LRU stamp)
 *     2   every line in 8 bytes (tag, state, aux, LRU rank): dense
 *     3   a validity bitmap (one u64 word per 64 lines), then only
 *         the valid 8-byte lines
 *
 * This build writes version 3 and restores 1, 2 and 3, the version
 * travelling with the payload as core::Checkpoint::format so that
 * mem::CacheArray decodes the lines it names. Objects are named by
 * key digest, not by version, so a library written by an older build
 * keeps serving restores with no re-warm. An archive from a newer
 * build is checked like any other (the checksum does not depend on
 * the version); when intact, `ls` and `verify` name it "format N
 * (newer build)", it is not corrupt, gc keeps it, and a fetch misses
 * with a warning. Builds older than this one parse no version above
 * their own: they count a version-3 object as corrupt in `verify`,
 * delete it in gc, and re-warm instead of restoring it.
 *
 * The section table's lengths must exactly tile the file and the
 * trailing checksum must match, so a truncated or bit-flipped file
 * is rejected with a description instead of being misdeserialized.
 * Parsing never aborts the process: verify/gc want to report damage,
 * not die on it.
 *
 * Archives are fully deterministic — no timestamps or host identity —
 * so the same key and payload always produce the same bytes, which is
 * what lets concurrent shard processes publish the same object
 * without coordination.
 */

#ifndef VARSIM_CKPT_ARCHIVE_HH
#define VARSIM_CKPT_ARCHIVE_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/serialize.hh"

namespace varsim
{
namespace ckpt
{

/** The version buildArchive() writes: the payload's layout. */
constexpr std::uint32_t kArchiveVersion = sim::kCheckpointFormat;

/**
 * FNV-1a 64 over raw bytes: the whole-file checksum primitive every
 * binary container in this tree trails its bytes with (checkpoint
 * archives, campaign result segments).
 */
std::uint64_t fnvBytes(const std::uint8_t *p, std::size_t n);

/** Append @p v to @p out little-endian, fixed width. */
template <typename T>
void
putLe(std::vector<std::uint8_t> &out, T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Read a little-endian fixed-width T at @p p. */
template <typename T>
T
getLe(const std::uint8_t *p)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

/** Metadata stored alongside the snapshot payload. */
struct ArchiveMeta
{
    /** The checkpoint key's canonical "k=v;" string. */
    std::string keyCanonical;

    /** FNV-1a digest of keyCanonical (the content address). */
    std::uint64_t digest = 0;

    /** Transaction position of the snapshot. */
    std::uint64_t position = 0;

    /** Perturbation seed of the warming run. */
    std::uint64_t warmupSeed = 0;
};

/** Serialize metadata + checkpoint payload into archive bytes. */
std::vector<std::uint8_t>
buildArchive(const ArchiveMeta &meta,
             const std::vector<std::uint8_t> &payload);

/** Outcome of parsing an archive; never aborts on damage. */
struct LoadResult
{
    bool ok = false;

    /** Human-readable reason when !ok. */
    std::string error;

    /** Format version from the header (1..kArchiveVersion when ok;
     *  above it when newer). */
    std::uint32_t version = 0;

    /**
     * True when !ok only because the archive comes from a newer
     * build: every container check passed, the checksum included,
     * but its version is above kArchiveVersion. Not damage: such an
     * object is kept, and a fetch of it misses.
     */
    bool newer = false;

    ArchiveMeta meta;
    std::vector<std::uint8_t> payload;
};

/**
 * How `ls` and `verify` name archive format @p version (nonzero): the
 * number, with " (newer build)" above kArchiveVersion.
 */
std::string formatName(std::uint32_t version);

/**
 * Validate and unpack archive bytes: magic, section tiling,
 * whole-file checksum, version and metadata digest. On success the payload is
 * handed out of @p bytes itself (moved, then trimmed to the payload
 * section), so pass an rvalue to unpack without a second
 * payload-sized allocation.
 */
LoadResult parseArchive(std::vector<std::uint8_t> bytes);

/**
 * Read @p path with one sized read and parse it in that buffer; I/O
 * errors land in LoadResult.
 */
LoadResult loadArchiveFile(const std::string &path);

/**
 * The header and metadata of the archive at @p path, read without
 * its payload: the header, the section table and the metadata
 * section only, each bounded by the file's size, and no checksum.
 * ok is false when the file is missing, does not start like an
 * archive, or its table or metadata cannot be read; version still
 * holds the header's raw version whenever the file starts with the
 * archive magic (0 otherwise); a version above kArchiveVersion is
 * read like any other. The payload is always empty. Only
 * loadArchiveFile() vouches for an archive's bytes.
 */
LoadResult peekArchive(const std::string &path);

} // namespace ckpt
} // namespace varsim

#endif // VARSIM_CKPT_ARCHIVE_HH
