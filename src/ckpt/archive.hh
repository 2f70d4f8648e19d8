/**
 * @file
 * The on-disk checkpoint archive format.
 *
 * Layout (all integers little-endian, fixed width):
 *
 *     offset  size  field
 *     0       8     magic "VSIMCKPT"
 *     8       4     format version (currently 2)
 *     12      4     section count S
 *     16      12*S  section table: {u32 id, u64 length} per section
 *     ...           section payloads, in table order
 *     end-8   8     FNV-1a 64 checksum over every preceding byte
 *
 * Section 1 is the metadata (one JSON line holding the key's
 * canonical string, digest, position, and warm-up seed); section 2
 * is the raw core::Checkpoint payload, in the sim::CheckpointOut
 * layout the version names (sim::kCheckpointFormat). Version 2 is
 * the current one. Version 1 differs only in its cache images (24
 * bytes a line, with 64-bit LRU stamps); it is still read, the
 * version travelling with the payload as core::Checkpoint::format so
 * that mem::CacheArray decodes those lines and ranks them by stamp.
 * Objects are named by key digest, not by version, so a library
 * written before version 2 keeps serving restores unchanged.
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

    /** Format version from the header (1..kArchiveVersion). */
    std::uint32_t version = 0;

    ArchiveMeta meta;
    std::vector<std::uint8_t> payload;
};

/**
 * Validate and unpack archive bytes: magic, version, section tiling,
 * whole-file checksum and metadata digest. On success the payload is
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
 * The format version in @p path's header, read without loading the
 * rest; 0 when the file is missing or does not start like an archive.
 * Only loadArchiveFile() vouches for the bytes behind the header.
 */
std::uint32_t peekArchiveVersion(const std::string &path);

} // namespace ckpt
} // namespace varsim

#endif // VARSIM_CKPT_ARCHIVE_HH
