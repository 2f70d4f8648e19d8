/**
 * @file
 * Content-addressed persistent library of warm-up checkpoints.
 *
 * Layout of a library directory:
 *
 *     <dir>/objects/<digest>.vckpt   one archive per checkpoint
 *     <dir>/.lock                    shared/exclusive flock (see open)
 *
 * The objects directory is the library's only record. An object's
 * file name is its key digest, and its archive's metadata section
 * holds the key, position and warm-up seed, so a fetch stats the
 * object directly and entries(), stats(), verify() and gc() all
 * derive from one scan of the `.vckpt` files in `objects/`. There is
 * no second record to keep in step, which is what makes the library
 * safe to share between concurrent `--shard i/N` processes without
 * locks. Publication is atomic (temp + rename, see
 * sim::writeFileAtomic); two shards warming the same configuration
 * race benignly because identical keys produce byte-identical
 * archives, and a crash leaves either the whole object or a `.tmp.`
 * file that gc() sweeps.
 *
 * The scan lists objects oldest first (modification time, ties
 * broken by digest); gc() evicts in that order, so a byte budget
 * drops the longest-published checkpoints. Libraries written by
 * older builds also hold an `index.jsonl`; nothing reads it, and
 * gc() deletes it, since after an eviction it names objects that
 * are gone.
 *
 * The paper's methodology (Section 3.2.2) restores one Simics
 * checkpoint many times with different perturbation seeds; this
 * library is that facility made durable: `campaign run` consults it
 * before re-simulating any warm-up, so the grid's warming cost is
 * paid once per (config, position), not once per process invocation.
 */

#ifndef VARSIM_CKPT_LIBRARY_HH
#define VARSIM_CKPT_LIBRARY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/key.hh"
#include "core/simulation.hh"

namespace varsim
{
namespace ckpt
{

/**
 * One object of the library, as `ls` shows it. Everything but the
 * digest and size comes from the object's header and metadata,
 * which are read without checking the payload.
 */
struct LibraryEntry
{
    std::string digestHex;
    std::uint64_t position = 0;
    std::uint64_t warmupSeed = 0;
    std::uint64_t bytes = 0;

    /** The key's canonical string (what the digest hashes). */
    std::string key;

    /**
     * Archive format from the header; 0 when the header or the
     * metadata cannot be read (position, seed and key are then
     * unset).
     */
    std::uint32_t format = 0;
};

/** What the library holds on disk. */
struct LibraryStats
{
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

/** What verify() found. */
struct VerifyReport
{
    std::size_t checked = 0;
    std::size_t ok = 0;
    std::size_t corrupt = 0;

    /**
     * Intact objects in archive format 1, written before cache lines
     * shrank to 8 bytes. They restore as they are; this count only
     * tells a user how much of the library predates format 2.
     */
    std::size_t format1 = 0;

    /**
     * Intact objects a newer build wrote (format above
     * kArchiveVersion): neither ok nor corrupt. This build cannot
     * restore them, and gc keeps them.
     */
    std::size_t newer = 0;

    /** One object on disk, oldest first. */
    struct Object
    {
        std::string digestHex;
        /** Header version; 0 when the header is unreadable. */
        std::uint32_t format = 0;
        /** Intact (a newer build's intact object included). */
        bool ok = false;
    };
    std::vector<Object> objects;

    std::vector<std::string> problems;

    /** True when every object is intact. */
    bool clean() const { return corrupt == 0; }

    std::string toString() const;
};

/** What gc() removed. */
struct GcReport
{
    std::size_t removedTmp = 0;
    std::size_t removedCorrupt = 0;
    std::size_t evicted = 0;
    std::uint64_t bytesFreed = 0;
    std::uint64_t bytesKept = 0;

    std::string toString() const;
};

class CheckpointLibrary
{
  public:
    /**
     * Open @p dir, creating the layout on first use; nullptr with
     * @p err set when the directory cannot be created or the lock
     * cannot be taken.
     *
     * Every open holds a shared advisory flock(2) on `<dir>/.lock`
     * for the handle's lifetime; it is the handle's only state.
     * gc() needs the lock exclusively, so a maintenance sweep cannot
     * run while any process — a serve daemon, a campaign, a shard —
     * has the library open, and vice versa; both sides fail fast
     * with a clear message instead of deleting objects out from
     * under a restore. A served campaign opens its library with
     * this, so a library it cannot open fails that campaign alone.
     */
    static std::unique_ptr<CheckpointLibrary>
    tryOpen(const std::string &dir, std::string *err);

    /** tryOpen(), fatal on failure. */
    static std::unique_ptr<CheckpointLibrary>
    open(const std::string &dir);

    const std::string &directory() const { return dir_; }

    /**
     * Look up @p key; on a hit, fill @p cp with the stored snapshot
     * and return true. A corrupt or mismatched object, or one from a
     * newer build, is a miss (with a warning), never an abort: the
     * caller re-warms. Safe to
     * call from many threads at once: objects are immutable once
     * published, so nothing is shared but the files.
     */
    bool fetch(const CheckpointKey &key, core::Checkpoint &cp) const;

    /**
     * Store @p cp under @p key. Returns true when a new object was
     * written, false when the object already existed (another shard
     * won the race, or a re-run republished) or could not be written
     * (with a warning: a checkpoint is a cache entry, and the caller
     * still holds its snapshot). @p cp must be in the current format:
     * a format-1 snapshot only ever comes from a fetch, whose object
     * is already on disk.
     */
    bool publish(const CheckpointKey &key, const core::Checkpoint &cp);

    /** Every object on disk, oldest first. */
    std::vector<LibraryEntry> entries() const;

    /** Object count and bytes on disk. */
    LibraryStats stats() const;

    /**
     * Fully load every object on disk: counts intact and corrupt
     * archives, the intact ones still in format 1 and those from a
     * newer build.
     */
    VerifyReport verify() const;

    /**
     * Sweep temporary debris from killed writers and corrupt
     * objects (a newer build's intact object is not corrupt, and
     * stays); when @p maxBytes is nonzero, evict the oldest objects
     * until the library fits. Deletes an older build's
     * `index.jsonl`. Fatal when any other handle, in this process or
     * another, holds the library open (needs the exclusive `.lock`);
     * a publish() on this same handle must not overlap it, since the
     * sweep removes writers' temporaries.
     */
    GcReport gc(std::uint64_t maxBytes = 0);

    ~CheckpointLibrary();

    CheckpointLibrary(const CheckpointLibrary &) = delete;
    CheckpointLibrary &operator=(const CheckpointLibrary &) = delete;

  private:
    CheckpointLibrary() = default;

    std::string objectsDir() const { return dir_ + "/objects"; }
    std::string objectPath(const std::string &digestHex) const;

    std::string dir_;
    int lockFd = -1; ///< shared flock on <dir>/.lock while open
};

} // namespace ckpt
} // namespace varsim

#endif // VARSIM_CKPT_LIBRARY_HH
