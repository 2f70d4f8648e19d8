/**
 * @file
 * Content-addressed persistent library of warm-up checkpoints.
 *
 * Layout of a library directory:
 *
 *     <dir>/objects/<digest>.vckpt   one archive per checkpoint
 *     <dir>/index.jsonl              append-only entry manifest
 *
 * The object file name is the key digest, so a fetch never needs the
 * index: it stats the object directly, which is what makes the
 * library safe to share between concurrent `--shard i/N` processes
 * without locks. Publication is atomic (temp + rename, see
 * sim::writeFileAtomic); two shards warming the same configuration race
 * benignly because identical keys produce byte-identical archives.
 * The index exists for enumeration (ls, gc, stats); a crash between
 * rename and index append leaves a valid but unindexed object that
 * verify() re-indexes.
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/key.hh"
#include "core/simulation.hh"

namespace varsim
{
namespace ckpt
{

/** One indexed checkpoint, as `ls` shows it. */
struct LibraryEntry
{
    std::string digestHex;
    std::uint64_t position = 0;
    std::uint64_t warmupSeed = 0;
    std::uint64_t bytes = 0;

    /** The key's canonical string (what the digest hashes). */
    std::string key;
};

/** Aggregate counters: persistent size plus this-session traffic. */
struct LibraryStats
{
    std::size_t entries = 0;
    std::uint64_t bytes = 0;

    /** fetch() calls served from disk this session. */
    std::size_t hits = 0;

    /** fetch() calls that found nothing usable this session. */
    std::size_t misses = 0;

    /** publish() calls that wrote a new object this session. */
    std::size_t published = 0;
};

/** What verify() found (and repaired). */
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

    /** One object on disk, in file-name order. */
    struct Object
    {
        std::string digestHex;
        /** Header version; 0 when the header is unreadable. */
        std::uint32_t format = 0;
        bool ok = false;
    };
    std::vector<Object> objects;

    /** Valid objects that were missing from the index (repaired). */
    std::size_t reindexed = 0;

    /** Index entries whose object file has disappeared. */
    std::size_t missing = 0;

    std::vector<std::string> problems;

    /** True when every object is intact and indexed. */
    bool clean() const { return corrupt == 0 && missing == 0; }

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
     * Open @p dir, creating the layout on first use.
     *
     * Every open holds a shared advisory flock(2) on `<dir>/.lock`
     * for the library's lifetime (a dedicated file, not the index
     * fd: rewriteIndex() replaces the index inode, which would drop
     * a lock held there). gc() needs the exclusive lock, so a
     * maintenance sweep cannot run while any process — a serve
     * daemon, a campaign shard — has the library open, and vice
     * versa; both sides fail fast with a clear message instead of
     * deleting objects out from under a restore.
     */
    static std::unique_ptr<CheckpointLibrary>
    open(const std::string &dir);

    const std::string &directory() const { return dir_; }

    /**
     * Look up @p key; on a hit, fill @p cp with the stored snapshot
     * and return true. A corrupt or mismatched object is a miss
     * (with a warning), never an abort: the caller re-warms. Safe to
     * call from many threads at once: the archive is read, checked
     * and unpacked without the library lock, which covers only the
     * hit/miss counters.
     */
    bool fetch(const CheckpointKey &key, core::Checkpoint &cp);

    /**
     * Store @p cp under @p key. Returns true when a new object was
     * written, false when the object already existed (another shard
     * won the race, or a re-run republished). @p cp must be in the
     * current format: a format-1 snapshot only ever comes from a
     * fetch, whose object is already on disk.
     */
    bool publish(const CheckpointKey &key, const core::Checkpoint &cp);

    /** Indexed entries in publication order. */
    std::vector<LibraryEntry> entries() const;

    /**
     * Archive format of @p digestHex's object, from its header alone
     * (0 when the object is missing or not an archive).
     */
    std::uint32_t objectFormat(const std::string &digestHex) const;

    LibraryStats stats() const;

    /**
     * Re-parse every object on disk: counts intact and corrupt
     * archives (and the intact ones still in format 1), repairs index
     * entries for unindexed valid objects, reports index entries
     * whose object vanished.
     */
    VerifyReport verify();

    /**
     * Pin @p digestHex: gc() will not evict the object while any
     * pin is outstanding. Pins nest (a count per digest) and are
     * in-process only — cross-process protection is the `.lock`
     * flock, which excludes gc entirely while the library is open
     * elsewhere. Pinning an unknown digest is fine (it protects a
     * concurrent publication about to be indexed).
     */
    void pin(const std::string &digestHex);

    /** Release one pin of @p digestHex. */
    void unpin(const std::string &digestHex);

    /** True while @p digestHex has outstanding pins. */
    bool pinned(const std::string &digestHex) const;

    /**
     * Sweep temporary debris from killed writers and corrupt
     * objects; when @p maxBytes is nonzero, evict oldest-published
     * entries until the library fits, skipping pinned objects.
     * Rewrites a compacted index. Fatal when another process holds
     * the library open (needs the exclusive `.lock`).
     */
    GcReport gc(std::uint64_t maxBytes = 0);

    ~CheckpointLibrary();

    CheckpointLibrary(const CheckpointLibrary &) = delete;
    CheckpointLibrary &operator=(const CheckpointLibrary &) = delete;

  private:
    CheckpointLibrary() = default;

    std::string objectsDir() const { return dir_ + "/objects"; }
    std::string indexPath() const { return dir_ + "/index.jsonl"; }
    std::string objectPath(const std::string &digestHex) const;

    /** fetch() without the counters: read, check, unpack. */
    bool load(const CheckpointKey &key, core::Checkpoint &cp) const;

    /** Load index.jsonl into the entry list (dedup on digest). */
    void replayIndex();

    /** Append one entry line to the index (requires mu held). */
    void appendIndexLine(const LibraryEntry &e);

    /** Record @p e in memory unless already present (mu held). */
    bool remember(const LibraryEntry &e);

    /** Atomically rewrite the whole index from entries_ (mu held). */
    void rewriteIndex();

    std::string dir_;
    int indexFd = -1;
    int lockFd = -1; ///< shared flock on <dir>/.lock while open

    /** Guards the in-memory index, pins and counters; fetch()
     *  loads its object without it. */
    mutable std::mutex mu;
    std::vector<LibraryEntry> entries_;
    std::map<std::string, std::size_t> byDigest;
    std::map<std::string, std::size_t> pins; ///< digest -> count
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t published = 0;
};

} // namespace ckpt
} // namespace varsim

#endif // VARSIM_CKPT_LIBRARY_HH
