#include "ckpt/library.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "ckpt/archive.hh"
#include "sim/file_io.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace ckpt
{

namespace fs = std::filesystem;

namespace
{

std::string
entryLine(const LibraryEntry &e)
{
    sim::JsonWriter w;
    w.field("type", std::string("ckpt"));
    w.field("digest", e.digestHex);
    w.field("bytes", e.bytes);
    w.field("position", e.position);
    w.field("seed", e.warmupSeed);
    w.field("key", e.key);
    return w.str();
}

} // anonymous namespace

std::string
VerifyReport::toString() const
{
    std::string s = sim::format(
        "checked %zu object(s): %zu ok, %zu corrupt, %zu missing "
        "from disk, %zu re-indexed; %zu in format 1 (this build "
        "writes format %u and reads both)\n",
        checked, ok, corrupt, missing, reindexed, format1,
        kArchiveVersion);
    for (const Object &o : objects)
        s += sim::format("  %s  format %s  %s\n", o.digestHex.c_str(),
                         o.format ? std::to_string(o.format).c_str()
                                  : "?",
                         o.ok ? "ok" : "corrupt");
    for (const std::string &p : problems)
        s += "  " + p + "\n";
    return s;
}

std::string
GcReport::toString() const
{
    return sim::format(
        "removed %zu temp file(s), %zu corrupt object(s); evicted "
        "%zu entr%s; freed %llu byte(s), kept %llu\n",
        removedTmp, removedCorrupt, evicted,
        evicted == 1 ? "y" : "ies",
        static_cast<unsigned long long>(bytesFreed),
        static_cast<unsigned long long>(bytesKept));
}

std::unique_ptr<CheckpointLibrary>
CheckpointLibrary::open(const std::string &dir)
{
    std::unique_ptr<CheckpointLibrary> lib(new CheckpointLibrary);
    lib->dir_ = dir;
    std::error_code ec;
    fs::create_directories(lib->objectsDir(), ec);
    if (ec)
        sim::fatal("cannot create checkpoint library %s: %s",
                   dir.c_str(), ec.message().c_str());

    // Reader/writer coexistence is by design (atomic objects,
    // append-only index); the shared lock only excludes gc, whose
    // deletions are the one operation that is NOT safe under a
    // concurrent fetch from another process.
    const std::string lockPath = dir + "/.lock";
    lib->lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (lib->lockFd < 0)
        sim::fatal("cannot open %s: %s", lockPath.c_str(),
                   std::strerror(errno));
    if (::flock(lib->lockFd, LOCK_SH | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            sim::fatal(
                "checkpoint library %s is locked exclusively "
                "(a gc sweep in progress?); retry when it "
                "finishes", dir.c_str());
        sim::fatal("cannot lock checkpoint library %s: %s",
                   dir.c_str(), std::strerror(errno));
    }

    lib->indexFd = ::open(lib->indexPath().c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (lib->indexFd < 0)
        sim::fatal("cannot open %s: %s", lib->indexPath().c_str(),
                   std::strerror(errno));
    lib->replayIndex();
    return lib;
}

std::string
CheckpointLibrary::objectPath(const std::string &digestHex) const
{
    return objectsDir() + "/" + digestHex + ".vckpt";
}

void
CheckpointLibrary::replayIndex()
{
    std::string data;
    if (!sim::readWholeFile(indexPath(), data))
        return; // fresh library

    std::size_t pos = 0;
    sim::JsonLine obj;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos) {
            // A torn final line may be a *live* append from a
            // concurrent shard, not necessarily crash debris —
            // unlike the campaign store we must not truncate it,
            // just ignore it for this replay.
            break;
        }
        const std::string_view line(data.data() + pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        if (!obj.parse(line) || obj.str("type") != "ckpt")
            continue;
        LibraryEntry e;
        e.digestHex = obj.str("digest");
        e.bytes = obj.num("bytes");
        e.position = obj.num("position");
        e.warmupSeed = obj.num("seed");
        e.key = obj.str("key");
        if (!e.digestHex.empty())
            remember(e);
    }
}

bool
CheckpointLibrary::remember(const LibraryEntry &e)
{
    if (byDigest.count(e.digestHex))
        return false;
    byDigest.emplace(e.digestHex, entries_.size());
    entries_.push_back(e);
    return true;
}

void
CheckpointLibrary::appendIndexLine(const LibraryEntry &e)
{
    // One write(2) per line over O_APPEND: concurrent shards'
    // appends interleave at line granularity, and replay dedups the
    // occasional double entry for the same digest.
    const std::string out = entryLine(e) + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::write(indexFd, out.data() + off,
                                  out.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            sim::fatal("write to checkpoint index failed: %s",
                       std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(indexFd) != 0)
        sim::fatal("fsync of checkpoint index failed: %s",
                   std::strerror(errno));
}

bool
CheckpointLibrary::fetch(const CheckpointKey &key,
                         core::Checkpoint &cp)
{
    // Objects are immutable once renamed into place, so the load
    // itself needs no lock: concurrent fetches read in parallel and
    // mu covers only the traffic counters.
    const bool hit = load(key, cp);
    std::lock_guard<std::mutex> lock(mu);
    ++(hit ? hits : misses);
    return hit;
}

bool
CheckpointLibrary::load(const CheckpointKey &key,
                        core::Checkpoint &cp) const
{
    const std::string path = objectPath(key.digestHex());
    if (!fs::exists(path))
        return false;
    LoadResult r = loadArchiveFile(path);
    if (!r.ok) {
        sim::warn("checkpoint library: %s — re-warming instead",
                  r.error.c_str());
        return false;
    }
    if (r.meta.keyCanonical != key.canonical()) {
        // Digest collision or a foreign file at our address: never
        // restore a snapshot warmed under different conditions.
        sim::warn("checkpoint library: %s holds a different key — "
                  "re-warming instead", path.c_str());
        return false;
    }
    cp.bytes = std::move(r.payload);
    cp.format = r.version;
    return true;
}

bool
CheckpointLibrary::publish(const CheckpointKey &key,
                           const core::Checkpoint &cp)
{
    VARSIM_ASSERT(cp.format == kArchiveVersion,
                  "publish of a format-%u snapshot (this build writes "
                  "format %u)", cp.format, kArchiveVersion);
    const std::string hex = key.digestHex();
    LibraryEntry e;
    e.digestHex = hex;
    e.position = key.position;
    e.warmupSeed = key.warmupSeed;
    e.key = key.canonical();

    std::lock_guard<std::mutex> lock(mu);
    if (fs::exists(objectPath(hex))) {
        // Already on disk (an earlier run, or another shard won the
        // race with identical bytes). Make sure the index knows.
        std::error_code ec;
        e.bytes = static_cast<std::uint64_t>(
            fs::file_size(objectPath(hex), ec));
        if (remember(e))
            appendIndexLine(e);
        return false;
    }

    ArchiveMeta meta;
    meta.keyCanonical = e.key;
    meta.digest = key.digest();
    meta.position = key.position;
    meta.warmupSeed = key.warmupSeed;
    const auto bytes = buildArchive(meta, cp.bytes);
    e.bytes = bytes.size();

    std::string error;
    if (!sim::writeFileAtomic(objectsDir(), hex + ".vckpt", bytes,
                              &error))
        sim::fatal("checkpoint library publish failed: %s",
                   error.c_str());
    if (remember(e))
        appendIndexLine(e);
    ++published;
    return true;
}

std::vector<LibraryEntry>
CheckpointLibrary::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries_;
}

std::uint32_t
CheckpointLibrary::objectFormat(const std::string &digestHex) const
{
    return peekArchiveVersion(objectPath(digestHex));
}

LibraryStats
CheckpointLibrary::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    LibraryStats st;
    st.entries = entries_.size();
    for (const LibraryEntry &e : entries_)
        st.bytes += e.bytes;
    st.hits = hits;
    st.misses = misses;
    st.published = published;
    return st;
}

VerifyReport
CheckpointLibrary::verify()
{
    std::lock_guard<std::mutex> lock(mu);
    VerifyReport rep;

    std::vector<fs::path> objects;
    for (const auto &de : fs::directory_iterator(objectsDir())) {
        const std::string name = de.path().filename().string();
        if (name.size() >= 6 &&
            name.substr(name.size() - 6) == ".vckpt")
            objects.push_back(de.path()); // temp debris is gc's
    }
    std::sort(objects.begin(), objects.end());

    for (const fs::path &path : objects) {
        const std::string name = path.filename().string();
        const std::string hex = name.substr(0, name.size() - 6);
        ++rep.checked;
        LoadResult r = loadArchiveFile(path.string());
        rep.objects.push_back(
            {hex, r.ok ? r.version : peekArchiveVersion(path.string()),
             r.ok});
        if (!r.ok) {
            ++rep.corrupt;
            rep.problems.push_back(r.error);
            continue;
        }
        ++rep.ok;
        if (r.version == 1)
            ++rep.format1;
        if (!byDigest.count(hex)) {
            // Valid object the index never heard of: the writer died
            // between rename and index append. Adopt it.
            LibraryEntry e;
            e.digestHex = hex;
            e.position = r.meta.position;
            e.warmupSeed = r.meta.warmupSeed;
            e.key = r.meta.keyCanonical;
            std::error_code ec;
            e.bytes = static_cast<std::uint64_t>(
                fs::file_size(path, ec));
            remember(e);
            appendIndexLine(e);
            ++rep.reindexed;
        }
    }

    for (const LibraryEntry &e : entries_) {
        if (!fs::exists(objectPath(e.digestHex))) {
            ++rep.missing;
            rep.problems.push_back(sim::format(
                "index entry %s has no object file",
                e.digestHex.c_str()));
        }
    }
    return rep;
}

void
CheckpointLibrary::pin(const std::string &digestHex)
{
    std::lock_guard<std::mutex> lock(mu);
    ++pins[digestHex];
}

void
CheckpointLibrary::unpin(const std::string &digestHex)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = pins.find(digestHex);
    VARSIM_ASSERT(it != pins.end(),
                  "unpin of %s without a matching pin",
                  digestHex.c_str());
    if (--it->second == 0)
        pins.erase(it);
}

bool
CheckpointLibrary::pinned(const std::string &digestHex) const
{
    std::lock_guard<std::mutex> lock(mu);
    return pins.count(digestHex) > 0;
}

GcReport
CheckpointLibrary::gc(std::uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mu);

    // Upgrade to the exclusive library lock for the sweep. Any other
    // open of this library — another process's fetch/publish, or a
    // second in-process open — holds the shared lock and blocks the
    // upgrade, which is exactly the protection: gc deletes files.
    if (::flock(lockFd, LOCK_EX | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            sim::fatal(
                "checkpoint library %s is in use by another "
                "process; gc needs exclusive access — stop the "
                "daemon or campaign first", dir_.c_str());
        sim::fatal("cannot lock checkpoint library %s for gc: %s",
                   dir_.c_str(), std::strerror(errno));
    }

    GcReport rep;

    // 1. Temporary debris from killed writers.
    std::vector<fs::path> doomed;
    for (const auto &de : fs::directory_iterator(objectsDir())) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            doomed.push_back(de.path());
    }
    for (const fs::path &p : doomed) {
        std::error_code ec;
        rep.bytesFreed +=
            static_cast<std::uint64_t>(fs::file_size(p, ec));
        fs::remove(p, ec);
        ++rep.removedTmp;
    }

    // 2. Corrupt objects (and index entries whose object vanished).
    std::vector<LibraryEntry> kept;
    for (const LibraryEntry &e : entries_) {
        const std::string path = objectPath(e.digestHex);
        if (!fs::exists(path))
            continue; // drop the dangling index entry
        LoadResult r = loadArchiveFile(path);
        if (!r.ok) {
            std::error_code ec;
            rep.bytesFreed += static_cast<std::uint64_t>(
                fs::file_size(path, ec));
            fs::remove(path, ec);
            ++rep.removedCorrupt;
            continue;
        }
        kept.push_back(e);
    }

    // 3. Size cap: evict oldest publications first, but never an
    // object some in-process user has pinned (a restore in flight,
    // a warmer about to fetch) — eviction moves on to the next
    // oldest instead.
    std::uint64_t total = 0;
    for (const LibraryEntry &e : kept)
        total += e.bytes;
    std::vector<char> evict(kept.size(), 0);
    if (maxBytes) {
        for (std::size_t i = 0;
             total > maxBytes && i < kept.size(); ++i) {
            if (pins.count(kept[i].digestHex))
                continue;
            evict[i] = 1;
            total -= kept[i].bytes;
        }
    }
    std::vector<LibraryEntry> survivors;
    for (std::size_t i = 0; i < kept.size(); ++i) {
        if (!evict[i]) {
            survivors.push_back(kept[i]);
            continue;
        }
        std::error_code ec;
        rep.bytesFreed += kept[i].bytes;
        fs::remove(objectPath(kept[i].digestHex), ec);
        ++rep.evicted;
    }

    entries_ = std::move(survivors);
    byDigest.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i)
        byDigest.emplace(entries_[i].digestHex, i);
    rep.bytesKept = total;
    rewriteIndex();

    // Back to the shared lock: normal operation may resume.
    if (::flock(lockFd, LOCK_SH) != 0)
        sim::fatal("cannot restore shared library lock on %s: %s",
                   dir_.c_str(), std::strerror(errno));
    return rep;
}

void
CheckpointLibrary::rewriteIndex()
{
    std::string body;
    for (const LibraryEntry &e : entries_)
        body += entryLine(e) + "\n";
    std::string error;
    if (!sim::writeFileAtomic(dir_, "index.jsonl", body, &error))
        sim::fatal("cannot rewrite checkpoint index: %s",
                   error.c_str());
    // The append fd still points at the replaced inode; reopen so
    // future appends land in the new index.
    ::close(indexFd);
    indexFd = ::open(indexPath().c_str(),
                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (indexFd < 0)
        sim::fatal("cannot reopen %s: %s", indexPath().c_str(),
                   std::strerror(errno));
}

CheckpointLibrary::~CheckpointLibrary()
{
    if (indexFd >= 0)
        ::close(indexFd);
    if (lockFd >= 0)
        ::close(lockFd); // releases the advisory lock
}

} // namespace ckpt
} // namespace varsim
