#include "ckpt/library.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "ckpt/archive.hh"
#include "sim/file_io.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace ckpt
{

namespace fs = std::filesystem;

namespace
{

/** One archive file of `objects/`, as the scan found it. */
struct ScannedObject
{
    std::string digestHex;
    std::string path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
};

/**
 * Every `<digest>.vckpt` file in @p objectsDir, oldest first, ties
 * broken by digest. Writers' `.tmp.` files do not end in `.vckpt`,
 * so they are not listed. Nothing throws: a file that vanishes
 * mid-scan is skipped, and an unreadable directory lists nothing.
 */
std::vector<ScannedObject>
scanObjects(const std::string &objectsDir)
{
    constexpr std::string_view kSuffix = ".vckpt";
    std::vector<ScannedObject> out;
    std::error_code ec;
    for (fs::directory_iterator it(objectsDir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.size() <= kSuffix.size() ||
            !std::string_view(name).ends_with(kSuffix))
            continue;
        ScannedObject o;
        o.digestHex = name.substr(0, name.size() - kSuffix.size());
        o.path = it->path().string();
        std::error_code sizeEc, timeEc;
        o.bytes = static_cast<std::uint64_t>(
            fs::file_size(it->path(), sizeEc));
        o.mtime = fs::last_write_time(it->path(), timeEc);
        if (!sizeEc && !timeEc)
            out.push_back(std::move(o));
    }
    std::sort(out.begin(), out.end(),
              [](const ScannedObject &a, const ScannedObject &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.digestHex < b.digestHex;
              });
    return out;
}

} // anonymous namespace

std::string
VerifyReport::toString() const
{
    std::string s = sim::format(
        "checked %zu object(s): %zu ok, %zu corrupt, %zu from a newer "
        "build; %zu in format 1 (this build writes format %u and "
        "reads 1..%u)\n",
        checked, ok, corrupt, newer, format1, kArchiveVersion,
        kArchiveVersion);
    for (const Object &o : objects)
        s += sim::format("  %s  format %s  %s\n", o.digestHex.c_str(),
                         o.format ? formatName(o.format).c_str() : "?",
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
CheckpointLibrary::tryOpen(const std::string &dir, std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return std::unique_ptr<CheckpointLibrary>();
    };

    std::unique_ptr<CheckpointLibrary> lib(new CheckpointLibrary);
    lib->dir_ = dir;
    std::error_code ec;
    fs::create_directories(lib->objectsDir(), ec);
    if (ec)
        return fail(sim::format("cannot create checkpoint library %s: %s",
                                dir.c_str(), ec.message().c_str()));

    // Reader/writer coexistence is by design (atomic, immutable
    // objects); the shared lock only excludes gc, whose
    // deletions are the one operation that is NOT safe under a
    // concurrent fetch from another process.
    const std::string lockPath = dir + "/.lock";
    lib->lockFd = ::open(lockPath.c_str(), O_RDWR | O_CREAT, 0644);
    if (lib->lockFd < 0)
        return fail(sim::format("cannot open %s: %s", lockPath.c_str(),
                                std::strerror(errno)));
    if (::flock(lib->lockFd, LOCK_SH | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            return fail(sim::format(
                "checkpoint library %s is locked exclusively "
                "(a gc sweep in progress?); retry when it "
                "finishes", dir.c_str()));
        return fail(sim::format("cannot lock checkpoint library %s: %s",
                                dir.c_str(), std::strerror(errno)));
    }

    return lib;
}

std::unique_ptr<CheckpointLibrary>
CheckpointLibrary::open(const std::string &dir)
{
    std::string err;
    auto lib = tryOpen(dir, &err);
    if (!lib)
        sim::fatal("%s", err.c_str());
    return lib;
}

std::string
CheckpointLibrary::objectPath(const std::string &digestHex) const
{
    return objectsDir() + "/" + digestHex + ".vckpt";
}

bool
CheckpointLibrary::fetch(const CheckpointKey &key,
                         core::Checkpoint &cp) const
{
    const std::string path = objectPath(key.digestHex());
    std::error_code ec;
    if (!fs::exists(path, ec))
        return false;
    LoadResult r = loadArchiveFile(path);
    if (!r.ok) {
        // A newer build's object is left alone: this build's publish
        // of the same key finds it on disk and writes nothing.
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

    // Already on disk: an earlier run, or another shard won the race
    // with identical bytes.
    std::error_code ec;
    if (fs::exists(objectPath(hex), ec))
        return false;

    ArchiveMeta meta;
    meta.keyCanonical = key.canonical();
    meta.digest = key.digest();
    meta.position = key.position;
    meta.warmupSeed = key.warmupSeed;
    std::string error;
    if (!sim::writeFileAtomic(objectsDir(), hex + ".vckpt",
                              buildArchive(meta, cp.bytes), &error)) {
        // A lost cache entry: the caller keeps its snapshot, and a
        // later run re-warms. Never worth stopping a daemon for.
        sim::warn("checkpoint library: publish failed, continuing "
                  "without it: %s", error.c_str());
        return false;
    }
    return true;
}

std::vector<LibraryEntry>
CheckpointLibrary::entries() const
{
    std::vector<LibraryEntry> out;
    for (const ScannedObject &o : scanObjects(objectsDir())) {
        LibraryEntry e;
        e.digestHex = o.digestHex;
        e.bytes = o.bytes;
        const LoadResult r = peekArchive(o.path);
        if (r.ok) {
            e.position = r.meta.position;
            e.warmupSeed = r.meta.warmupSeed;
            e.key = r.meta.keyCanonical;
            e.format = r.version;
        }
        out.push_back(std::move(e));
    }
    return out;
}

LibraryStats
CheckpointLibrary::stats() const
{
    LibraryStats st;
    for (const ScannedObject &o : scanObjects(objectsDir())) {
        ++st.entries;
        st.bytes += o.bytes;
    }
    return st;
}

VerifyReport
CheckpointLibrary::verify() const
{
    VerifyReport rep;
    for (const ScannedObject &o : scanObjects(objectsDir())) {
        ++rep.checked;
        const LoadResult r = loadArchiveFile(o.path);
        rep.objects.push_back(
            {o.digestHex,
             r.ok || r.newer ? r.version : peekArchive(o.path).version,
             r.ok || r.newer});
        if (r.newer) {
            ++rep.newer;
            continue;
        }
        if (!r.ok) {
            ++rep.corrupt;
            rep.problems.push_back(r.error);
            continue;
        }
        ++rep.ok;
        if (r.version == 1)
            ++rep.format1;
    }
    return rep;
}

GcReport
CheckpointLibrary::gc(std::uint64_t maxBytes)
{
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
    std::error_code ec;

    // 1. Temporary debris from killed writers.
    std::vector<fs::path> doomed;
    for (fs::directory_iterator it(objectsDir(), ec), end;
         !ec && it != end; it.increment(ec))
        if (it->path().filename().string().find(".tmp.") !=
            std::string::npos)
            doomed.push_back(it->path());
    for (const fs::path &p : doomed) {
        const auto bytes = fs::file_size(p, ec);
        rep.bytesFreed += ec ? 0 : bytes;
        fs::remove(p, ec);
        ++rep.removedTmp;
    }

    // 2. Corrupt objects.
    std::vector<ScannedObject> kept;
    std::uint64_t total = 0;
    for (ScannedObject &o : scanObjects(objectsDir())) {
        const LoadResult r = loadArchiveFile(o.path);
        if (!r.ok && !r.newer) {
            rep.bytesFreed += o.bytes;
            fs::remove(o.path, ec);
            ++rep.removedCorrupt;
            continue;
        }
        total += o.bytes;
        kept.push_back(std::move(o));
    }

    // 3. Size cap: evict the oldest objects first.
    for (const ScannedObject &o : kept) {
        if (!maxBytes || total <= maxBytes)
            break;
        fs::remove(o.path, ec);
        total -= o.bytes;
        rep.bytesFreed += o.bytes;
        ++rep.evicted;
    }
    rep.bytesKept = total;

    // An older build's index names objects this sweep may just have
    // removed; that build rebuilds it with its own `ckpt verify`.
    fs::remove(dir_ + "/index.jsonl", ec);

    // Back to the shared lock: normal operation may resume.
    if (::flock(lockFd, LOCK_SH) != 0)
        sim::fatal("cannot restore shared library lock on %s: %s",
                   dir_.c_str(), std::strerror(errno));
    return rep;
}

CheckpointLibrary::~CheckpointLibrary()
{
    if (lockFd >= 0)
        ::close(lockFd); // releases the advisory lock
}

} // namespace ckpt
} // namespace varsim
