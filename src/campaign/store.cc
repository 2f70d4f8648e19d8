#include "campaign/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <string_view>

#include "campaign/segment.hh"
#include "sim/file_io.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace campaign
{

using sim::JsonLine;
using sim::JsonWriter;

namespace
{

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest.jsonl";
}

/**
 * Take the writer's exclusive advisory lock on the store's `.lock`
 * file. Returns the lock-holding fd, or -1 with @p err set when
 * another process (daemon or CLI campaign) already holds it. The
 * lock lives on a dedicated file rather than the manifest because
 * compaction replaces the manifest by rename(2), which would strand
 * a manifest-fd lock on the unlinked inode.
 */
int
lockStore(const std::string &dir, std::string *err)
{
    const std::string path = dir + "/.lock";
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
        if (err)
            *err = sim::format("cannot open %s: %s", path.c_str(),
                               std::strerror(errno));
        return -1;
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0)
        return fd;
    if (err) {
        if (errno == EWOULDBLOCK)
            *err = sim::format(
                "campaign store %s is locked by another process "
                "(a serve daemon or a running `varsim campaign`); "
                "refusing concurrent appends — use `campaign "
                "status`/`report` to read, or stop the other "
                "writer first", dir.c_str());
        else
            *err = sim::format("cannot lock campaign store %s: %s",
                               dir.c_str(), std::strerror(errno));
    }
    ::close(fd);
    return -1;
}

/** Tail runs at which a writable open or an append compacts. */
constexpr std::size_t kAutoCompactTail = 8192;

/**
 * Strict hex parse of a 64-bit fingerprint/checksum field; returns
 * false on an empty string, trailing garbage, or overflow.
 */
bool
parseHex64(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
    if (errno == ERANGE || end == s.c_str() || *end != '\0')
        return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

/** Registry metric @p name of a journal run; false when it lacks it. */
bool
registryValue(const RunRecord &r, const std::string &name, double *v)
{
    for (const auto &kv : r.metrics) {
        if (kv.first == name) {
            *v = kv.second;
            return true;
        }
    }
    return false;
}

} // anonymous namespace

std::string
ResultStore::headerLineFor(const StoreHeader &h)
{
    JsonWriter w;
    w.field("type", std::string("header"));
    w.field("version", static_cast<std::uint64_t>(h.version));
    w.field("fingerprint", sim::format(
                               "%016llx",
                               static_cast<unsigned long long>(
                                   h.fingerprint)));
    w.field("groups", static_cast<std::uint64_t>(h.numGroups));
    w.field("checkpoints",
            static_cast<std::uint64_t>(h.numCheckpoints));
    w.field("workload", h.workload);
    w.field("configs", h.configNames);
    return w.str();
}

std::string
ResultStore::runLineFor(const RunRecord &r)
{
    JsonWriter w;
    w.field("type", std::string("run"));
    w.field("group", static_cast<std::uint64_t>(r.group));
    w.field("config", static_cast<std::uint64_t>(r.configIdx));
    w.field("checkpoint", static_cast<std::uint64_t>(r.ckptIdx));
    w.field("run", static_cast<std::uint64_t>(r.runIdx));
    w.field("seed", r.seed);
    w.field("cycles_per_txn", r.cyclesPerTxn);
    w.field("runtime_ticks", r.runtimeTicks);
    w.field("txns", r.txns);
    return w.str();
}

std::string
ResultStore::metricsLineFor(const RunRecord &r)
{
    // Metric names carry an "m:" prefix to keep them disjoint from
    // the record's own keys.
    JsonWriter w;
    w.field("type", std::string("metrics"));
    w.field("group", static_cast<std::uint64_t>(r.group));
    w.field("run", static_cast<std::uint64_t>(r.runIdx));
    for (const auto &kv : r.metrics)
        w.field("m:" + kv.first, kv.second);
    return w.str();
}

std::string
ResultStore::planLineFor(const PlanRecord &p)
{
    JsonWriter w;
    w.field("type", std::string("plan"));
    w.field("run_length", p.runLength);
    w.field("num_runs", static_cast<std::uint64_t>(p.numRuns));
    return w.str();
}

std::string
ResultStore::ckptStatsLineFor(const CkptStatsRecord &r)
{
    JsonWriter w;
    w.field("type", std::string("ckpt_stats"));
    w.field("dir", r.dir);
    w.field("restored", static_cast<std::uint64_t>(r.restored));
    w.field("warmed", static_cast<std::uint64_t>(r.warmed));
    w.field("entries", static_cast<std::uint64_t>(r.entries));
    w.field("bytes", r.bytes);
    return w.str();
}

struct ResultStore::RunLoc
{
    const RunRecord *tail = nullptr; ///< the run, when in the tail
    SegmentView::Ref seg;            ///< the run, when in the segment

    bool found() const { return tail || seg.valid(); }
};

ResultStore::RunLoc
ResultStore::locateLocked(std::size_t g, std::size_t i) const
{
    RunLoc loc;
    const auto it = runs.find({g, i});
    if (it != runs.end())
        loc.tail = &it->second;
    else if (segment_)
        loc.seg = segment_->find(g, i);
    return loc;
}

template <class Visit>
void
ResultStore::walkPrefixLocked(std::size_t g, std::size_t maxRuns,
                              Visit &&visit) const
{
    // Two cursors, each at the first entry not below (g, i): both
    // indexes are sorted by (group, run) and unique, so run i is at
    // a cursor or nowhere, and a cursor that holds it steps past.
    auto tail = runs.lower_bound({g, 0});
    std::size_t seg = segment_ ? segment_->lowerBound(g, 0) : 0;
    for (std::size_t i = 0; i < maxRuns; ++i) {
        RunLoc loc;
        if (tail != runs.end() && tail->first.first == g &&
            tail->first.second == i)
            loc.tail = &(tail++)->second;
        if (segment_) {
            const SegmentView::Ref ref = segment_->at(seg, g, i);
            if (ref.valid()) {
                ++seg;
                if (!loc.tail) // the tail wins
                    loc.seg = ref;
            }
        }
        if (!loc.found() || !visit(loc))
            return;
    }
}

template <class Visit>
void
ResultStore::walkAllLocked(Visit &&visit) const
{
    // One merge of the two sorted indexes; a key in both is the
    // tail's (replay refuses the manifest order that could put one
    // there).
    std::size_t seg = 0;
    auto segmentUpTo = [&](std::size_t end) {
        for (; seg < end; ++seg) {
            RunLoc loc;
            loc.seg = {seg};
            visit(loc);
        }
    };
    for (const auto &entry : runs) {
        const auto [g, i] = entry.first;
        if (segment_) {
            segmentUpTo(segment_->lowerBound(g, i));
            if (segment_->at(seg, g, i).valid())
                ++seg;
        }
        RunLoc loc;
        loc.tail = &entry.second;
        visit(loc);
    }
    segmentUpTo(segment_ ? segment_->runCount() : 0);
}

std::unique_ptr<ResultStore>
ResultStore::openWriter(const std::string &dir,
                        const StoreHeader *create, std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return std::unique_ptr<ResultStore>();
    };

    const std::string path = manifestPath(dir);
    if (create) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            return fail(sim::format(
                "cannot create campaign directory %s: %s",
                dir.c_str(), ec.message().c_str()));
    } else if (!std::filesystem::exists(path)) {
        return fail(sim::format("no campaign store at %s (missing %s)",
                                dir.c_str(), path.c_str()));
    }

    std::unique_ptr<ResultStore> store(new ResultStore);
    store->dir_ = dir;
    store->lockFd = lockStore(dir, err);
    if (store->lockFd < 0)
        return nullptr;
    store->fd = ::open(path.c_str(),
                       O_WRONLY | O_APPEND | (create ? O_CREAT : 0),
                       0644);
    if (store->fd < 0)
        return fail(sim::format("cannot open %s: %s", path.c_str(),
                                std::strerror(errno)));

    // Decide created-vs-resumed *after* winning the lock: a loser
    // of a concurrent create race must replay the winner's header,
    // not append a second one.
    struct stat sb;
    const bool existed =
        ::fstat(store->fd, &sb) == 0 && sb.st_size > 0;

    if (existed || !create) {
        store->replay(path, nullptr);
        if (create &&
            store->header_.fingerprint != create->fingerprint)
            return fail(sim::format(
                "campaign store %s was created for a different "
                "spec (fingerprint %016llx, expected %016llx); "
                "refusing to mix results",
                dir.c_str(),
                static_cast<unsigned long long>(
                    store->header_.fingerprint),
                static_cast<unsigned long long>(
                    create->fingerprint)));
        std::lock_guard<std::mutex> lock(store->mu);
        store->maybeAutoCompactLocked();
    } else {
        // The journal's first append: a fresh manifest is created in
        // place rather than by writeFileAtomic's temp + rename, whose
        // second metadata commit makes every new store slower.
        store->header_ = *create;
        std::lock_guard<std::mutex> lock(store->mu);
        store->appendLine(headerLineFor(*create));
        sim::syncDirectory(dir);
    }
    return store;
}

std::unique_ptr<ResultStore>
ResultStore::tryOpenOrCreate(const std::string &dir,
                             const StoreHeader &header,
                             std::string *err)
{
    return openWriter(dir, &header, err);
}

std::unique_ptr<ResultStore>
ResultStore::openOrCreate(const std::string &dir,
                          const StoreHeader &header)
{
    std::string err;
    auto store = tryOpenOrCreate(dir, header, &err);
    if (!store)
        sim::fatal("%s", err.c_str());
    return store;
}

std::unique_ptr<ResultStore>
ResultStore::open(const std::string &dir)
{
    std::string err;
    auto store = openWriter(dir, nullptr, &err);
    if (!store)
        sim::fatal("%s", err.c_str());
    return store;
}

std::unique_ptr<ResultStore>
ResultStore::openReadOnly(const std::string &dir)
{
    const std::string path = manifestPath(dir);
    if (!std::filesystem::exists(path))
        sim::fatal("no campaign store at %s (missing %s)",
                   dir.c_str(), path.c_str());
    // A compaction may delete the segment a replayed manifest names
    // before the replay maps it; the new manifest names another.
    for (std::string gone;;) {
        // fd stays -1: reader, no lock, no repair
        std::unique_ptr<ResultStore> store(new ResultStore);
        store->dir_ = dir;
        if (store->replay(path, &gone))
            return store;
    }
}

bool
ResultStore::loadSegmentRecord(const sim::JsonLine &obj,
                               const std::string &path,
                               std::size_t lineNo, std::string *gone)
{
    const std::string file = obj.str("file");
    if (segment_)
        sim::fatal("%s:%zu: a second segment record (%s); a compacted "
                   "manifest names exactly one segment",
                   path.c_str(), lineNo, file.c_str());
    const std::size_t declaredRuns = obj.num("runs");
    std::uint64_t declaredFnv = 0;
    if (!parseHex64(obj.str("fnv"), &declaredFnv))
        sim::fatal("%s:%zu: segment record has an unparseable "
                   "checksum '%s'", path.c_str(), lineNo,
                   obj.str("fnv").c_str());

    SegmentLoad l = loadSegmentFile(dir_ + "/" + file);
    if (!l.ok && gone && *gone != file &&
        !std::filesystem::exists(dir_ + "/" + file)) {
        *gone = file;
        return false;
    }
    // Damage that fails the cross-checks below fails the checksum
    // still running too; report the mismatch, as when it ran first.
    if (l.ok && (l.view->checksum() != declaredFnv ||
                 l.view->runCount() != declaredRuns))
        l.ok = l.view->verify(&l.error);
    if (!l.ok)
        sim::fatal("%s:%zu: cannot load compacted segment: %s",
                   path.c_str(), lineNo, l.error.c_str());
    if (l.view->checksum() != declaredFnv)
        sim::fatal("%s:%zu: segment %s does not match the manifest "
                   "(checksum %016llx, manifest says %016llx)",
                   path.c_str(), lineNo, file.c_str(),
                   static_cast<unsigned long long>(
                       l.view->checksum()),
                   static_cast<unsigned long long>(declaredFnv));
    if (l.view->runCount() != declaredRuns)
        sim::fatal("%s:%zu: segment %s holds %zu run(s) but the "
                   "manifest says %zu",
                   path.c_str(), lineNo, file.c_str(),
                   l.view->runCount(), declaredRuns);
    segment_ = std::move(l.view);

    // Keep the sequence counter past the referenced segment so a
    // fresh compaction never renames a file a reader may hold open.
    const std::size_t dash = file.rfind("seg-");
    if (dash != std::string::npos) {
        const std::size_t seq = static_cast<std::size_t>(
            std::strtoull(file.c_str() + dash + 4, nullptr, 10));
        nextSegmentSeq = std::max(nextSegmentSeq, seq + 1);
    }
    return true;
}

bool
ResultStore::replay(const std::string &path, std::string *gone)
{
    std::string data;
    std::string error;
    if (!sim::readWholeFile(path, data, &error))
        sim::fatal("%s", error.c_str());

    bool sawHeader = false;
    std::size_t lineNo = 0;
    std::size_t segmentLine = 0;
    std::size_t dropped = 0;
    std::size_t pos = 0;

    // Appends write a "run" line and its "metrics" companion
    // adjacently under one lock, so a companion always refers to the
    // most recent "run" line. Tracking that line lets the replay
    // keep a duplicated run's *own* metrics and drop the
    // duplicate's, instead of letting the later companion clobber
    // the kept record.
    std::pair<std::size_t, std::size_t> lastRunKey{SIZE_MAX,
                                                   SIZE_MAX};
    bool lastRunDropped = false;

    JsonLine obj;
    while (pos < data.size()) {
        ++lineNo;
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos) {
            // An unterminated final line never completed its single
            // write(2), so the record was never acknowledged.
            // Discard it from the replay. Only the lock-holding
            // writer may call it a crash and repair the file; a
            // read-only open may simply be racing a live writer
            // whose append is still in flight.
            if (fd >= 0) {
                sim::warn("%s: discarding torn final line %zu "
                          "(crash during append)", path.c_str(),
                          lineNo);
                if (::ftruncate(fd, static_cast<off_t>(pos)) != 0)
                    sim::fatal(
                        "cannot truncate torn tail of %s: %s",
                        path.c_str(), std::strerror(errno));
            } else {
                sim::inform("%s: ignoring incomplete final line "
                            "%zu (an append may be in progress)",
                            path.c_str(), lineNo);
            }
            break;
        }
        const std::string_view line(data.data() + pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        if (!obj.parse(line)) {
            // Newline-terminated damage is not a torn append; the
            // records around it are still genuine — keep going,
            // but tell the user.
            sim::warn("%s:%zu: malformed record skipped",
                      path.c_str(), lineNo);
            ++dropped;
            continue;
        }
        const std::string type = obj.str("type");
        if (type == "header") {
            header_.version = static_cast<int>(obj.num("version"));
            if (header_.version != 1 && header_.version != 2)
                sim::fatal("%s:%zu: unsupported manifest version "
                           "%d (this build reads versions 1 and "
                           "2); refusing to guess at its records",
                           path.c_str(), lineNo, header_.version);
            if (!parseHex64(obj.str("fingerprint"),
                            &header_.fingerprint))
                sim::fatal("%s:%zu: header fingerprint '%s' is not "
                           "a 64-bit hex value; refusing to resume "
                           "against an unidentifiable store",
                           path.c_str(), lineNo,
                           obj.str("fingerprint").c_str());
            const std::uint64_t groups = obj.num("groups");
            const std::uint64_t ckpts = obj.num("checkpoints");
            if (groups > kMaxGroups || ckpts > kMaxGroups)
                sim::fatal("%s:%zu: header declares %llu group(s) "
                           "and %llu checkpoint(s); this build reads "
                           "at most %zu of each",
                           path.c_str(), lineNo,
                           static_cast<unsigned long long>(groups),
                           static_cast<unsigned long long>(ckpts),
                           kMaxGroups);
            header_.numGroups = groups;
            header_.numCheckpoints = ckpts;
            header_.workload = obj.str("workload");
            header_.configNames = obj.list("configs");
            sawHeader = true;
        } else if (type == "segment") {
            // Compaction writes the segment record before any run of
            // the new journal tail, so a run in both indexes means a
            // hand-merged manifest.
            if (!runs.empty())
                sim::fatal("%s:%zu: a segment record after run "
                           "records; a compacted manifest names its "
                           "segment before its journal tail",
                           path.c_str(), lineNo);
            if (!loadSegmentRecord(obj, path, lineNo, gone))
                return false;
            segmentLine = lineNo;
        } else if (type == "plan") {
            plan_.valid = true;
            plan_.runLength = obj.num("run_length");
            plan_.numRuns = obj.num("num_runs");
        } else if (type == "ckpt_stats") {
            ckpt_.valid = true;
            ckpt_.dir = obj.str("dir");
            ckpt_.restored = obj.num("restored");
            ckpt_.warmed = obj.num("warmed");
            ckpt_.entries = obj.num("entries");
            ckpt_.bytes = obj.num("bytes");
        } else if (type == "run") {
            RunRecord r;
            r.group = obj.num("group");
            r.configIdx = obj.num("config");
            r.ckptIdx = obj.num("checkpoint");
            r.runIdx = obj.num("run");
            r.seed = obj.num("seed");
            r.cyclesPerTxn = obj.real("cycles_per_txn");
            r.runtimeTicks = obj.num("runtime_ticks");
            r.txns = obj.num("txns");
            lastRunKey = {r.group, r.runIdx};
            if (locateLocked(r.group, r.runIdx).found()) {
                sim::warn("%s:%zu: duplicate run record (group "
                          "%zu, run %zu) dropped (first record "
                          "wins)", path.c_str(), lineNo, r.group,
                          r.runIdx);
                lastRunDropped = true;
            } else {
                runs.emplace(lastRunKey, std::move(r));
                lastRunDropped = false;
            }
        } else if (type == "metrics") {
            // Companion record: attach the dump to its run. The run
            // record always precedes it (both are appended under one
            // lock), so an orphan means a hand-edited manifest.
            const std::size_t g = obj.num("group");
            const std::size_t i = obj.num("run");
            if (lastRunDropped && lastRunKey.first == g &&
                lastRunKey.second == i)
                continue; // the dropped duplicate's companion
            const auto it = runs.find({g, i});
            if (it == runs.end()) {
                sim::warn("%s:%zu: metrics record for unknown run "
                          "(group %zu, run %zu) skipped",
                          path.c_str(), lineNo, g, i);
                continue;
            }
            if (!it->second.metrics.empty()) {
                sim::warn("%s:%zu: extra metrics record for "
                          "(group %zu, run %zu) ignored (the "
                          "run's first dump wins)",
                          path.c_str(), lineNo, g, i);
                continue;
            }
            it->second.metrics = obj.realsWithPrefix("m:");
        } else {
            sim::warn("%s:%zu: unknown record type '%s' skipped",
                      path.c_str(), lineNo, type.c_str());
        }
    }
    // The segment's checksum ran beside the replay of the tail.
    if (segment_ && !segment_->verify(&error))
        sim::fatal("%s:%zu: cannot load compacted segment: %s",
                   path.c_str(), segmentLine, error.c_str());
    if (!sawHeader)
        sim::fatal("%s has no header record; not a campaign store",
                   path.c_str());
    if (dropped)
        sim::warn("%s: %zu malformed mid-file record(s); the "
                  "manifest may have been edited", path.c_str(),
                  dropped);
    return true;
}

void
ResultStore::appendLine(const std::string &line)
{
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n =
            ::write(fd, out.data() + off, out.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            sim::fatal("write to campaign manifest failed: %s",
                       std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
        sim::fatal("fsync of campaign manifest failed: %s",
                   std::strerror(errno));
}

bool
ResultStore::hasRun(std::size_t group, std::size_t runIdx) const
{
    std::lock_guard<std::mutex> lock(mu);
    return locateLocked(group, runIdx).found();
}

std::size_t
ResultStore::runsInGroup(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto lo = runs.lower_bound({group, 0});
    const auto hi = runs.lower_bound({group + 1, 0});
    return static_cast<std::size_t>(std::distance(lo, hi)) +
           (segment_ ? segment_->runsInGroup(group) : 0);
}

std::size_t
ResultStore::totalRuns() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runs.size() + (segment_ ? segment_->runCount() : 0);
}

std::size_t
ResultStore::segmentRunCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return segment_ ? segment_->runCount() : 0;
}

std::size_t
ResultStore::tailRunCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runs.size();
}

std::vector<RunRecord>
ResultStore::groupRuns(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<RunRecord> out;
    walkPrefixLocked(group, SIZE_MAX, [&](const RunLoc &loc) {
        out.push_back(loc.tail ? *loc.tail
                               : segment_->materialize(loc.seg));
        return true;
    });
    return out;
}

std::vector<double>
ResultStore::groupMetricNamed(std::size_t group,
                              const std::string &name,
                              std::size_t maxRuns) const
{
    std::lock_guard<std::mutex> lock(mu);

    const int builtin = name == "cycles_per_txn"   ? 0
                        : name == "runtime_ticks" ? 1
                        : name == "txns"          ? 2
                                                  : -1;
    // Resolve the segment's dictionary index once, not per run.
    const int dictIdx = segment_ ? segment_->dictIndex(name) : -1;

    // A run without the metric (recorded by an older binary) ends
    // the prefix: everything returned is comparable.
    std::vector<double> xs;
    walkPrefixLocked(group, maxRuns, [&](const RunLoc &loc) {
        const RunRecord *r = loc.tail;
        double v;
        if (builtin == 0)
            v = r ? r->cyclesPerTxn : segment_->cyclesPerTxn(loc.seg);
        else if (builtin == 1)
            v = static_cast<double>(
                r ? r->runtimeTicks : segment_->runtimeTicks(loc.seg));
        else if (builtin == 2)
            v = static_cast<double>(r ? r->txns
                                      : segment_->txns(loc.seg));
        else if (r ? !registryValue(*r, name, &v)
                   : dictIdx < 0 ||
                         !segment_->metricValue(
                             loc.seg,
                             static_cast<std::uint32_t>(dictIdx), &v))
            return false;
        xs.push_back(v);
        return true;
    });
    return xs;
}

void
ResultStore::appendRun(const RunRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    if (locateLocked(rec.group, rec.runIdx).found()) {
        sim::warn("duplicate run record (group %zu, run %zu) "
                  "dropped — two shards with the same index?",
                  rec.group, rec.runIdx);
        return;
    }
    runs.emplace(std::make_pair(rec.group, rec.runIdx), rec);
    appendLine(runLineFor(rec));

    // The registry dump travels as a companion record so the "run"
    // line's schema — what pre-existing stores hold — is untouched.
    if (!rec.metrics.empty())
        appendLine(metricsLineFor(rec));

    maybeAutoCompactLocked();
}

std::vector<std::string>
ResultStore::metricNames() const
{
    std::vector<std::string> out = {"cycles_per_txn",
                                    "runtime_ticks", "txns"};
    std::set<std::string> extra;
    {
        std::lock_guard<std::mutex> lock(mu);
        // Runs almost always repeat the previous run's names, in the
        // same order; only a list that differs adds to the set.
        const RunRecord *prev = nullptr;
        for (const auto &entry : runs) {
            const auto &m = entry.second.metrics;
            const bool repeat =
                prev && std::equal(m.begin(), m.end(),
                                   prev->metrics.begin(),
                                   prev->metrics.end(),
                                   [](const auto &x, const auto &y) {
                                       return x.first == y.first;
                                   });
            if (!repeat)
                for (const auto &kv : m)
                    extra.insert(kv.first);
            prev = &entry.second;
        }
        if (segment_)
            for (const std::string &name : segment_->dictionary())
                extra.insert(name);
    }
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
}

void
ResultStore::appendPlan(const PlanRecord &plan)
{
    std::lock_guard<std::mutex> lock(mu);
    VARSIM_ASSERT(!plan_.valid,
                  "budget plan recorded twice in one store");
    plan_ = plan;
    plan_.valid = true;
    appendLine(planLineFor(plan_));
}

void
ResultStore::appendCkptStats(const CkptStatsRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    ckpt_ = rec;
    ckpt_.valid = true;
    appendLine(ckptStatsLineFor(ckpt_));
}

void
ResultStore::maybeAutoCompactLocked()
{
    if (fd < 0 || runs.size() < kAutoCompactTail)
        return;
    const CompactResult r = compactLocked();
    if (r.performed)
        sim::inform("campaign store %s: journal tail reached %zu "
                    "run(s); compacted into %s", dir_.c_str(),
                    r.runs, r.segmentFile.c_str());
}

ResultStore::CompactResult
ResultStore::compactLocked()
{
    CompactResult res;
    if (fd < 0)
        sim::fatal("cannot compact campaign store %s: opened "
                   "read-only", dir_.c_str());
    if (runs.empty())
        return res; // already one segment (or nothing recorded)

    // Tail runs are read in place; segment runs are materialized
    // into storage reserved up front, so the pointers stay valid.
    std::vector<RunRecord> segmentRuns;
    segmentRuns.reserve(segment_ ? segment_->runCount() : 0);
    std::vector<const RunRecord *> all;
    all.reserve(segmentRuns.capacity() + runs.size());
    walkAllLocked([&](const RunLoc &loc) {
        if (!loc.tail)
            segmentRuns.push_back(segment_->materialize(loc.seg));
        all.push_back(loc.tail ? loc.tail : &segmentRuns.back());
    });
    const std::vector<std::uint8_t> bytes = buildSegment(all);

    const std::string segDir = dir_ + "/segments";
    std::error_code ec;
    std::filesystem::create_directories(segDir, ec);
    if (ec)
        sim::fatal("cannot create %s: %s", segDir.c_str(),
                   ec.message().c_str());
    const std::string name =
        sim::format("seg-%06zu.vseg", nextSegmentSeq);
    std::string err;
    if (!sim::writeFileAtomic(segDir, name, bytes, &err))
        sim::fatal("compaction of %s failed: %s", dir_.c_str(),
                   err.c_str());

    // Crash-injection hook for the kill-9 recovery tests: die after
    // the segment exists but before the manifest references it. The
    // old manifest stays authoritative; the next compaction
    // atomically overwrites the orphan segment.
    if (const char *e =
            std::getenv("VARSIM_STORE_CRASH_COMPACT");
        e && *e && std::strcmp(e, "0") != 0)
        ::_exit(137);

    // Re-read what was just written: a compaction that cannot
    // validate its own segment must not rewrite the manifest. Nothing
    // here can overlap the checksum, so it is awaited at once.
    SegmentLoad l = loadSegmentFile(segDir + "/" + name);
    if (l.ok)
        l.ok = l.view->verify(&l.error);
    if (!l.ok)
        sim::fatal("compaction of %s produced an unreadable "
                   "segment: %s", dir_.c_str(), l.error.c_str());

    header_.version = 2; // any failure from here on is fatal
    std::string manifest = headerLineFor(header_) + "\n";
    if (plan_.valid)
        manifest += planLineFor(plan_) + "\n";
    if (ckpt_.valid)
        manifest += ckptStatsLineFor(ckpt_) + "\n";
    JsonWriter w;
    w.field("type", std::string("segment"));
    w.field("file", "segments/" + name);
    w.field("runs", static_cast<std::uint64_t>(all.size()));
    w.field("fnv",
            sim::format("%016llx", static_cast<unsigned long long>(
                                       l.view->checksum())));
    manifest += w.str() + "\n";

    if (!sim::writeFileAtomic(dir_, "manifest.jsonl", manifest, &err))
        sim::fatal("cannot rewrite manifest of %s: %s",
                   dir_.c_str(), err.c_str());

    // The append fd still points at the replaced manifest's inode;
    // reopen so future appends land in the new journal tail.
    ::close(fd);
    fd = ::open(manifestPath(dir_).c_str(), O_WRONLY | O_APPEND);
    if (fd < 0)
        sim::fatal("cannot reopen %s after compaction: %s",
                   manifestPath(dir_).c_str(),
                   std::strerror(errno));

    segment_ = std::move(l.view);
    runs.clear();
    ++nextSegmentSeq;

    // Delete every segment file the new manifest does not name: the
    // one this compaction replaced and any orphan of a killed one.
    // Readers that mapped the old segment keep their mapping.
    for (auto it = std::filesystem::directory_iterator(segDir, ec);
         !ec && it != std::filesystem::directory_iterator();
         it.increment(ec)) {
        std::error_code rmErr; // a stale file left is swept next time
        if (it->path().filename() != name)
            std::filesystem::remove(it->path(), rmErr);
    }

    res.performed = true;
    res.runs = all.size();
    res.segmentFile = "segments/" + name;
    return res;
}

ResultStore::CompactResult
ResultStore::compact()
{
    std::lock_guard<std::mutex> lock(mu);
    return compactLocked();
}

void
ResultStore::exportJsonl(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);
    StoreHeader h = header_;
    h.version = 1;
    os << headerLineFor(h) << '\n';
    if (plan_.valid)
        os << planLineFor(plan_) << '\n';
    if (ckpt_.valid)
        os << ckptStatsLineFor(ckpt_) << '\n';
    // Canonical key order: freshly appended records carry metrics in
    // registration order while replayed and compacted ones come back
    // name-sorted, so sorting here makes the exported bytes
    // independent of when (or whether) the store was compacted. Only
    // a record out of order is copied to sort it.
    auto emit = [&](const RunRecord &r) {
        os << runLineFor(r) << '\n';
        if (r.metrics.empty())
            return;
        if (std::is_sorted(r.metrics.begin(), r.metrics.end())) {
            os << metricsLineFor(r) << '\n';
            return;
        }
        RunRecord sorted = r;
        std::sort(sorted.metrics.begin(), sorted.metrics.end());
        os << metricsLineFor(sorted) << '\n';
    };
    walkAllLocked([&](const RunLoc &loc) {
        if (loc.tail)
            emit(*loc.tail);
        else
            emit(segment_->materialize(loc.seg));
    });
}

ResultStore::~ResultStore()
{
    if (fd >= 0)
        ::close(fd);
    if (lockFd >= 0)
        ::close(lockFd);
}

} // namespace campaign
} // namespace varsim
