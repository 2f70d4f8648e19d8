#include "campaign/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ostream>

#include "campaign/segment.hh"
#include "ckpt/archive.hh"
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

/** fsync a directory so a freshly created manifest survives a crash. */
void
syncDirectory(const std::string &dir)
{
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return; // best effort: not all filesystems allow this
    ::fsync(dfd);
    ::close(dfd);
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

/** Auto-compaction tail threshold: env override, 0 disables. */
std::size_t
autoCompactTailFromEnv()
{
    const char *e = std::getenv("VARSIM_STORE_COMPACT_TAIL");
    if (!e || !*e)
        return 8192;
    return static_cast<std::size_t>(
        std::strtoull(e, nullptr, 10));
}

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

} // anonymous namespace

void
GroupSummary::fold(double x)
{
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    if (count == 1) {
        minValue = x;
        maxValue = x;
    } else {
        minValue = std::min(minValue, x);
        maxValue = std::max(maxValue, x);
    }
}

double
GroupSummary::stddev() const
{
    if (count < 2)
        return 0.0;
    return std::sqrt(m2 / static_cast<double>(count - 1));
}

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

std::unique_ptr<ResultStore>
ResultStore::tryOpenOrCreate(const std::string &dir,
                             const StoreHeader &header,
                             std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return std::unique_ptr<ResultStore>();
    };

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return fail(sim::format(
            "cannot create campaign directory %s: %s", dir.c_str(),
            ec.message().c_str()));

    std::unique_ptr<ResultStore> store(new ResultStore);
    store->dir_ = dir;
    store->lockFd = lockStore(dir, err);
    if (store->lockFd < 0)
        return nullptr;
    const std::string path = manifestPath(dir);
    store->fd = ::open(path.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (store->fd < 0)
        return fail(sim::format("cannot open %s: %s", path.c_str(),
                                std::strerror(errno)));
    store->autoCompactTail = autoCompactTailFromEnv();

    // Decide created-vs-resumed *after* winning the lock: a loser
    // of a concurrent create race must replay the winner's header,
    // not append a second one.
    struct stat sb;
    const bool existed =
        ::fstat(store->fd, &sb) == 0 && sb.st_size > 0;

    if (existed) {
        store->replay(path);
        if (store->header_.fingerprint != header.fingerprint)
            return fail(sim::format(
                "campaign store %s was created for a different "
                "spec (fingerprint %016llx, expected %016llx); "
                "refusing to mix results",
                dir.c_str(),
                static_cast<unsigned long long>(
                    store->header_.fingerprint),
                static_cast<unsigned long long>(
                    header.fingerprint)));
        std::lock_guard<std::mutex> lock(store->mu);
        store->maybeAutoCompactLocked();
    } else {
        store->header_ = header;
        std::lock_guard<std::mutex> lock(store->mu);
        store->appendLine(headerLineFor(header));
        syncDirectory(dir);
    }
    return store;
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
    const std::string path = manifestPath(dir);
    if (!std::filesystem::exists(path))
        sim::fatal("no campaign store at %s (missing %s)",
                   dir.c_str(), path.c_str());
    std::unique_ptr<ResultStore> store(new ResultStore);
    store->dir_ = dir;
    std::string err;
    store->lockFd = lockStore(dir, &err);
    if (store->lockFd < 0)
        sim::fatal("%s", err.c_str());
    store->fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (store->fd < 0)
        sim::fatal("cannot open %s: %s", path.c_str(),
                   std::strerror(errno));
    store->autoCompactTail = autoCompactTailFromEnv();
    store->replay(path);
    {
        std::lock_guard<std::mutex> lock(store->mu);
        store->maybeAutoCompactLocked();
    }
    return store;
}

std::unique_ptr<ResultStore>
ResultStore::openReadOnly(const std::string &dir)
{
    const std::string path = manifestPath(dir);
    if (!std::filesystem::exists(path))
        sim::fatal("no campaign store at %s (missing %s)",
                   dir.c_str(), path.c_str());
    std::unique_ptr<ResultStore> store(new ResultStore);
    store->dir_ = dir;
    store->replay(path); // fd stays -1: reader, no lock, no repair
    return store;
}

void
ResultStore::loadSegmentRecord(const sim::JsonLine &obj,
                               const std::string &path,
                               std::size_t lineNo)
{
    const std::string file = obj.str("file");
    const std::size_t declaredRuns = obj.num("runs");
    std::uint64_t declaredFnv = 0;
    if (!parseHex64(obj.str("fnv"), &declaredFnv))
        sim::fatal("%s:%zu: segment record has an unparseable "
                   "checksum '%s'", path.c_str(), lineNo,
                   obj.str("fnv").c_str());

    SegmentLoad l = loadSegmentFile(dir_ + "/" + file);
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
    segments_.push_back(std::move(l.view));

    // Keep the sequence counter past every referenced segment so a
    // fresh compaction never renames a file a reader may hold open.
    const std::size_t dash = file.rfind("seg-");
    if (dash != std::string::npos) {
        const std::size_t seq = static_cast<std::size_t>(
            std::strtoull(file.c_str() + dash + 4, nullptr, 10));
        nextSegmentSeq = std::max(nextSegmentSeq, seq + 1);
    }
}

void
ResultStore::replay(const std::string &path)
{
    std::string data;
    std::string error;
    if (!sim::readWholeFile(path, data, &error))
        sim::fatal("%s", error.c_str());

    bool sawHeader = false;
    std::size_t lineNo = 0;
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
        const std::string line = data.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty())
            continue;
        JsonLine obj;
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
            header_.numGroups = obj.num("groups");
            header_.numCheckpoints = obj.num("checkpoints");
            header_.workload = obj.str("workload");
            header_.configNames = obj.list("configs");
            sawHeader = true;
        } else if (type == "segment") {
            loadSegmentRecord(obj, path, lineNo);
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
            if (hasRunLocked(r.group, r.runIdx)) {
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
    if (!sawHeader)
        sim::fatal("%s has no header record; not a campaign store",
                   path.c_str());
    if (dropped)
        sim::warn("%s: %zu malformed mid-file record(s); the "
                  "manifest may have been edited", path.c_str(),
                  dropped);
    rebuildSummariesLocked();
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
ResultStore::hasRunLocked(std::size_t g, std::size_t i) const
{
    if (runs.count({g, i}) > 0)
        return true;
    for (const auto &seg : segments_)
        if (seg->find(g, i).valid())
            return true;
    return false;
}

bool
ResultStore::cptAtLocked(std::size_t g, std::size_t i,
                         double *v) const
{
    const auto it = runs.find({g, i});
    if (it != runs.end()) {
        *v = it->second.cyclesPerTxn;
        return true;
    }
    for (const auto &seg : segments_) {
        const SegmentView::Ref r = seg->find(g, i);
        if (r.valid()) {
            *v = seg->cyclesPerTxn(r);
            return true;
        }
    }
    return false;
}

void
ResultStore::advanceSummaryLocked(std::size_t g)
{
    const auto it = summaries_.find(g);
    double v;
    if (it == summaries_.end()) {
        if (!cptAtLocked(g, 0, &v))
            return; // no prefix yet; keep the map sparse
    } else if (!cptAtLocked(g, it->second.count, &v)) {
        return;
    }
    GroupSummary &s = summaries_[g];
    do
        s.fold(v);
    while (cptAtLocked(g, s.count, &v));
}

void
ResultStore::rebuildSummariesLocked()
{
    // A single segment's footer is the canonical fold of its prefix
    // (bit-identical to refolding, by the one-fold-order rule), so
    // adopt it and fold only the journal tail — this is what keeps
    // the open cost of a compacted store proportional to the tail.
    if (segments_.size() == 1)
        summaries_ = segments_[0]->summaries();
    else
        summaries_.clear();
    for (std::size_t g = 0; g < header_.numGroups; ++g)
        advanceSummaryLocked(g);
}

bool
ResultStore::hasRun(std::size_t group, std::size_t runIdx) const
{
    std::lock_guard<std::mutex> lock(mu);
    return hasRunLocked(group, runIdx);
}

std::size_t
ResultStore::runsInGroup(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto lo = runs.lower_bound({group, 0});
    const auto hi = runs.lower_bound({group + 1, 0});
    std::size_t n =
        static_cast<std::size_t>(std::distance(lo, hi));
    for (const auto &seg : segments_)
        n += seg->runsInGroup(group);
    return n;
}

std::size_t
ResultStore::totalRuns() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = runs.size();
    for (const auto &seg : segments_)
        n += seg->runCount();
    return n;
}

std::size_t
ResultStore::segmentCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return segments_.size();
}

std::size_t
ResultStore::segmentRunCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto &seg : segments_)
        n += seg->runCount();
    return n;
}

std::size_t
ResultStore::tailRunCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runs.size();
}

GroupSummary
ResultStore::groupSummary(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = summaries_.find(group);
    return it == summaries_.end() ? GroupSummary{} : it->second;
}

std::size_t
ResultStore::prefixLength(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = summaries_.find(group);
    return it == summaries_.end()
               ? 0
               : static_cast<std::size_t>(it->second.count);
}

std::vector<double>
ResultStore::groupMetric(std::size_t group,
                         std::size_t maxRuns) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double> xs;
    double v;
    for (std::size_t i = 0;
         i < maxRuns && cptAtLocked(group, i, &v); ++i)
        xs.push_back(v);
    return xs;
}

std::vector<RunRecord>
ResultStore::groupRuns(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<RunRecord> out;
    for (std::size_t i = 0;; ++i) {
        const auto it = runs.find({group, i});
        if (it != runs.end()) {
            out.push_back(it->second);
            continue;
        }
        bool located = false;
        for (const auto &seg : segments_) {
            const SegmentView::Ref r = seg->find(group, i);
            if (r.valid()) {
                out.push_back(seg->materialize(r));
                located = true;
                break;
            }
        }
        if (!located)
            break;
    }
    return out;
}

void
ResultStore::appendRun(const RunRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    if (hasRunLocked(rec.group, rec.runIdx)) {
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

    advanceSummaryLocked(rec.group);
    maybeAutoCompactLocked();
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
    // Resolve the per-segment dictionary index once, not per run.
    std::vector<int> dictIdx;
    for (const auto &seg : segments_)
        dictIdx.push_back(seg->dictIndex(name));

    std::vector<double> xs;
    for (std::size_t i = 0; i < maxRuns; ++i) {
        const auto it = runs.find({group, i});
        if (it != runs.end()) {
            const RunRecord &r = it->second;
            if (builtin == 0) {
                xs.push_back(r.cyclesPerTxn);
            } else if (builtin == 1) {
                xs.push_back(static_cast<double>(r.runtimeTicks));
            } else if (builtin == 2) {
                xs.push_back(static_cast<double>(r.txns));
            } else {
                bool found = false;
                for (const auto &kv : r.metrics) {
                    if (kv.first == name) {
                        xs.push_back(kv.second);
                        found = true;
                        break;
                    }
                }
                // A run without the metric (recorded by an older
                // binary) ends the prefix: everything returned is
                // comparable.
                if (!found)
                    return xs;
            }
            continue;
        }
        bool located = false;
        for (std::size_t s = 0; s < segments_.size(); ++s) {
            const SegmentView::Ref r = segments_[s]->find(group, i);
            if (!r.valid())
                continue;
            located = true;
            if (builtin == 0) {
                xs.push_back(segments_[s]->cyclesPerTxn(r));
            } else if (builtin == 1) {
                xs.push_back(static_cast<double>(
                    segments_[s]->runtimeTicks(r)));
            } else if (builtin == 2) {
                xs.push_back(
                    static_cast<double>(segments_[s]->txns(r)));
            } else {
                double v;
                if (dictIdx[s] < 0 ||
                    !segments_[s]->metricValue(
                        r, static_cast<std::uint32_t>(dictIdx[s]),
                        &v))
                    return xs;
                xs.push_back(v);
            }
            break;
        }
        if (!located)
            break;
    }
    return xs;
}

std::vector<std::string>
ResultStore::metricNames() const
{
    std::vector<std::string> out = {"cycles_per_txn",
                                    "runtime_ticks", "txns"};
    std::set<std::string> extra;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &entry : runs)
            for (const auto &kv : entry.second.metrics)
                extra.insert(kv.first);
        for (const auto &seg : segments_)
            for (const std::string &name : seg->dictionary())
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

std::vector<RunRecord>
ResultStore::allRunsSortedLocked() const
{
    std::vector<RunRecord> out;
    for (const auto &seg : segments_)
        for (std::size_t i = 0; i < seg->runCount(); ++i)
            out.push_back(seg->materialize({i}));
    for (const auto &entry : runs)
        out.push_back(entry.second);
    std::stable_sort(out.begin(), out.end(),
                     [](const RunRecord &a, const RunRecord &b) {
                         return a.group < b.group ||
                                (a.group == b.group &&
                                 a.runIdx < b.runIdx);
                     });
    // Keys are disjoint by construction (replay and append both
    // drop duplicates); keep the first of any pair regardless so a
    // hand-merged manifest cannot produce an unparseable segment.
    out.erase(std::unique(out.begin(), out.end(),
                          [](const RunRecord &a,
                             const RunRecord &b) {
                              return a.group == b.group &&
                                     a.runIdx == b.runIdx;
                          }),
              out.end());
    return out;
}

void
ResultStore::maybeAutoCompactLocked()
{
    if (autoCompactTail == 0 || fd < 0 ||
        runs.size() < autoCompactTail)
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
    if (runs.empty() && segments_.size() <= 1)
        return res; // already one segment (or nothing recorded)

    const std::vector<RunRecord> all = allRunsSortedLocked();
    const std::vector<std::uint8_t> bytes =
        buildSegment(all, summaries_);

    const std::string segDir = dir_ + "/segments";
    std::error_code ec;
    std::filesystem::create_directories(segDir, ec);
    if (ec)
        sim::fatal("cannot create %s: %s", segDir.c_str(),
                   ec.message().c_str());
    const std::string name =
        sim::format("seg-%06zu.vseg", nextSegmentSeq);
    std::string err;
    if (!ckpt::writeFileAtomic(segDir, name, bytes, &err))
        sim::fatal("compaction of %s failed: %s", dir_.c_str(),
                   err.c_str());

    // Crash-injection hook for the kill-9 recovery tests: die after
    // the segment exists but before the manifest references it. The
    // old manifest stays authoritative; the orphan segment is
    // atomically overwritten by the next compaction.
    if (const char *e =
            std::getenv("VARSIM_STORE_CRASH_COMPACT");
        e && *e && std::strcmp(e, "0") != 0)
        ::_exit(137);

    // Re-read what was just written: a compaction that cannot
    // validate its own segment must not rewrite the manifest.
    SegmentLoad l = loadSegmentFile(segDir + "/" + name);
    if (!l.ok)
        sim::fatal("compaction of %s produced an unreadable "
                   "segment: %s", dir_.c_str(), l.error.c_str());

    StoreHeader h = header_;
    h.version = 2;
    std::string manifest = headerLineFor(h) + "\n";
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

    const std::vector<std::uint8_t> mbytes(manifest.begin(),
                                           manifest.end());
    if (!ckpt::writeFileAtomic(dir_, "manifest.jsonl", mbytes,
                               &err))
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

    header_.version = 2;
    segments_.clear();
    segments_.push_back(std::move(l.view));
    runs.clear();
    ++nextSegmentSeq;

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
    // registration order while compacted ones come back name-sorted,
    // so sorting here makes the exported bytes independent of when
    // (or whether) the store was compacted.
    for (RunRecord r : allRunsSortedLocked()) {
        os << runLineFor(r) << '\n';
        if (!r.metrics.empty()) {
            std::sort(r.metrics.begin(), r.metrics.end());
            os << metricsLineFor(r) << '\n';
        }
    }
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
