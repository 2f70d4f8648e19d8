#include "campaign/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <numeric>
#include <ostream>
#include <string_view>
#include <unordered_map>

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

/**
 * The journal tail: one fixed-size record per run, sorted by (group,
 * run), and every run's metric values in one arena. A run's metric
 * names are a list of ids into the store's interned names; runs
 * almost always repeat one list, which is kept once.
 *
 * Replay stages runs in manifest order and finds them through an
 * open-addressed hash until seal() sorts them; from then on lookups
 * binary-search and an append inserts in place.
 */
class ResultStore::TailIndex
{
  public:
    static constexpr std::uint32_t kNoNames = UINT32_MAX;

    struct Run
    {
        std::uint64_t group = 0;
        std::uint64_t run = 0;
        std::uint64_t config = 0;
        std::uint64_t ckpt = 0;
        std::uint64_t seed = 0;
        double cyclesPerTxn = 0.0;
        std::uint64_t runtimeTicks = 0;
        std::uint64_t txns = 0;
        std::size_t values = 0;         ///< its first value in the arena
        std::uint32_t names = kNoNames; ///< its name list; none: no metrics
    };

    /** Reads one metric out of tail runs, finding it once per list. */
    class Reader
    {
      public:
        Reader(const TailIndex &t, std::string_view name) : t(t)
        {
            const auto it = t.ids.find(name);
            if (it != t.ids.end())
                id = it->second;
        }

        bool
        get(const Run &r, double *v)
        {
            if (r.names != list) {
                list = r.names;
                pos = t.position(list, id);
            }
            if (pos == SIZE_MAX)
                return false;
            *v = t.values[r.values + pos];
            return true;
        }

      private:
        const TailIndex &t;
        std::uint32_t id = kNoNames;
        std::uint32_t list = kNoNames;
        std::size_t pos = SIZE_MAX;
    };

    std::size_t size() const { return runs.size(); }
    const Run &operator[](std::size_t pos) const { return runs[pos]; }

    /** Position of the first run not below (g, i); sorted runs only. */
    std::size_t
    lowerBound(std::uint64_t g, std::uint64_t i) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(runs.begin(), runs.end(),
                             std::make_pair(g, i),
                             [](const Run &r, const auto &key) {
                                 return std::make_pair(r.group, r.run) <
                                        key;
                             }) -
            runs.begin());
    }

    /** The run at position @p pos if it is (g, i), else nullptr. */
    const Run *
    at(std::size_t pos, std::uint64_t g, std::uint64_t i) const
    {
        if (pos >= runs.size() || runs[pos].group != g ||
            runs[pos].run != i)
            return nullptr;
        return &runs[pos];
    }

    std::size_t
    runsInGroup(std::uint64_t g) const
    {
        return lowerBound(g + 1, 0) - lowerBound(g, 0);
    }

    /** Run (g, i), or nullptr; staged runs through the hash. */
    const Run *
    find(std::uint64_t g, std::uint64_t i) const
    {
        if (slots.empty())
            return at(lowerBound(g, i), g, i);
        for (std::size_t s = slotOf(g, i);; s = (s + 1) & (slots.size() - 1)) {
            if (!slots[s])
                return nullptr;
            const Run &r = runs[slots[s] - 1];
            if (r.group == g && r.run == i)
                return &r;
        }
    }

    Run *
    find(std::uint64_t g, std::uint64_t i)
    {
        return const_cast<Run *>(std::as_const(*this).find(g, i));
    }

    /** Replay: add @p r, which the index does not hold yet. */
    void
    stage(const Run &r)
    {
        if (2 * (runs.size() + 1) > slots.size())
            rehash(std::max<std::size_t>(1024, 2 * slots.size()));
        runs.push_back(r);
        place(runs.size());
    }

    /** A companion's metrics, reduced and stored; not yet a run's. */
    struct Dump
    {
        std::uint32_t names = kNoNames; ///< kNoNames: no number in it
        std::size_t values = 0;
    };

    /** Replay: reduce a companion line's "m:" fields to a Dump. */
    Dump dump(const sim::JsonLine &line);

    /** Replay: @p d becomes the metrics of @p r (none if it has none). */
    static void
    attach(Run &r, const Dump &d)
    {
        r.names = d.names;
        r.values = d.values;
    }

    /** End of replay: sort the staged runs, drop what replay used. */
    void
    seal()
    {
        std::sort(runs.begin(), runs.end(),
                  [](const Run &a, const Run &b) {
                      return std::make_pair(a.group, a.run) <
                             std::make_pair(b.group, b.run);
                  });
        release(slots);
        release(shapes);
        release(shapeByFields);
        release(lastFields);
        release(fields);
        release(fieldValues);
    }

    void insert(const RunRecord &rec);

    RunRecord materialize(const Run &r) const;

    /** The metric names the runs carry, each once. */
    std::vector<std::string> metricNames() const;

  private:
    /** One "m:" field of a companion: its name, and if a number. */
    struct RawField
    {
        std::uint32_t id = 0;
        bool number = false;
    };

    /** A companion field sequence, reduced to what a run keeps. */
    struct Shape
    {
        std::uint32_t list = kNoNames;
        std::vector<std::uint32_t> perm; ///< list position -> field
    };

    struct List
    {
        std::size_t first = 0; ///< in listIds
        std::uint32_t size = 0;
    };

    /** Empty @p c and free its storage (`c = {}` keeps a vector's). */
    template <class C>
    static void
    release(C &c)
    {
        C().swap(c);
    }

    std::size_t
    slotOf(std::uint64_t g, std::uint64_t i) const
    {
        std::uint64_t h = (g * 0x9e3779b97f4a7c15ull) ^ i;
        h *= 0xbf58476d1ce4e5b9ull;
        return static_cast<std::size_t>(h ^ (h >> 29)) &
               (slots.size() - 1);
    }

    /** Put run number @p n (1-based) into the hash. */
    void
    place(std::size_t n)
    {
        const Run &r = runs[n - 1];
        std::size_t s = slotOf(r.group, r.run);
        while (slots[s])
            s = (s + 1) & (slots.size() - 1);
        slots[s] = n;
    }

    void
    rehash(std::size_t capacity)
    {
        slots.assign(capacity, 0);
        for (std::size_t n = 1; n <= runs.size(); ++n)
            place(n);
    }

    std::uint32_t intern(std::string_view name);
    std::uint32_t listOf(const std::vector<std::uint32_t> &ids);
    std::uint32_t shapeOf(const std::vector<RawField> &raw);

    /** Where name @p id sits in list @p l, or SIZE_MAX. */
    std::size_t
    position(std::uint32_t l, std::uint32_t id) const
    {
        if (l == kNoNames)
            return SIZE_MAX;
        for (std::size_t k = 0; k < lists[l].size; ++k)
            if (listIds[lists[l].first + k] == id)
                return k;
        return SIZE_MAX;
    }

    std::vector<Run> runs;
    std::vector<double> values;

    /** 1-based run positions while staging; empty once sealed. */
    std::vector<std::size_t> slots;

    /** Interned, by id; a deque, so the keys of ids stay valid. */
    std::deque<std::string> names;
    std::unordered_map<std::string_view, std::uint32_t> ids;

    std::vector<List> lists;
    std::vector<std::uint32_t> listIds;
    std::map<std::vector<std::uint32_t>, std::uint32_t> listByIds;

    // Replay only; seal() drops them.
    /** Shapes by field sequence (id * 2 + number); 0 has no fields. */
    std::vector<Shape> shapes{Shape{}};
    std::map<std::vector<std::uint32_t>, std::uint32_t> shapeByFields{
        {{}, 0}};

    /** The last companion's fields and shape, and buffers reused per line. */
    std::vector<RawField> lastFields, fields;
    std::uint32_t lastShape = 0;
    std::vector<double> fieldValues;
};

std::uint32_t
ResultStore::TailIndex::intern(std::string_view name)
{
    const auto it = ids.find(name);
    if (it != ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names.size());
    ids.emplace(names.emplace_back(name), id);
    return id;
}

std::uint32_t
ResultStore::TailIndex::listOf(const std::vector<std::uint32_t> &l)
{
    if (l.empty())
        return kNoNames;
    const auto it = listByIds.find(l);
    if (it != listByIds.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(lists.size());
    lists.push_back({listIds.size(), static_cast<std::uint32_t>(l.size())});
    listIds.insert(listIds.end(), l.begin(), l.end());
    listByIds.emplace(l, id);
    return id;
}

std::uint32_t
ResultStore::TailIndex::shapeOf(const std::vector<RawField> &raw)
{
    std::vector<std::uint32_t> key;
    key.reserve(raw.size());
    for (const RawField &f : raw)
        key.push_back(2 * f.id + f.number);
    const auto it = shapeByFields.find(key);
    if (it != shapeByFields.end())
        return it->second;

    // What the run keeps: key order, a repeated key's last copy, and
    // only the keys whose kept copy is a number. The stable sort
    // leaves the copies of a key in line order.
    std::vector<std::uint32_t> order(raw.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return names[raw[a].id] < names[raw[b].id];
                     });
    Shape shape;
    std::vector<std::uint32_t> kept;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const RawField &f = raw[order[k]];
        if ((k + 1 < order.size() && raw[order[k + 1]].id == f.id) ||
            !f.number)
            continue;
        shape.perm.push_back(order[k]);
        kept.push_back(f.id);
    }
    shape.list = listOf(kept);
    shapes.push_back(std::move(shape));
    const auto id = static_cast<std::uint32_t>(shapes.size() - 1);
    shapeByFields.emplace(std::move(key), id);
    return id;
}

ResultStore::TailIndex::Dump
ResultStore::TailIndex::dump(const sim::JsonLine &line)
{
    // A companion almost always carries the fields of the one before,
    // in the same order: names are compared against that sequence and
    // interned only from the first difference on.
    std::size_t k = 0;
    bool same = true;
    fieldValues.clear();
    line.visitWithPrefix("m:", [&](std::string_view name,
                                   const double *v) {
        const bool number = v != nullptr;
        if (same && (k == lastFields.size() ||
                     lastFields[k].number != number ||
                     names[lastFields[k].id] != name)) {
            same = false;
            fields.assign(lastFields.begin(), lastFields.begin() + k);
        }
        if (!same)
            fields.push_back({intern(name), number});
        fieldValues.push_back(number ? *v : 0.0);
        ++k;
    });
    if (same && k != lastFields.size()) {
        same = false;
        fields.assign(lastFields.begin(), lastFields.begin() + k);
    }
    if (!same) {
        lastFields.swap(fields);
        lastShape = shapeOf(lastFields);
    }
    const Shape &shape = shapes[lastShape];
    Dump d;
    d.names = shape.list;
    d.values = values.size();
    for (const std::uint32_t f : shape.perm)
        values.push_back(fieldValues[f]);
    return d;
}

void
ResultStore::TailIndex::insert(const RunRecord &rec)
{
    VARSIM_ASSERT(slots.empty(), "append into a replay in progress");
    Run r;
    r.group = rec.group;
    r.run = rec.runIdx;
    r.config = rec.configIdx;
    r.ckpt = rec.ckptIdx;
    r.seed = rec.seed;
    r.cyclesPerTxn = rec.cyclesPerTxn;
    r.runtimeTicks = rec.runtimeTicks;
    r.txns = rec.txns;
    // Kept as given, registration order and all, like the record.
    std::vector<std::uint32_t> l;
    l.reserve(rec.metrics.size());
    for (const auto &kv : rec.metrics)
        l.push_back(intern(kv.first));
    r.names = listOf(l);
    r.values = values.size();
    for (const auto &kv : rec.metrics)
        values.push_back(kv.second);
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(
                                   lowerBound(r.group, r.run)),
                r);
}

RunRecord
ResultStore::TailIndex::materialize(const Run &r) const
{
    RunRecord rec;
    rec.group = r.group;
    rec.configIdx = r.config;
    rec.ckptIdx = r.ckpt;
    rec.runIdx = r.run;
    rec.seed = r.seed;
    rec.cyclesPerTxn = r.cyclesPerTxn;
    rec.runtimeTicks = r.runtimeTicks;
    rec.txns = r.txns;
    if (r.names != kNoNames) {
        const List &l = lists[r.names];
        rec.metrics.reserve(l.size);
        for (std::size_t k = 0; k < l.size; ++k)
            rec.metrics.emplace_back(names[listIds[l.first + k]],
                                     values[r.values + k]);
    }
    return rec;
}

std::vector<std::string>
ResultStore::TailIndex::metricNames() const
{
    // A list dumped for a companion the replay then skipped belongs
    // to no run, and a name only a dropped field had is in no list.
    std::vector<bool> listed(lists.size(), false);
    for (const Run &r : runs)
        if (r.names != kNoNames)
            listed[r.names] = true;
    std::vector<bool> carried(names.size(), false);
    for (std::size_t l = 0; l < lists.size(); ++l)
        for (std::size_t k = 0; listed[l] && k < lists[l].size; ++k)
            carried[listIds[lists[l].first + k]] = true;
    std::vector<std::string> out;
    for (std::size_t id = 0; id < names.size(); ++id)
        if (carried[id])
            out.push_back(names[id]);
    return out;
}

struct ResultStore::RunLoc
{
    const TailIndex::Run *tail = nullptr; ///< the run, when in the tail
    SegmentView::Ref seg; ///< the run, when in the segment

    bool found() const { return tail || seg.valid(); }
};

ResultStore::ResultStore() : tail_(std::make_unique<TailIndex>()) {}

ResultStore::RunLoc
ResultStore::locateLocked(std::size_t g, std::size_t i) const
{
    RunLoc loc;
    loc.tail = tail_->find(g, i);
    if (!loc.tail && segment_)
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
    std::size_t tail = tail_->lowerBound(g, 0);
    std::size_t seg = segment_ ? segment_->lowerBound(g, 0) : 0;
    for (std::size_t i = 0; i < maxRuns; ++i) {
        RunLoc loc;
        loc.tail = tail_->at(tail, g, i);
        if (loc.tail)
            ++tail;
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
    for (std::size_t t = 0; t < tail_->size(); ++t) {
        const TailIndex::Run &r = (*tail_)[t];
        if (segment_) {
            segmentUpTo(segment_->lowerBound(r.group, r.run));
            if (segment_->at(seg, r.group, r.run).valid())
                ++seg;
        }
        RunLoc loc;
        loc.tail = &r;
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
ResultStore::exists(const std::string &dir)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(manifestPath(dir), ec);
    return !ec && size > 0;
}

bool
ResultStore::loadSegmentRecord(const sim::JsonLine &obj,
                               const std::string &path,
                               std::size_t lineNo, SegmentLoad &load,
                               std::string *gone)
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

    SegmentLoad l = std::move(load);
    if (l.ok)
        l.ok = l.view->awaitIndex(&l.error);
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

    // Two passes. The first parses every line once and reduces run
    // and metrics records to their values; at the first segment
    // record it starts loading the segment, whose walk indexes it on
    // its own thread meanwhile. The second decides, prints and
    // applies every line in order, as one pass would, and only it
    // reads the segment's index.
    struct Line
    {
        enum class Kind : std::uint8_t
        {
            Record,
            Run,
            Metrics,
            Malformed,
            Torn
        };
        Kind kind;
        std::size_t no;
        std::size_t at; ///< Record, Torn: offset in data; else index
    };
    struct Companion
    {
        std::size_t group, run;
        TailIndex::Dump dump;
    };
    std::vector<Line> lines;
    std::vector<TailIndex::Run> runs;
    std::vector<Companion> companions;
    SegmentLoad load;
    bool loading = false;

    JsonLine obj;
    std::size_t lineNo = 0;
    for (std::size_t pos = 0; pos < data.size();) {
        ++lineNo;
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back({Line::Kind::Torn, lineNo, pos});
            break;
        }
        const std::string_view line(data.data() + pos, nl - pos);
        const std::size_t at = pos;
        pos = nl + 1;
        if (line.empty())
            continue;
        if (!obj.parse(line)) {
            lines.push_back({Line::Kind::Malformed, lineNo, 0});
            continue;
        }
        const std::string type = obj.str("type");
        if (type == "run") {
            TailIndex::Run r;
            r.group = obj.num("group");
            r.config = obj.num("config");
            r.ckpt = obj.num("checkpoint");
            r.run = obj.num("run");
            r.seed = obj.num("seed");
            r.cyclesPerTxn = obj.real("cycles_per_txn");
            r.runtimeTicks = obj.num("runtime_ticks");
            r.txns = obj.num("txns");
            lines.push_back({Line::Kind::Run, lineNo, runs.size()});
            runs.push_back(r);
        } else if (type == "metrics") {
            lines.push_back(
                {Line::Kind::Metrics, lineNo, companions.size()});
            companions.push_back(
                {obj.num("group"), obj.num("run"), tail_->dump(obj)});
        } else {
            if (type == "segment" && !loading) {
                loading = true;
                load = loadSegmentFile(dir_ + "/" + obj.str("file"));
            }
            lines.push_back({Line::Kind::Record, lineNo, at});
        }
    }

    bool sawHeader = false;
    std::size_t segmentLine = 0;
    std::size_t dropped = 0;

    // Appends write a "run" line and its "metrics" companion
    // adjacently under one lock, so a companion always refers to the
    // most recent "run" line. Tracking that line lets the replay
    // keep a duplicated run's *own* metrics and drop the
    // duplicate's, instead of letting the later companion clobber
    // the kept record.
    std::pair<std::size_t, std::size_t> lastRunKey{SIZE_MAX,
                                                   SIZE_MAX};
    bool lastRunDropped = false;

    for (const Line &l : lines) {
        lineNo = l.no;
        if (l.kind == Line::Kind::Torn) {
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
                if (::ftruncate(fd, static_cast<off_t>(l.at)) != 0)
                    sim::fatal(
                        "cannot truncate torn tail of %s: %s",
                        path.c_str(), std::strerror(errno));
            } else {
                sim::inform("%s: ignoring incomplete final line "
                            "%zu (an append may be in progress)",
                            path.c_str(), lineNo);
            }
        } else if (l.kind == Line::Kind::Malformed) {
            // Newline-terminated damage is not a torn append; the
            // records around it are still genuine — keep going,
            // but tell the user.
            sim::warn("%s:%zu: malformed record skipped",
                      path.c_str(), lineNo);
            ++dropped;
        } else if (l.kind == Line::Kind::Run) {
            const TailIndex::Run &r = runs[l.at];
            lastRunKey = {r.group, r.run};
            if (locateLocked(r.group, r.run).found()) {
                sim::warn("%s:%zu: duplicate run record (group "
                          "%zu, run %zu) dropped (first record "
                          "wins)", path.c_str(), lineNo,
                          lastRunKey.first, lastRunKey.second);
                lastRunDropped = true;
            } else {
                tail_->stage(r);
                lastRunDropped = false;
            }
        } else if (l.kind == Line::Kind::Metrics) {
            // Companion record: attach the dump to its run. The run
            // record always precedes it (both are appended under one
            // lock), so an orphan means a hand-edited manifest.
            const Companion &c = companions[l.at];
            if (lastRunDropped && lastRunKey.first == c.group &&
                lastRunKey.second == c.run)
                continue; // the dropped duplicate's companion
            TailIndex::Run *run = tail_->find(c.group, c.run);
            if (!run) {
                sim::warn("%s:%zu: metrics record for unknown run "
                          "(group %zu, run %zu) skipped",
                          path.c_str(), lineNo, c.group, c.run);
                continue;
            }
            if (run->names != TailIndex::kNoNames) {
                sim::warn("%s:%zu: extra metrics record for "
                          "(group %zu, run %zu) ignored (the "
                          "run's first dump wins)",
                          path.c_str(), lineNo, c.group, c.run);
                continue;
            }
            TailIndex::attach(*run, c.dump);
        } else {
            obj.parse(std::string_view(data).substr(
                l.at, data.find('\n', l.at) - l.at));
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
                    sim::fatal("%s:%zu: header fingerprint '%s' is "
                               "not a 64-bit hex value; refusing to "
                               "resume against an unidentifiable "
                               "store", path.c_str(), lineNo,
                               obj.str("fingerprint").c_str());
                const std::uint64_t groups = obj.num("groups");
                const std::uint64_t ckpts = obj.num("checkpoints");
                if (groups > kMaxGroups || ckpts > kMaxGroups)
                    sim::fatal("%s:%zu: header declares %llu group(s) "
                               "and %llu checkpoint(s); this build "
                               "reads at most %zu of each",
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
                // Compaction writes the segment record before any run
                // of the new journal tail, so a run in both indexes
                // means a hand-merged manifest.
                if (tail_->size() != 0)
                    sim::fatal("%s:%zu: a segment record after run "
                               "records; a compacted manifest names "
                               "its segment before its journal tail",
                               path.c_str(), lineNo);
                if (!loadSegmentRecord(obj, path, lineNo, load, gone))
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
            } else {
                sim::warn("%s:%zu: unknown record type '%s' skipped",
                          path.c_str(), lineNo, type.c_str());
            }
        }
    }
    tail_->seal();
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
    return tail_->runsInGroup(group) +
           (segment_ ? segment_->runsInGroup(group) : 0);
}

std::size_t
ResultStore::totalRuns() const
{
    std::lock_guard<std::mutex> lock(mu);
    return tail_->size() + (segment_ ? segment_->runCount() : 0);
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
    return tail_->size();
}

std::vector<RunRecord>
ResultStore::groupRuns(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<RunRecord> out;
    walkPrefixLocked(group, SIZE_MAX, [&](const RunLoc &loc) {
        out.push_back(loc.tail ? tail_->materialize(*loc.tail)
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
    // Resolve the name once, not per run: the segment's dictionary
    // index, and the tail's position once per name list.
    const int dictIdx = segment_ ? segment_->dictIndex(name) : -1;
    TailIndex::Reader tailValue(*tail_, name);

    // A run without the metric (recorded by an older binary) ends
    // the prefix: everything returned is comparable.
    std::vector<double> xs;
    walkPrefixLocked(group, maxRuns, [&](const RunLoc &loc) {
        const TailIndex::Run *r = loc.tail;
        double v;
        if (builtin == 0)
            v = r ? r->cyclesPerTxn : segment_->cyclesPerTxn(loc.seg);
        else if (builtin == 1)
            v = static_cast<double>(
                r ? r->runtimeTicks : segment_->runtimeTicks(loc.seg));
        else if (builtin == 2)
            v = static_cast<double>(r ? r->txns
                                      : segment_->txns(loc.seg));
        else if (r ? !tailValue.get(*r, &v)
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
    tail_->insert(rec);
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
    std::vector<std::string> extra;
    {
        std::lock_guard<std::mutex> lock(mu);
        extra = tail_->metricNames();
        if (segment_)
            extra.insert(extra.end(), segment_->dictionary().begin(),
                         segment_->dictionary().end());
    }
    std::sort(extra.begin(), extra.end());
    out.insert(out.end(), extra.begin(),
               std::unique(extra.begin(), extra.end()));
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
    if (fd < 0 || tail_->size() < kAutoCompactTail)
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
    // Already one segment in the current format (or nothing
    // recorded); a format-1 segment is rewritten even with no tail.
    if (tail_->size() == 0 &&
        (!segment_ || segment_->version() == kSegmentVersion))
        return res;

    // Materialized into storage reserved up front, so the pointers
    // stay valid.
    std::vector<RunRecord> records;
    records.reserve(tail_->size() +
                    (segment_ ? segment_->runCount() : 0));
    std::vector<const RunRecord *> all;
    all.reserve(records.capacity());
    walkAllLocked([&](const RunLoc &loc) {
        records.push_back(loc.tail ? tail_->materialize(*loc.tail)
                                   : segment_->materialize(loc.seg));
        all.push_back(&records.back());
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
    tail_ = std::make_unique<TailIndex>();
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
        emit(loc.tail ? tail_->materialize(*loc.tail)
                      : segment_->materialize(loc.seg));
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
