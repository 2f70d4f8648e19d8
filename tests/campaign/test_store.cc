/**
 * @file
 * Durability tests of the campaign result store: exact record
 * round-trips, torn-tail crash recovery, duplicate suppression, and
 * the contiguous-prefix contract behind resume determinism.
 *
 * TailIndexDifferential replays seeded hand-edited manifests through
 * the store and through the std::map replay the store's flat tail
 * index replaced, kept below as the reference, and requires the same
 * runs, metric names, metric prefixes, export bytes and warnings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/store.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace varsim::campaign;
using varsim::sim::format;
using varsim::sim::JsonLine;
using varsim::sim::JsonWriter;
using varsim::sim::Random;

std::string
freshDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_store_" + name + ".camp");
    std::filesystem::remove_all(p);
    return p.string();
}

StoreHeader
twoGroupHeader()
{
    StoreHeader h;
    h.fingerprint = 0xfeedfaceull;
    h.numGroups = 2;
    h.workload = "OLTP";
    h.configNames = {"a", "b"};
    return h;
}

RunRecord
record(std::size_t group, std::size_t run, double metric)
{
    RunRecord r;
    r.group = group;
    r.configIdx = group;
    r.runIdx = run;
    r.seed = 1000 + group * 100 + run;
    r.cyclesPerTxn = metric;
    r.runtimeTicks = 7777 + run;
    r.txns = 40;
    return r;
}

TEST(ResultStore, RoundTripsRecordsExactly)
{
    const std::string dir = freshDir("roundtrip");
    // Metrics chosen so sloppy formatting would lose bits.
    const double awkward[] = {1.0 / 3.0, 26809.123456789012,
                              1e-17 + 2.0};
    {
        auto store = ResultStore::openOrCreate(dir,
                                               twoGroupHeader());
        for (int i = 0; i < 3; ++i)
            store->appendRun(record(0, i, awkward[i]));
        store->appendRun(record(1, 0, 4.25));
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->header().fingerprint, 0xfeedfaceull);
    EXPECT_EQ(store->header().numGroups, 2u);
    EXPECT_EQ(store->header().workload, "OLTP");
    ASSERT_EQ(store->header().configNames.size(), 2u);
    EXPECT_EQ(store->header().configNames[1], "b");
    EXPECT_EQ(store->totalRuns(), 4u);

    const auto xs = store->groupMetric(0);
    ASSERT_EQ(xs.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(xs[i], awkward[i]) << "double round-trip lost "
                                        "bits at index " << i;
    const auto recs = store->groupRuns(0);
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2].seed, 1002u);
    EXPECT_EQ(recs[2].runtimeTicks, 7779u);
    EXPECT_EQ(recs[2].txns, 40u);
}

TEST(ResultStore, GroupMetricReturnsContiguousPrefixOnly)
{
    const std::string dir = freshDir("prefix");
    auto store = ResultStore::openOrCreate(dir, twoGroupHeader());
    store->appendRun(record(0, 0, 1.0));
    store->appendRun(record(0, 1, 2.0));
    store->appendRun(record(0, 3, 4.0)); // gap at run 2

    EXPECT_EQ(store->runsInGroup(0), 3u);
    EXPECT_TRUE(store->hasRun(0, 3));
    EXPECT_FALSE(store->hasRun(0, 2));
    // The prefix stops at the gap: statistics never see run 3 until
    // run 2 exists, so every reader agrees on the sample.
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{1.0, 2.0}));
}

TEST(ResultStore, DuplicateAppendKeepsFirstRecord)
{
    const std::string dir = freshDir("dup");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 10.0));
        store->appendRun(record(0, 0, 99.0)); // racing shard
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 1u);
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{10.0}));
}

TEST(ResultStore, ToleratesTornFinalLine)
{
    const std::string dir = freshDir("torn");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 5.5));
        store->appendRun(record(0, 1, 6.5));
    }
    {
        // A crash mid-append leaves a partial line with no newline.
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"run\",\"group\":0,\"ru";
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 2u);
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{5.5, 6.5}));
    // The store must still be appendable after recovery.
    store->appendRun(record(0, 2, 7.5));
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{5.5, 6.5, 7.5}));
}

TEST(ResultStore, TornLineRecoveryIsDurable)
{
    // After recovery + append, a second replay sees clean records:
    // the torn bytes must not corrupt the following line.
    const std::string dir = freshDir("torn2");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 5.5));
    }
    {
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"run\",\"gro";
    }
    {
        auto store = ResultStore::open(dir);
        store->appendRun(record(0, 1, 6.5));
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 2u);
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{5.5, 6.5}));
}

TEST(ResultStore, MetricsRecordsRoundTrip)
{
    const std::string dir = freshDir("metrics");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        RunRecord r0 = record(0, 0, 2.0);
        r0.metrics = {{"system.mem.bus.l2_misses", 3948.0},
                      {"system.kernel.dispatches", 43.0}};
        store->appendRun(r0);
        RunRecord r1 = record(0, 1, 3.0);
        r1.metrics = {{"system.mem.bus.l2_misses", 1.0 / 3.0},
                      {"system.kernel.dispatches", 44.0}};
        store->appendRun(r1);
        // A run with no dump at all (e.g. written by an old binary).
        store->appendRun(record(1, 0, 4.0));
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 3u);

    const auto misses =
        store->groupMetricNamed(0, "system.mem.bus.l2_misses");
    ASSERT_EQ(misses.size(), 2u);
    EXPECT_EQ(misses[0], 3948.0);
    EXPECT_EQ(misses[1], 1.0 / 3.0) << "metric double lost bits";

    // Built-ins bypass the per-run dump entirely.
    EXPECT_EQ(store->groupMetricNamed(0, "cycles_per_txn"),
              store->groupMetric(0));

    // The group-1 run has no dump: the named prefix is empty, and
    // asking for an unknown name is empty everywhere.
    EXPECT_TRUE(
        store->groupMetricNamed(1, "system.mem.bus.l2_misses")
            .empty());
    EXPECT_TRUE(store->groupMetricNamed(0, "no.such.metric")
                    .empty());

    const auto names = store->metricNames();
    ASSERT_GE(names.size(), 2u);
    // Built-ins lead, then the union of per-run metric names sorted.
    EXPECT_EQ(names.front(), "cycles_per_txn");
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "system.kernel.dispatches"),
              names.end());
}

TEST(ResultStore, UnknownRecordTypesAreSkipped)
{
    // Forward compatibility: a manifest written by a newer binary may
    // contain record types this one doesn't know; replay must warn
    // and keep the runs it understands.
    const std::string dir = freshDir("unknown");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 5.0));
    }
    {
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"frobnicate\",\"x\":1}\n";
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 1u);
    EXPECT_EQ(store->groupMetric(0), (std::vector<double>{5.0}));
}

TEST(ResultStore, PlanRecordRoundTrips)
{
    const std::string dir = freshDir("plan");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        EXPECT_FALSE(store->plan().valid);
        PlanRecord p;
        p.valid = true;
        p.runLength = 2500;
        p.numRuns = 12;
        store->appendPlan(p);
    }
    auto store = ResultStore::open(dir);
    ASSERT_TRUE(store->plan().valid);
    EXPECT_EQ(store->plan().runLength, 2500u);
    EXPECT_EQ(store->plan().numRuns, 12u);
}

TEST(ResultStore, WriterLockExcludesSecondWriter)
{
    const std::string dir = freshDir("lock");
    auto writer = ResultStore::openOrCreate(dir, twoGroupHeader());
    ASSERT_TRUE(writer);

    // A second writable open — a stray `campaign run` aimed at a
    // directory a daemon owns — fails fast instead of interleaving.
    std::string err;
    auto second =
        ResultStore::tryOpenOrCreate(dir, twoGroupHeader(), &err);
    EXPECT_EQ(second, nullptr);
    EXPECT_NE(err.find("locked"), std::string::npos) << err;

    // Releasing the first store releases the lock.
    writer.reset();
    second =
        ResultStore::tryOpenOrCreate(dir, twoGroupHeader(), &err);
    EXPECT_NE(second, nullptr) << err;
}

TEST(ResultStore, ReadOnlyOpenWorksWhileWriterHoldsTheLock)
{
    const std::string dir = freshDir("rolock");
    auto writer = ResultStore::openOrCreate(dir, twoGroupHeader());
    writer->appendRun(record(0, 0, 3.5));

    // Status/report paths read while the daemon is mid-campaign.
    auto reader = ResultStore::openReadOnly(dir);
    EXPECT_EQ(reader->totalRuns(), 1u);
    EXPECT_EQ(reader->groupMetric(0), (std::vector<double>{3.5}));

    // The reader never repairs the manifest: a torn tail is
    // dropped from its replay but left on disk for the writer.
    {
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"run\",\"gro";
    }
    const auto before =
        std::filesystem::file_size(dir + "/manifest.jsonl");
    auto reader2 = ResultStore::openReadOnly(dir);
    EXPECT_EQ(reader2->totalRuns(), 1u);
    EXPECT_EQ(std::filesystem::file_size(dir + "/manifest.jsonl"),
              before);
}

TEST(ResultStore, EmptyStoreReportSaysSoInsteadOfAnEmptyTable)
{
    const std::string dir = freshDir("emptyrep");
    { ResultStore::openOrCreate(dir, twoGroupHeader()); }
    const auto rep = varsim::campaign::campaignReport(dir);
    EXPECT_NE(rep.text.find("0 run(s)"), std::string::npos);
    EXPECT_NE(rep.text.find("no completed runs"),
              std::string::npos);
    EXPECT_NE(rep.text.find("campaign status"), std::string::npos);
}

TEST(ResultStore, DuplicateRunKeepsItsOwnMetrics)
{
    // Two shards racing the same cell append run+metrics pairs
    // adjacently, so a duplicate interleaves as runA, metricsA,
    // runB, metricsB. The duplicate run is dropped — and its
    // companion metrics record must go with it, not clobber the
    // kept run's dump.
    const std::string dir = freshDir("dupmetrics");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        RunRecord kept = record(0, 0, 2.0);
        kept.metrics = {{"system.kernel.dispatches", 43.0}};
        store->appendRun(kept);
    }
    {
        RunRecord dup = record(0, 0, 2.0);
        dup.metrics = {{"system.kernel.dispatches", 999.0}};
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << ResultStore::runLineFor(dup) << "\n"
          << ResultStore::metricsLineFor(dup) << "\n";
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 1u);
    const auto xs =
        store->groupMetricNamed(0, "system.kernel.dispatches");
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_EQ(xs[0], 43.0)
        << "the dropped duplicate's metrics clobbered the kept run";
}

TEST(ResultStore, SecondMetricsRecordDoesNotClobber)
{
    // A stray extra metrics record for an already-dumped run (a
    // hand-merged manifest) must not overwrite the first dump.
    const std::string dir = freshDir("extrametrics");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        RunRecord r = record(0, 0, 2.0);
        r.metrics = {{"system.kernel.dispatches", 43.0}};
        store->appendRun(r);
    }
    {
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"metrics\",\"group\":0,\"run\":0,"
             "\"m:system.kernel.dispatches\":7.0}\n";
    }
    auto store = ResultStore::open(dir);
    const auto xs =
        store->groupMetricNamed(0, "system.kernel.dispatches");
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_EQ(xs[0], 43.0);
}

TEST(ResultStore, OrphanMetricsRecordIsSkipped)
{
    // A metrics record with no run (a hand-edited manifest) is
    // warned about and skipped, never attached to anything.
    const std::string dir = freshDir("orphanmetrics");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 2.0));
    }
    {
        std::ofstream f(dir + "/manifest.jsonl",
                        std::ios::app | std::ios::binary);
        f << "{\"type\":\"metrics\",\"group\":1,\"run\":5,"
             "\"m:system.kernel.dispatches\":7.0}\n";
    }
    auto store = ResultStore::open(dir);
    EXPECT_EQ(store->totalRuns(), 1u);
    EXPECT_TRUE(
        store->groupMetricNamed(1, "system.kernel.dispatches")
            .empty());
    // The store stays appendable and consistent after the skip.
    store->appendRun(record(0, 1, 3.0));
    EXPECT_EQ(store->groupMetric(0),
              (std::vector<double>{2.0, 3.0}));
}

/**
 * The journal-tail replay of the std::map store, unchanged in what it
 * keeps and prints: the reference the flat tail index must match.
 * Headers and the segment record are taken as read; the manifests
 * below carry a header first and at most one segment record, whose
 * runs the test puts in `segment`.
 */
class MapReplay
{
  public:
    using Key = std::pair<std::size_t, std::size_t>;

    std::map<Key, RunRecord> runs; ///< the journal tail
    std::map<Key, RunRecord> segment;
    std::string log; ///< every line the replay printed

    bool
    has(const Key &k) const
    {
        return runs.count(k) || segment.count(k);
    }

    /** Every run, the tail's and the segment's, by key. */
    std::map<Key, RunRecord>
    all() const
    {
        std::map<Key, RunRecord> out = segment;
        for (const auto &entry : runs)
            out.insert_or_assign(entry.first, entry.second);
        return out;
    }

    void
    replay(const std::string &data, const std::string &path,
           bool writer)
    {
        std::size_t lineNo = 0, dropped = 0, pos = 0;
        Key lastRunKey{SIZE_MAX, SIZE_MAX};
        bool lastRunDropped = false;
        JsonLine obj;
        while (pos < data.size()) {
            ++lineNo;
            const std::size_t nl = data.find('\n', pos);
            if (nl == std::string::npos) {
                if (writer)
                    print("warn", format("%s: discarding torn final "
                                         "line %zu (crash during "
                                         "append)", path.c_str(),
                                         lineNo));
                else
                    print("info", format("%s: ignoring incomplete "
                                         "final line %zu (an append "
                                         "may be in progress)",
                                         path.c_str(), lineNo));
                break;
            }
            const std::string_view line(data.data() + pos, nl - pos);
            pos = nl + 1;
            if (line.empty())
                continue;
            if (!obj.parse(line)) {
                print("warn", format("%s:%zu: malformed record skipped",
                                     path.c_str(), lineNo));
                ++dropped;
                continue;
            }
            const std::string type = obj.str("type");
            if (type == "header" || type == "segment") {
                continue;
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
                if (has(lastRunKey)) {
                    print("warn",
                          format("%s:%zu: duplicate run record (group "
                                 "%zu, run %zu) dropped (first record "
                                 "wins)", path.c_str(), lineNo,
                                 r.group, r.runIdx));
                    lastRunDropped = true;
                } else {
                    runs.emplace(lastRunKey, std::move(r));
                    lastRunDropped = false;
                }
            } else if (type == "metrics") {
                const std::size_t g = obj.num("group");
                const std::size_t i = obj.num("run");
                if (lastRunDropped && lastRunKey == Key{g, i})
                    continue;
                const auto it = runs.find({g, i});
                if (it == runs.end()) {
                    print("warn",
                          format("%s:%zu: metrics record for unknown "
                                 "run (group %zu, run %zu) skipped",
                                 path.c_str(), lineNo, g, i));
                    continue;
                }
                if (!it->second.metrics.empty()) {
                    print("warn",
                          format("%s:%zu: extra metrics record for "
                                 "(group %zu, run %zu) ignored (the "
                                 "run's first dump wins)",
                                 path.c_str(), lineNo, g, i));
                    continue;
                }
                it->second.metrics = realsWithPrefix(obj, "m:");
            } else {
                print("warn", format("%s:%zu: unknown record type '%s' "
                                     "skipped", path.c_str(), lineNo,
                                     type.c_str()));
            }
        }
        if (dropped)
            print("warn", format("%s: %zu malformed mid-file "
                                 "record(s); the manifest may have "
                                 "been edited", path.c_str(), dropped));
    }

    void
    append(const RunRecord &rec)
    {
        if (has({rec.group, rec.runIdx})) {
            print("warn", format("duplicate run record (group %zu, run "
                                 "%zu) dropped — two shards with the "
                                 "same index?", rec.group, rec.runIdx));
            return;
        }
        runs.emplace(Key{rec.group, rec.runIdx}, rec);
    }

    std::vector<RunRecord>
    groupRuns(std::size_t g) const
    {
        std::vector<RunRecord> out;
        for (std::size_t i = 0;; ++i) {
            const RunRecord *r = nullptr;
            if (const auto it = runs.find({g, i}); it != runs.end())
                r = &it->second;
            else if (const auto s = segment.find({g, i});
                     s != segment.end())
                r = &s->second;
            if (!r)
                return out;
            out.push_back(*r);
        }
    }

    std::vector<double>
    groupMetricNamed(std::size_t g, const std::string &name,
                     std::size_t maxRuns) const
    {
        std::vector<double> xs;
        for (const RunRecord &r : groupRuns(g)) {
            if (xs.size() == maxRuns)
                break;
            if (name == "cycles_per_txn") {
                xs.push_back(r.cyclesPerTxn);
            } else if (name == "runtime_ticks") {
                xs.push_back(static_cast<double>(r.runtimeTicks));
            } else if (name == "txns") {
                xs.push_back(static_cast<double>(r.txns));
            } else {
                const auto it = std::find_if(
                    r.metrics.begin(), r.metrics.end(),
                    [&](const auto &kv) { return kv.first == name; });
                if (it == r.metrics.end())
                    break;
                xs.push_back(it->second);
            }
        }
        return xs;
    }

    std::vector<std::string>
    metricNames() const
    {
        std::vector<std::string> out = {"cycles_per_txn",
                                        "runtime_ticks", "txns"};
        std::set<std::string> extra;
        for (const auto &entry : all())
            for (const auto &kv : entry.second.metrics)
                extra.insert(kv.first);
        out.insert(out.end(), extra.begin(), extra.end());
        return out;
    }

    std::string
    exportJsonl(StoreHeader h) const
    {
        h.version = 1;
        std::string out = ResultStore::headerLineFor(h) + "\n";
        for (const auto &entry : all()) {
            RunRecord r = entry.second;
            out += ResultStore::runLineFor(r) + "\n";
            if (r.metrics.empty())
                continue;
            std::sort(r.metrics.begin(), r.metrics.end());
            out += ResultStore::metricsLineFor(r) + "\n";
        }
        return out;
    }

  private:
    void
    print(const char *tag, const std::string &msg)
    {
        log += std::string(tag) + ": " + msg + "\n";
    }

    /** Numeric fields under @p prefix in key order, last copy kept. */
    static std::vector<std::pair<std::string, double>>
    realsWithPrefix(const JsonLine &obj, std::string_view prefix)
    {
        struct Hit
        {
            std::string name;
            bool number;
            double value;
        };
        std::vector<Hit> hits;
        obj.visitWithPrefix(prefix, [&](std::string_view name,
                                        const double *v) {
            hits.push_back({std::string(name), v != nullptr,
                            v ? *v : 0.0});
        });
        std::stable_sort(hits.begin(), hits.end(),
                         [](const Hit &a, const Hit &b) {
                             return a.name < b.name;
                         });
        std::vector<std::pair<std::string, double>> out;
        for (std::size_t k = 0; k < hits.size(); ++k)
            if ((k + 1 == hits.size() ||
                 hits[k + 1].name != hits[k].name) &&
                hits[k].number)
                out.emplace_back(hits[k].name, hits[k].value);
        return out;
    }
};

/** Registry-like metric names in registration (not name) order. */
const std::vector<std::string> kRegistry = {
    "system.cpu0.ipc",     "system.mem.bus.l2_misses",
    "sim.sampled.enabled", "system.kernel.dispatches",
    "a.first",             "system.cpu1.ipc",
    "zz.last",             "system.mem.l1_miss_ratio",
};

double
awkwardValue(Random &rng)
{
    switch (rng.uniformInt(0, 9)) {
      case 0: return std::numeric_limits<double>::infinity();
      case 1: return -0.0;
      case 2: return std::floor(rng.uniformReal(0, 1e6));
      case 3: return std::numeric_limits<double>::quiet_NaN();
      default: return rng.uniformReal(-1e3, 1e5);
    }
}

RunRecord
randomRun(Random &rng, std::size_t maxGroup, std::size_t maxRun)
{
    RunRecord r;
    r.group = rng.uniformInt(0, maxGroup);
    r.runIdx = rng.uniformInt(0, maxRun);
    r.configIdx = r.group;
    r.seed = rng.next() >> 20;
    r.cyclesPerTxn = awkwardValue(rng);
    r.runtimeTicks = rng.next() >> 30;
    r.txns = rng.uniformInt(1, 5000);
    return r;
}

/**
 * A companion line for (g, i). Most carry every registry name in
 * registration order; the rest a prefix, the reverse, the same
 * names with one value quoted (a number or not), a repeated key
 * (its last copy a number or text), an array, or no metric at all.
 */
std::string
companion(Random &rng, std::size_t g, std::size_t i)
{
    JsonWriter w;
    w.field("type", std::string("metrics"));
    w.field("group", static_cast<std::uint64_t>(g));
    w.field("run", static_cast<std::uint64_t>(i));
    std::vector<std::string> names = kRegistry;
    const std::uint64_t shape = rng.uniformInt(0, 15);
    if (shape == 9)
        names.resize(rng.uniformInt(1, names.size() - 1));
    else if (shape == 10)
        std::reverse(names.begin(), names.end());
    else if (shape == 11)
        names.clear();
    for (std::size_t k = 0; k < names.size(); ++k) {
        if (shape == 7 && k == 3)
            w.field("m:" + names[k], std::string("n/a"));
        else if (shape == 8 && k == 2)
            w.field("m:" + names[k], std::string("7.25"));
        else
            w.field("m:" + names[k], awkwardValue(rng));
    }
    if (shape == 12)
        w.field("m:" + kRegistry[1], awkwardValue(rng));
    if (shape == 13)
        w.field("m:" + kRegistry[4], std::string("not a number"));
    if (shape == 14)
        w.field("m:quoted", std::string("12.5"))
            .field("m:listed", std::vector<std::string>{"1"});
    return w.str() + "\n";
}

StoreHeader
threeGroupHeader()
{
    StoreHeader h = twoGroupHeader();
    h.numGroups = 3;
    h.configNames = {"a", "b", "c"};
    return h;
}

/** A seeded hand-edited journal of about @p lines lines. */
std::string
seededManifest(std::uint64_t seed, std::size_t lines)
{
    Random rng(seed);
    std::string out = ResultStore::headerLineFor(threeGroupHeader()) + "\n";
    std::vector<MapReplay::Key> written;
    for (std::size_t k = 0; k < lines; ++k) {
        const std::uint64_t kind = rng.uniformInt(0, 99);
        if (kind < 66 || written.empty()) {
            // A run and its companion; keys collide now and then.
            RunRecord r = randomRun(rng, 3, 7);
            if (kind >= 60 && !written.empty()) {
                const auto key =
                    written[rng.uniformInt(0, written.size() - 1)];
                r.group = key.first;
                r.runIdx = key.second;
            }
            written.emplace_back(r.group, r.runIdx);
            out += ResultStore::runLineFor(r) + "\n";
            out += companion(rng, r.group, r.runIdx);
        } else if (kind < 74) {
            // A run without a companion.
            const RunRecord r = randomRun(rng, 3, 7);
            written.emplace_back(r.group, r.runIdx);
            out += ResultStore::runLineFor(r) + "\n";
        } else if (kind < 82) {
            // A companion away from its run: extra, or orphaned.
            const auto key =
                rng.uniformInt(0, 1)
                    ? written[rng.uniformInt(0, written.size() - 1)]
                    : MapReplay::Key(rng.uniformInt(0, 4),
                                     rng.uniformInt(0, 9));
            out += companion(rng, key.first, key.second);
        } else if (kind < 90) {
            // Newline-terminated damage.
            const std::string line = ResultStore::runLineFor(
                randomRun(rng, 3, 7));
            out += line.substr(0, rng.uniformInt(1, line.size() - 2));
            out += "\n";
        } else if (kind < 95) {
            out += "{\"type\":\"note\",\"text\":\"hand edit\"}\n";
        } else {
            out += "\n";
        }
    }
    if (rng.uniformInt(0, 2) == 0) {
        const std::string line =
            ResultStore::runLineFor(randomRun(rng, 3, 7));
        out += line.substr(0, rng.uniformInt(1, line.size() - 1));
    }
    return out;
}

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &xs)
{
    std::vector<std::uint64_t> out;
    for (const double x : xs)
        out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
}

/** @p got answers every query as the reference @p want does. */
void
expectSameStore(const MapReplay &want, const ResultStore &got)
{
    EXPECT_EQ(got.totalRuns(), want.runs.size() + want.segment.size());
    EXPECT_EQ(got.tailRunCount(), want.runs.size());
    EXPECT_EQ(got.segmentRunCount(), want.segment.size());
    const std::vector<std::string> names = want.metricNames();
    EXPECT_EQ(got.metricNames(), names);
    for (std::size_t g = 0; g < 6; ++g) {
        SCOPED_TRACE("group " + std::to_string(g));
        std::size_t inGroup = 0;
        for (std::size_t i = 0; i < 12; ++i) {
            const bool has = want.has({g, i});
            EXPECT_EQ(got.hasRun(g, i), has) << "run " << i;
            inGroup += has;
        }
        EXPECT_EQ(got.runsInGroup(g), inGroup);

        const std::vector<RunRecord> a = want.groupRuns(g);
        const std::vector<RunRecord> b = got.groupRuns(g);
        ASSERT_EQ(b.size(), a.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(ResultStore::runLineFor(b[k]),
                      ResultStore::runLineFor(a[k]));
            ASSERT_EQ(b[k].metrics.size(), a[k].metrics.size());
            for (std::size_t m = 0; m < a[k].metrics.size(); ++m) {
                EXPECT_EQ(b[k].metrics[m].first,
                          a[k].metrics[m].first);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              b[k].metrics[m].second),
                          std::bit_cast<std::uint64_t>(
                              a[k].metrics[m].second));
            }
        }
        std::vector<std::string> probes = names;
        probes.push_back("no.such.metric");
        for (const std::string &name : probes) {
            for (const std::size_t cap : {SIZE_MAX, std::size_t{2}})
                EXPECT_EQ(bitsOf(got.groupMetricNamed(g, name, cap)),
                          bitsOf(want.groupMetricNamed(g, name, cap)))
                    << name << " capped at " << cap;
        }
    }
    std::ostringstream os;
    got.exportJsonl(os);
    EXPECT_EQ(os.str(), want.exportJsonl(threeGroupHeader()));
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
}

/**
 * Compact a store of 12 seeded runs (in @p dir) whose keys the seeded
 * journals share, and return them as a replay reads them back.
 */
std::map<MapReplay::Key, RunRecord>
compactedBase(const std::string &dir, std::uint64_t seed)
{
    std::map<MapReplay::Key, RunRecord> out;
    auto store = ResultStore::openOrCreate(dir, threeGroupHeader());
    Random rng(seed * 31);
    for (int k = 0; k < 12; ++k) {
        RunRecord r = randomRun(rng, 3, 7);
        for (std::size_t n = 0; n < kRegistry.size(); n += 1 + k % 2)
            r.metrics.emplace_back(kRegistry[n], awkwardValue(rng));
        if (out.count({r.group, r.runIdx}))
            continue;
        store->appendRun(r);
        std::sort(r.metrics.begin(), r.metrics.end());
        out.emplace(MapReplay::Key{r.group, r.runIdx}, r);
    }
    EXPECT_TRUE(store->compact().performed);
    return out;
}

TEST(TailIndexDifferential, ReplaysAndAppendsLikeTheMapStore)
{
    std::size_t warnings = 0, torn = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string dir = freshDir("tailindex");
        const std::string path = dir + "/manifest.jsonl";
        std::filesystem::create_directories(dir);
        std::string text = seededManifest(seed, 30 + seed);
        // Every other journal follows a compacted segment whose runs
        // it repeats now and then: those are duplicates, and their
        // companions are for runs the tail does not hold.
        std::map<MapReplay::Key, RunRecord> segment;
        if (seed % 2 == 0) {
            segment = compactedBase(dir, seed);
            std::ofstream f(path, std::ios::binary | std::ios::app);
            f << text.substr(text.find('\n') + 1);
        } else {
            std::ofstream f(path, std::ios::binary);
            f << text;
        }
        text = slurp(path);
        torn += text.back() != '\n';

        // A reader: the torn line is left in place.
        MapReplay reader;
        reader.segment = segment;
        reader.replay(text, path, false);
        testing::internal::CaptureStderr();
        auto ro = ResultStore::openReadOnly(dir);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), reader.log);
        expectSameStore(reader, *ro);
        warnings += std::count(reader.log.begin(), reader.log.end(),
                               '\n');

        // The writer: then appends, new names and duplicates among
        // them, in registration order.
        MapReplay writer;
        writer.segment = segment;
        writer.replay(text, path, true);
        testing::internal::CaptureStderr();
        auto rw = ResultStore::open(dir);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), writer.log);
        Random rng(seed * 7919);
        for (int k = 0; k < 8; ++k) {
            RunRecord r = randomRun(rng, 3, 9);
            for (std::size_t n = 0; n < kRegistry.size(); n += 1 + k % 3)
                r.metrics.emplace_back(kRegistry[n], awkwardValue(rng));
            if (k == 5)
                r.metrics.emplace_back("appended.only", 1.0 * k);
            writer.log.clear();
            writer.append(r);
            testing::internal::CaptureStderr();
            rw->appendRun(r);
            EXPECT_EQ(testing::internal::GetCapturedStderr(),
                      writer.log);
        }
        expectSameStore(writer, *rw);
        rw.reset();

        // A reopen reads the appended records back in name order.
        MapReplay again;
        again.segment = segment;
        again.replay(slurp(path), path, false);
        testing::internal::CaptureStderr();
        auto reopened = ResultStore::openReadOnly(dir);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), again.log);
        expectSameStore(again, *reopened);
    }
    // The seeds reach every warning and both torn-line paths.
    EXPECT_GT(warnings, 200u);
    EXPECT_GT(torn, 5u);
}

TEST(ResultStoreDeathTest, FingerprintMismatchIsFatal)
{
    const std::string dir = freshDir("mismatch");
    { ResultStore::openOrCreate(dir, twoGroupHeader()); }
    StoreHeader other = twoGroupHeader();
    other.fingerprint = 0xdeadbeefull;
    EXPECT_DEATH(ResultStore::openOrCreate(dir, other),
                 "fingerprint");
}

TEST(ResultStoreDeathTest, OpenMissingStoreIsFatal)
{
    const std::string dir = freshDir("absent");
    EXPECT_DEATH(ResultStore::open(dir), "");
}

TEST(ResultStoreDeathTest, UnknownHeaderVersionIsFatal)
{
    // A manifest from a future format must be rejected, not
    // half-understood: guessed records would silently skew resume
    // decisions and reports.
    const std::string dir = freshDir("futurever");
    std::filesystem::create_directories(dir);
    {
        std::ofstream f(dir + "/manifest.jsonl", std::ios::binary);
        f << "{\"type\":\"header\",\"version\":3,\"fingerprint\":"
             "\"00000000feedface\",\"groups\":2,\"checkpoints\":0,"
             "\"workload\":\"OLTP\",\"configs\":[\"a\",\"b\"]}\n";
    }
    EXPECT_DEATH(ResultStore::openReadOnly(dir), "version");
}

TEST(ResultStoreDeathTest, GarbageFingerprintIsFatal)
{
    // Previously strtoull's errors were ignored and a mangled
    // fingerprint replayed as whatever prefix happened to parse.
    const std::string dir = freshDir("badfp");
    std::filesystem::create_directories(dir);
    {
        std::ofstream f(dir + "/manifest.jsonl", std::ios::binary);
        f << "{\"type\":\"header\",\"version\":1,\"fingerprint\":"
             "\"not-a-fingerprint\",\"groups\":2,\"checkpoints\":0,"
             "\"workload\":\"OLTP\",\"configs\":[\"a\",\"b\"]}\n";
    }
    EXPECT_DEATH(ResultStore::openReadOnly(dir), "fingerprint");
}

TEST(ResultStoreDeathTest, SecondSegmentRecordIsFatal)
{
    // Compaction writes exactly one segment record, so a manifest
    // naming two (here two valid copies of one segment) was not
    // written by a store and must not be half-read.
    const std::string dir = freshDir("twosegments");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 2.0));
        ASSERT_EQ(store->compact().segmentFile,
                  "segments/seg-000001.vseg");
    }
    std::filesystem::copy_file(dir + "/segments/seg-000001.vseg",
                               dir + "/segments/seg-000002.vseg");
    const std::string path = dir + "/manifest.jsonl";
    std::string manifest;
    {
        std::ifstream f(path, std::ios::binary);
        manifest.assign(std::istreambuf_iterator<char>(f), {});
    }
    std::string second =
        manifest.substr(manifest.find("{\"type\":\"segment\""));
    second.replace(second.find("seg-000001"), 10, "seg-000002");
    manifest += second;
    {
        std::ofstream f(path, std::ios::binary);
        f << manifest;
    }
    const auto line = std::count(manifest.begin(), manifest.end(),
                                 '\n');
    EXPECT_DEATH(ResultStore::openReadOnly(dir),
                 "manifest\\.jsonl:" + std::to_string(line) +
                     ": a second segment record");
}

TEST(ResultStoreDeathTest, SegmentRecordAfterARunIsFatal)
{
    // Compaction writes its segment record before any run of the new
    // journal tail. A run line ahead of it (here the segment's own
    // run, which would then sit in both indexes and be counted
    // twice) means a hand-merged manifest.
    const std::string dir = freshDir("segmentafterrun");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0, 2.0));
        ASSERT_EQ(store->compact().segmentFile,
                  "segments/seg-000001.vseg");
    }
    const std::string path = dir + "/manifest.jsonl";
    std::string manifest;
    {
        std::ifstream f(path, std::ios::binary);
        manifest.assign(std::istreambuf_iterator<char>(f), {});
    }
    const std::size_t at = manifest.find("{\"type\":\"segment\"");
    ASSERT_NE(at, std::string::npos);
    manifest.insert(at,
                    ResultStore::runLineFor(record(0, 0, 2.0)) + "\n");
    {
        std::ofstream f(path, std::ios::binary);
        f << manifest;
    }
    const auto line = std::count(manifest.begin(), manifest.end(),
                                 '\n');
    EXPECT_DEATH(ResultStore::openReadOnly(dir),
                 "manifest\\.jsonl:" + std::to_string(line) +
                     ": a segment record after run records");
}

} // namespace
