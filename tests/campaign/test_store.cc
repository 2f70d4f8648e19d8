/**
 * @file
 * Durability tests of the campaign result store: exact record
 * round-trips, torn-tail crash recovery, duplicate suppression, and
 * the contiguous-prefix contract behind resume determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/store.hh"

namespace
{

using namespace varsim::campaign;

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
