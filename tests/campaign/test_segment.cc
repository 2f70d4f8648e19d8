/**
 * @file
 * Compacted binary segment tests: format round-trips, damage
 * rejection sweeps, and the compaction-is-a-no-op contract — a
 * compacted store must replay to byte-identical reports and
 * bit-identical resume decisions versus its pure-JSONL twin, survive
 * kill -9 mid-compaction, and stay readable under a live writer.
 */

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/segment.hh"
#include "ckpt/archive.hh"
#include "core/varsim.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace
{

using namespace varsim;
using namespace varsim::campaign;

std::string
freshDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_segment_" + name + ".camp");
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

/** Deterministic record with awkward doubles and a metrics dump. */
RunRecord
record(std::size_t group, std::size_t run)
{
    RunRecord r;
    r.group = group;
    r.configIdx = group;
    r.runIdx = run;
    r.seed = 1000 + group * 100 + run;
    r.cyclesPerTxn = 20.0 + group + run / 3.0;
    r.runtimeTicks = 7000 + run;
    r.txns = 40 + run;
    r.metrics = {{"system.kernel.dispatches",
                  40.0 + group + run},
                 {"system.mem.bus.l2_misses",
                  3000.0 + run * (1.0 / 7.0)}};
    return r;
}

std::vector<RunRecord>
sampleRecords()
{
    std::vector<RunRecord> rs;
    for (std::size_t g = 0; g < 2; ++g)
        for (std::size_t i = 0; i < 4; ++i)
            rs.push_back(record(g, i));
    return rs;
}

/** The segment bytes of @p rs (sorted, unique). */
std::vector<std::uint8_t>
segmentOf(const std::vector<RunRecord> &rs)
{
    std::vector<const RunRecord *> ptrs;
    for (const RunRecord &r : rs)
        ptrs.push_back(&r);
    return buildSegment(ptrs);
}

/** @p bytes declaring @p count footer entries, FNV rewritten. */
std::vector<std::uint8_t>
withFooterCount(std::vector<std::uint8_t> bytes, std::uint64_t count)
{
    std::vector<std::uint8_t> le;
    ckpt::putLe<std::uint64_t>(le, count);
    std::copy(le.begin(), le.end(), bytes.begin() + 24);
    bytes.resize(bytes.size() - 8);
    ckpt::putLe<std::uint64_t>(
        bytes, ckpt::fnvBytes(bytes.data(), bytes.size()));
    return bytes;
}

/**
 * @p bytes as an older writer laid them out: one 48-byte per-group
 * summary entry (group, count, mean, m2, min, max) spliced in
 * before the checksum, the footer count and trailing FNV rewritten.
 */
std::vector<std::uint8_t>
withLegacyFooter(std::vector<std::uint8_t> bytes,
                 const std::vector<RunRecord> &rs)
{
    std::map<std::size_t, std::vector<double>> byGroup;
    for (const RunRecord &r : rs)
        byGroup[r.group].push_back(r.cyclesPerTxn);
    std::vector<std::uint8_t> footer;
    for (const auto &[g, xs] : byGroup) {
        double sum = 0.0;
        for (double x : xs)
            sum += x;
        ckpt::putLe<std::uint64_t>(footer, g);
        ckpt::putLe<std::uint64_t>(footer, xs.size());
        for (double v : {sum / xs.size(), 0.0, xs.front(), xs.back()})
            ckpt::putLe<std::uint64_t>(footer,
                                       std::bit_cast<std::uint64_t>(v));
    }
    bytes.insert(bytes.end() - 8, footer.begin(), footer.end());
    return withFooterCount(std::move(bytes), byGroup.size());
}

void
expectEveryPrefixRejected(const std::vector<std::uint8_t> &bytes)
{
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const SegmentLoad l = parseSegment(std::vector<std::uint8_t>(
            bytes.begin(), bytes.begin() + n));
        EXPECT_FALSE(l.ok)
            << "a " << n << "-byte prefix of a " << bytes.size()
            << "-byte segment parsed as valid";
        EXPECT_FALSE(l.error.empty());
    }
}

void
expectEveryFlipRejected(const std::vector<std::uint8_t> &bytes)
{
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto damaged = bytes;
        damaged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        const SegmentLoad l = parseSegment(std::move(damaged));
        EXPECT_FALSE(l.ok)
            << "flipping bit " << (i % 8) << " of byte " << i
            << " went undetected";
    }
}

TEST(SegmentFormat, RoundTripAndLookup)
{
    const auto rs = sampleRecords();
    const auto bytes = segmentOf(rs);

    const SegmentLoad l = parseSegment(bytes);
    ASSERT_TRUE(l.ok) << l.error;
    const SegmentView &v = *l.view;
    EXPECT_EQ(v.runCount(), rs.size());
    EXPECT_EQ(v.runsInGroup(0), 4u);
    EXPECT_EQ(v.runsInGroup(1), 4u);
    EXPECT_EQ(v.runsInGroup(7), 0u);
    EXPECT_FALSE(v.find(0, 4).valid());
    EXPECT_FALSE(v.find(2, 0).valid());

    for (const RunRecord &want : rs) {
        const auto ref = v.find(want.group, want.runIdx);
        ASSERT_TRUE(ref.valid());
        EXPECT_EQ(v.cyclesPerTxn(ref), want.cyclesPerTxn)
            << "metric doubles must round-trip bit-exactly";
        EXPECT_EQ(v.runtimeTicks(ref), want.runtimeTicks);
        EXPECT_EQ(v.txns(ref), want.txns);

        const RunRecord got = v.materialize(ref);
        EXPECT_EQ(got.configIdx, want.configIdx);
        EXPECT_EQ(got.seed, want.seed);
        ASSERT_EQ(got.metrics.size(), want.metrics.size());
        for (const auto &kv : want.metrics) {
            const int idx = v.dictIndex(kv.first);
            ASSERT_GE(idx, 0) << kv.first;
            double value = 0.0;
            ASSERT_TRUE(v.metricValue(
                ref, static_cast<std::uint32_t>(idx), &value));
            EXPECT_EQ(value, kv.second) << kv.first;
        }
    }
    EXPECT_EQ(v.dictIndex("no.such.metric"), -1);
}

TEST(SegmentFormat, EmptySegmentParses)
{
    const auto bytes = segmentOf({});
    const SegmentLoad l = parseSegment(bytes);
    ASSERT_TRUE(l.ok) << l.error;
    EXPECT_EQ(l.view->runCount(), 0u);
    EXPECT_TRUE(l.view->dictionary().empty());
}

TEST(SegmentFormat, TruncationSweepRejectsEveryPrefix)
{
    expectEveryPrefixRejected(segmentOf(sampleRecords()));
}

TEST(SegmentFormat, BitFlipSweepRejectsEveryFlip)
{
    expectEveryFlipRejected(segmentOf(sampleRecords()));
}

TEST(SegmentFormat, LegacySummaryFooterStillOpens)
{
    // Older writers appended per-group summaries after the records.
    // Such a segment must parse to the same records, reject every
    // truncation and flip, and serve a store the same reports as
    // the JSONL journal it exports.
    const auto rs = sampleRecords();
    const auto legacy = withLegacyFooter(segmentOf(rs), rs);
    ASSERT_EQ(legacy.size(), segmentOf(rs).size() + 2 * 48);

    const SegmentLoad l = parseSegment(legacy);
    ASSERT_TRUE(l.ok) << l.error;
    ASSERT_EQ(l.view->runCount(), rs.size());
    for (const RunRecord &want : rs) {
        const RunRecord got =
            l.view->materialize(l.view->find(want.group, want.runIdx));
        EXPECT_EQ(ResultStore::runLineFor(got),
                  ResultStore::runLineFor(want));
        EXPECT_EQ(ResultStore::metricsLineFor(got),
                  ResultStore::metricsLineFor(want));
    }
    expectEveryPrefixRejected(legacy);
    expectEveryFlipRejected(legacy);
    // A count whose byte size wraps around to the real footer's
    // (48 * (2 + 2^60) == 96 mod 2^64) is refused, checksum or not.
    EXPECT_FALSE(
        parseSegment(withFooterCount(legacy, 2 + (1ull << 60))).ok);
    EXPECT_FALSE(parseSegment(withFooterCount(legacy, 3)).ok);

    // A compacted store whose manifest names the legacy segment,
    // with one journal run after it.
    const std::string dir = freshDir("legacy");
    const std::string twin = freshDir("legacy_twin");
    std::filesystem::create_directories(dir + "/segments");
    {
        std::ofstream seg(dir + "/segments/seg-000001.vseg",
                          std::ios::binary);
        seg.write(reinterpret_cast<const char *>(legacy.data()),
                  static_cast<std::streamsize>(legacy.size()));
        StoreHeader h = twoGroupHeader();
        h.version = 2;
        sim::JsonWriter w;
        w.field("type", std::string("segment"));
        w.field("file", std::string("segments/seg-000001.vseg"));
        w.field("runs", static_cast<std::uint64_t>(rs.size()));
        w.field("fnv", sim::format("%016llx",
                                   static_cast<unsigned long long>(
                                       l.view->checksum())));
        std::ofstream f(dir + "/manifest.jsonl", std::ios::binary);
        f << ResultStore::headerLineFor(h) << '\n'
          << w.str() << '\n'
          << ResultStore::runLineFor(record(0, 4)) << '\n'
          << ResultStore::metricsLineFor(record(0, 4)) << '\n';
    }
    std::ostringstream jsonl;
    ResultStore::openReadOnly(dir)->exportJsonl(jsonl);
    std::filesystem::create_directories(twin);
    {
        std::ofstream f(twin + "/manifest.jsonl", std::ios::binary);
        f << jsonl.str();
    }
    std::ostringstream twinJsonl;
    ResultStore::openReadOnly(twin)->exportJsonl(twinJsonl);
    EXPECT_EQ(twinJsonl.str(), jsonl.str());
    EXPECT_EQ(ResultStore::openReadOnly(dir)->totalRuns(), 9u);
    EXPECT_EQ(campaignStatus(dir).totalRuns, 9u);
    EXPECT_EQ(campaignReport(dir).text, campaignReport(twin).text);
    EXPECT_EQ(
        campaignMetricReport(dir, "system.mem.bus.l2_misses").text,
        campaignMetricReport(twin, "system.mem.bus.l2_misses").text);
    EXPECT_EQ(campaignMetricReport(dir, "list").text,
              campaignMetricReport(twin, "list").text);
}

TEST(StoreCompaction, CompactReopenPreservesEverything)
{
    const std::string dir = freshDir("preserve");
    auto store = ResultStore::openOrCreate(dir, twoGroupHeader());
    // Out-of-order appends: the prefix must not depend on arrival
    // order.
    for (std::size_t i : {1u, 0u, 3u, 2u})
        for (std::size_t g = 0; g < 2; ++g)
            store->appendRun(record(g, i));
    PlanRecord plan;
    plan.runLength = 2000;
    plan.numRuns = 12;
    store->appendPlan(plan);

    const auto metric0 = store->groupMetric(0);
    const auto metric1 = store->groupMetric(1);
    const auto misses =
        store->groupMetricNamed(0, "system.mem.bus.l2_misses");
    const auto names = store->metricNames();

    const auto res = store->compact();
    EXPECT_TRUE(res.performed);
    EXPECT_EQ(res.runs, 8u);
    EXPECT_EQ(store->segmentRunCount(), 8u);
    EXPECT_EQ(store->tailRunCount(), 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/" +
                                        res.segmentFile));

    // In-memory view unchanged by the swap.
    EXPECT_EQ(store->groupMetric(0), metric0);
    EXPECT_EQ(store->groupMetric(1), metric1);
    EXPECT_EQ(
        store->groupMetricNamed(0, "system.mem.bus.l2_misses"),
        misses);
    EXPECT_EQ(store->metricNames(), names);

    // A second compaction with nothing new is a no-op.
    EXPECT_FALSE(store->compact().performed);

    // The tail keeps working after compaction, and a reopen replays
    // segment + tail to the same state.
    store->appendRun(record(0, 4));
    EXPECT_EQ(store->tailRunCount(), 1u);
    store.reset();

    auto reopened = ResultStore::open(dir);
    EXPECT_EQ(reopened->header().version, 2);
    EXPECT_EQ(reopened->totalRuns(), 9u);
    EXPECT_EQ(reopened->segmentRunCount(), 8u);
    EXPECT_EQ(reopened->tailRunCount(), 1u);
    auto withTail = metric0;
    withTail.push_back(record(0, 4).cyclesPerTxn);
    EXPECT_EQ(reopened->groupMetric(0), withTail);
    EXPECT_EQ(reopened->groupMetric(1), metric1);
    EXPECT_EQ(
        reopened->groupMetricNamed(0, "system.mem.bus.l2_misses")
            .size(),
        5u);
    EXPECT_TRUE(reopened->plan().valid);
    EXPECT_EQ(reopened->plan().numRuns, 12u);
}

TEST(StoreCompaction, ReportByteIdenticalToJsonlTwin)
{
    // The acceptance contract: a compacted store and its pure-JSONL
    // twin produce byte-identical reports.
    const std::string plain = freshDir("twin_plain");
    const std::string compacted = freshDir("twin_compact");
    for (const std::string &dir : {plain, compacted}) {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        for (std::size_t i : {2u, 0u, 1u, 4u, 3u, 5u})
            for (std::size_t g = 0; g < 2; ++g)
                store->appendRun(record(g, i));
    }
    ASSERT_TRUE(ResultStore::open(compacted)->compact().performed);

    EXPECT_EQ(campaignReport(plain).text,
              campaignReport(compacted).text);
    EXPECT_EQ(
        campaignMetricReport(plain, "system.mem.bus.l2_misses")
            .text,
        campaignMetricReport(compacted, "system.mem.bus.l2_misses")
            .text);
    EXPECT_EQ(campaignMetricReport(plain, "list").text,
              campaignMetricReport(compacted, "list").text);
}

TEST(StoreCompaction, ResumeDecisionsBitIdentical)
{
    // Resume decisions are a pure function of the replayed metric
    // prefixes, so bit-identical prefixes mean bit-identical
    // decisions. Check both halves: compacted twin == JSONL twin,
    // and the pilot-capped controller inputs == the full ones.
    const std::string plain = freshDir("dec_plain");
    const std::string compacted = freshDir("dec_compact");
    for (const std::string &dir : {plain, compacted}) {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        for (std::size_t g = 0; g < 2; ++g)
            for (std::size_t i = 0; i < 9; ++i)
                store->appendRun(record(g, i));
    }
    ASSERT_TRUE(ResultStore::open(compacted)->compact().performed);

    CampaignSpec spec;
    const auto sys = core::SystemConfig::testDefault();
    spec.configs = {{"a", sys}, {"b", sys}};
    spec.stop.fixedRuns = 0;
    spec.stop.pilotRuns = 4;
    spec.stop.maxRuns = 20;
    spec.stop.relativeError = 0.02;

    auto a = ResultStore::openReadOnly(plain);
    auto b = ResultStore::openReadOnly(compacted);
    std::vector<std::vector<double>> full, capped, fromSegments;
    for (std::size_t g = 0; g < 2; ++g) {
        full.push_back(a->groupMetric(g));
        capped.push_back(a->groupMetric(g, spec.stop.pilotRuns));
        fromSegments.push_back(
            b->groupMetric(g, spec.stop.pilotRuns));
        EXPECT_EQ(a->groupMetric(g), b->groupMetric(g));
    }
    EXPECT_EQ(capped, fromSegments);

    const auto dFull = decideTargets(spec, full);
    const auto dCapped = decideTargets(spec, capped);
    const auto dSegment = decideTargets(spec, fromSegments);
    ASSERT_EQ(dFull.size(), dCapped.size());
    for (std::size_t g = 0; g < dFull.size(); ++g) {
        EXPECT_EQ(dFull[g].target, dCapped[g].target);
        EXPECT_EQ(dFull[g].reason, dCapped[g].reason);
        EXPECT_EQ(dFull[g].covPercent, dCapped[g].covPercent);
        EXPECT_EQ(dCapped[g].target, dSegment[g].target);
        EXPECT_EQ(dCapped[g].reason, dSegment[g].reason);
    }
}

TEST(StoreCompaction, CompactedCampaignResumesBitIdentical)
{
    // End to end: kill a real campaign, compact the survivor, and
    // the resumed statistics must still match the uninterrupted
    // twin bit for bit.
    campaign::CampaignSpec spec;
    core::SystemConfig sysA = core::SystemConfig::testDefault();
    sysA.mem.perturbMaxNs = 4;
    core::SystemConfig sysB = sysA;
    sysB.mem.l2Assoc *= 2;
    spec.configs = {{"assoc-lo", sysA}, {"assoc-hi", sysB}};
    spec.wl.kind = workload::WorkloadKind::Oltp;
    spec.wl.threadsPerCpu = 2;
    spec.run.warmupTxns = 5;
    spec.run.measureTxns = 20;
    spec.baseSeed = 11;
    spec.stop.fixedRuns = 4;

    const std::string whole = freshDir("resume_whole");
    const std::string killed = freshDir("resume_killed");
    campaign::runCampaign(spec, whole);

    campaign::CampaignOptions opt;
    opt.interruptAfter = 3;
    const auto first = campaign::runCampaign(spec, killed, opt);
    ASSERT_TRUE(first.interrupted);
    ASSERT_TRUE(
        ResultStore::open(killed)->compact().performed);

    const auto second = campaign::runCampaign(spec, killed);
    EXPECT_TRUE(second.complete);

    auto a = ResultStore::openReadOnly(whole);
    auto b = ResultStore::openReadOnly(killed);
    ASSERT_EQ(a->totalRuns(), b->totalRuns());
    for (std::size_t g = 0; g < spec.numGroups(); ++g)
        EXPECT_EQ(a->groupMetric(g), b->groupMetric(g))
            << "group " << g;
    EXPECT_EQ(campaignReport(whole).text,
              campaignReport(killed).text);
}

TEST(StoreCompaction, AutoCompactsPastTailThreshold)
{
    // A journal one run short of the 8192-run threshold, written
    // with the store's own line builders (no fsync per record).
    const std::string dir = freshDir("autocompact");
    std::filesystem::create_directories(dir);
    {
        std::ofstream f(dir + "/manifest.jsonl", std::ios::binary);
        f << ResultStore::headerLineFor(twoGroupHeader()) << '\n';
        for (std::size_t k = 0; k < 8191; ++k) {
            const RunRecord r = record(k % 2, k / 2);
            f << ResultStore::runLineFor(r) << '\n'
              << ResultStore::metricsLineFor(r) << '\n';
        }
    }
    {
        auto store = ResultStore::open(dir);
        EXPECT_EQ(store->segmentRunCount(), 0u);
        EXPECT_EQ(store->tailRunCount(), 8191u);
        // The 8192nd run reaches the threshold: compacted on append.
        store->appendRun(record(1, 4095));
        EXPECT_EQ(store->segmentRunCount(), 8192u);
        EXPECT_EQ(store->tailRunCount(), 0u);
    }

    auto store = ResultStore::openReadOnly(dir);
    EXPECT_EQ(store->segmentRunCount(), 8192u);
    EXPECT_EQ(store->tailRunCount(), 0u);
    ASSERT_EQ(store->groupMetric(1).size(), 4096u);
    EXPECT_EQ(store->groupMetric(1)[4095],
              record(1, 4095).cyclesPerTxn);
}

TEST(StoreCompaction, CompactionDeletesReplacedSegments)
{
    // Every compaction but the first replaces a segment, and a
    // killed one may leave an orphan: only the segment the manifest
    // names survives.
    const std::string dir = freshDir("sweep");
    auto store = ResultStore::openOrCreate(dir, twoGroupHeader());
    ResultStore::CompactResult last;
    for (std::size_t i = 0; i < 3; ++i) {
        store->appendRun(record(0, i));
        if (i == 2) {
            std::ofstream orphan(dir + "/segments/seg-000099.vseg");
            orphan << "left by a killed compaction";
        }
        last = store->compact();
        ASSERT_TRUE(last.performed);
    }
    EXPECT_EQ(last.segmentFile, "segments/seg-000003.vseg");
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/segments"))
        files.push_back("segments/" + e.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{last.segmentFile});

    auto reader = ResultStore::openReadOnly(dir);
    EXPECT_EQ(reader->segmentRunCount(), 3u);
    EXPECT_EQ(reader->groupMetric(0).size(), 3u);
}

TEST(StoreCompaction, ExportRoundTripsThroughAFreshStore)
{
    const std::string dir = freshDir("export_src");
    const std::string copy = freshDir("export_copy");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        for (std::size_t g = 0; g < 2; ++g)
            for (std::size_t i = 0; i < 3; ++i)
                store->appendRun(record(g, i));
        PlanRecord plan;
        plan.runLength = 2000;
        plan.numRuns = 12;
        store->appendPlan(plan);
        ASSERT_TRUE(store->compact().performed);
    }

    // Export the compacted store as pure JSONL and replay it cold.
    auto src = ResultStore::openReadOnly(dir);
    std::ostringstream jsonl;
    src->exportJsonl(jsonl);
    std::filesystem::create_directories(copy);
    {
        std::ofstream f(copy + "/manifest.jsonl",
                        std::ios::binary);
        f << jsonl.str();
    }
    auto dst = ResultStore::openReadOnly(copy);
    EXPECT_EQ(dst->header().version, 1);
    EXPECT_EQ(dst->header().fingerprint,
              src->header().fingerprint);
    EXPECT_EQ(dst->totalRuns(), src->totalRuns());
    EXPECT_TRUE(dst->plan().valid);
    for (std::size_t g = 0; g < 2; ++g) {
        EXPECT_EQ(dst->groupMetric(g), src->groupMetric(g));
        EXPECT_EQ(
            dst->groupMetricNamed(g, "system.mem.bus.l2_misses"),
            src->groupMetricNamed(g, "system.mem.bus.l2_misses"));
    }
    EXPECT_EQ(campaignReport(copy).text, campaignReport(dir).text);
}

TEST(StoreCompaction, LiveReaderNeverSeesATornStore)
{
    // Readers race a writer that appends and periodically compacts.
    // Every replayed prefix must be consistent: the expected values
    // for however many runs the reader happened to observe.
    const std::string dir = freshDir("liveread");
    {
        ResultStore::openOrCreate(dir, twoGroupHeader());
    }
    std::atomic<bool> done{false};
    std::thread writer([&] {
        auto store = ResultStore::open(dir);
        for (std::size_t i = 0; i < 40; ++i) {
            store->appendRun(record(0, i));
            if (i % 10 == 9)
                store->compact();
        }
        done.store(true);
    });
    std::size_t observations = 0;
    while (!done.load()) {
        auto reader = ResultStore::openReadOnly(dir);
        const auto xs = reader->groupMetric(0);
        for (std::size_t i = 0; i < xs.size(); ++i)
            ASSERT_EQ(xs[i], record(0, i).cyclesPerTxn)
                << "reader saw a corrupt prefix at run " << i;
        ASSERT_EQ(reader->runsInGroup(0), xs.size());
        ++observations;
    }
    writer.join();
    EXPECT_GT(observations, 0u);

    auto reader = ResultStore::openReadOnly(dir);
    EXPECT_EQ(reader->totalRuns(), 40u);
    EXPECT_EQ(reader->groupMetric(0).size(), 40u);
}

TEST(StoreCompaction, MetricNamesAreTheUnionOfSegmentAndTail)
{
    // Segment runs carry one name set; tail runs alternate two
    // others of the same length, with an empty dump and a reordered
    // list among them. The listing must be the built-ins plus the
    // sorted union.
    using Names = std::vector<std::string>;
    const Names sets[] = {
        {"system.kernel.dispatches", "system.mem.bus.l2_misses"},
        {"system.cpu0.instructions", "system.mem.bus.l2_misses"},
        {"a.first", "system.mem.l1_miss_ratio"},
    };
    const auto withNames = [](std::size_t g, std::size_t i,
                              const Names &names) {
        RunRecord r = record(g, i);
        r.metrics.clear();
        for (const std::string &n : names)
            r.metrics.emplace_back(n, i + 0.5);
        return r;
    };
    const std::string dir = freshDir("metricnames");
    std::set<std::string> names;
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        auto append = [&](const RunRecord &r) {
            store->appendRun(r);
            for (const auto &kv : r.metrics)
                names.insert(kv.first);
        };
        for (std::size_t g = 0; g < 2; ++g)
            for (std::size_t i = 0; i < 4; ++i)
                append(withNames(g, i, sets[0]));
        ASSERT_TRUE(store->compact().performed);
        for (std::size_t g = 0; g < 2; ++g)
            for (std::size_t i = 4; i < 12; ++i) {
                Names n = sets[1 + i % 2];
                if (i == 7)
                    n.clear();
                if (i == 10)
                    std::reverse(n.begin(), n.end());
                append(withNames(g, i, n));
            }
    }
    Names want = {"cycles_per_txn", "runtime_ticks", "txns"};
    want.insert(want.end(), names.begin(), names.end());
    ASSERT_EQ(want.size(), 3u + 5u);
    EXPECT_EQ(ResultStore::openReadOnly(dir)->metricNames(), want);
    EXPECT_EQ(ResultStore::open(dir)->metricNames(), want);
}

TEST(StoreCompaction, ReaderReplaysWhenItsSegmentIsDeleted)
{
    // A reader that read the manifest just before a compaction
    // swapped it and deleted the segment it names must replay the
    // new manifest. The old manifest is served once through a FIFO
    // whose name already points at the new one when the reader
    // comes back.
    const std::string dir = freshDir("sweptread");
    const std::string path = dir + "/manifest.jsonl";
    auto slurp = [&] {
        std::ifstream f(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f), {});
    };
    std::string old;
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0));
        store->compact();
        store->appendRun(record(0, 1));
        old = slurp();
        ASSERT_EQ(store->compact().segmentFile,
                  "segments/seg-000002.vseg");
    }
    ASSERT_NE(old.find("seg-000001"), std::string::npos);
    ASSERT_FALSE(
        std::filesystem::exists(dir + "/segments/seg-000001.vseg"));

    std::filesystem::rename(path, dir + "/new.jsonl");
    ASSERT_EQ(::mkfifo(path.c_str(), 0644), 0);
    std::thread server([&] {
        const int fd = ::open(path.c_str(), O_WRONLY); // meets the reader
        std::filesystem::rename(dir + "/new.jsonl", path);
        EXPECT_EQ(::write(fd, old.data(), old.size()),
                  static_cast<ssize_t>(old.size()));
        ::close(fd);
    });
    auto reader = ResultStore::openReadOnly(dir);
    server.join();
    EXPECT_EQ(reader->segmentRunCount(), 2u);
    EXPECT_EQ(reader->tailRunCount(), 0u);
    EXPECT_EQ(reader->groupMetric(0),
              (std::vector<double>{record(0, 0).cyclesPerTxn,
                                   record(0, 1).cyclesPerTxn}));
}

TEST(StoreCompactionDeathTest, KillNineDuringCompactionLeavesStoreIntact)
{
    const std::string dir = freshDir("kill9");
    auto store = ResultStore::openOrCreate(dir, twoGroupHeader());
    for (std::size_t g = 0; g < 2; ++g)
        for (std::size_t i = 0; i < 3; ++i)
            store->appendRun(record(g, i));
    const std::string before = campaignReport(dir).text;

    // Die after the segment file lands but before the manifest
    // references it — the window a kill -9 would hit.
    EXPECT_EXIT(
        {
            ::setenv("VARSIM_STORE_CRASH_COMPACT", "1", 1);
            store->compact();
        },
        testing::ExitedWithCode(137), "");

    // The parent's store never compacted; the old manifest is still
    // authoritative and the orphan segment is ignored.
    store.reset();
    auto reopened = ResultStore::open(dir);
    EXPECT_EQ(reopened->totalRuns(), 6u);
    EXPECT_EQ(reopened->segmentRunCount(), 0u);
    EXPECT_EQ(campaignReport(dir).text, before);

    // The next compaction atomically overwrites the orphan and
    // completes; the report still doesn't change.
    const auto res = reopened->compact();
    EXPECT_TRUE(res.performed);
    EXPECT_EQ(res.runs, 6u);
    EXPECT_EQ(campaignReport(dir).text, before);
}

/**
 * A compacted store of 2 x 4 runs with one journal run after its
 * segment, whose segment bytes then go through @p damage. Returns
 * the store directory.
 */
template <class Damage>
std::string
damagedStore(const std::string &name, Damage damage)
{
    const std::string dir = freshDir(name);
    std::string segPath;
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        for (const RunRecord &r : sampleRecords())
            store->appendRun(r);
        segPath = dir + "/" + store->compact().segmentFile;
        store->appendRun(record(0, 4));
    }
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream f(segPath, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f), {});
    }
    damage(bytes);
    std::ofstream f(segPath, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    return dir;
}

/** Both opens of @p dir die reporting the segment's checksum. */
void
expectBothOpensDieOfChecksum(const std::string &dir)
{
    EXPECT_DEATH(ResultStore::openReadOnly(dir),
                 "cannot load compacted segment: .*checksum mismatch");
    EXPECT_DEATH(ResultStore::open(dir),
                 "cannot load compacted segment: .*checksum mismatch");
}

TEST(StoreCompactionDeathTest, FlippedRecordKeyIsAChecksumMismatch)
{
    // The last record's run index gains 2^48: keys still increase,
    // so the walk indexes it and only the checksum, awaited after
    // the journal tail's replay, catches the damage.
    expectBothOpensDieOfChecksum(
        damagedStore("flipkey", [](std::vector<std::uint8_t> &b) {
            const std::size_t lastRecord =
                b.size() - 8 - (8 * 8 + 4 + 2 * 12);
            b[lastRecord + 8 + 6] ^= 1;
        }));
}

TEST(StoreCompactionDeathTest, FlippedDictionaryIsAChecksumMismatch)
{
    // The first metric name's first byte, after its u32 length.
    expectBothOpensDieOfChecksum(
        damagedStore("flipdict", [](std::vector<std::uint8_t> &b) {
            b[32 + 4] ^= 0x20;
        }));
}

TEST(StoreCompactionDeathTest, FlippedChecksumIsAChecksumMismatch)
{
    // The stored checksum no longer matches the manifest either;
    // the mismatch with the bytes is what is reported.
    expectBothOpensDieOfChecksum(
        damagedStore("flipfnv", [](std::vector<std::uint8_t> &b) {
            b[b.size() - 3] ^= 0x80;
        }));
}

TEST(StoreCompactionDeathTest, TruncatedSegmentIsAChecksumMismatch)
{
    // The walk fails too; the checksum's verdict wins, as when it
    // ran before the walk.
    expectBothOpensDieOfChecksum(
        damagedStore("truncated", [](std::vector<std::uint8_t> &b) {
            b.resize(b.size() / 2);
        }));
}

TEST(StoreCompactionDeathTest, MissingSegmentIsFatal)
{
    // A reader whose segment is gone replays the manifest once more
    // (a compaction may have replaced it); a manifest that still
    // names the missing file is damage.
    const std::string dir = freshDir("missingseg");
    {
        auto store =
            ResultStore::openOrCreate(dir, twoGroupHeader());
        store->appendRun(record(0, 0));
        std::filesystem::remove(dir + "/" +
                                store->compact().segmentFile);
    }
    EXPECT_DEATH(ResultStore::openReadOnly(dir),
                 "cannot load compacted segment");
}

} // namespace
