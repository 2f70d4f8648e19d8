/**
 * @file
 * The persistence contract, end to end: a simulation restored from a
 * disk archive must be bitwise indistinguishable from the simulation
 * that took the snapshot — same clock, same transaction count, and
 * (the strongest form) a byte-identical next snapshot — for every
 * workload family and both processor models. On top of that, the
 * campaign engine must produce bit-identical stores whether warm-up
 * state came from re-simulation or from the library, and shards must
 * only pay for the configurations their stripe touches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/exec.hh"
#include "ckpt/archive.hh"
#include "ckpt/library.hh"
#include "core/varsim.hh"
#include "sim/file_io.hh"

namespace
{

using namespace varsim;

std::string
freshDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_ckptrt_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

/**
 * One round-trip case: run @p k transactions, snapshot, and compare
 * continuing against restoring. Scientific kernels complete after a
 * single transaction, so they snapshot at the boot boundary (k = 0)
 * and replay their whole program from it.
 */
struct RtCase
{
    workload::WorkloadKind kind;
    cpu::CpuConfig::Model model;
    std::uint32_t k;
    /** Nonzero: this many nodes instead of the test system's 4. */
    std::uint32_t cpus = 0;
};

class CkptRoundTrip : public ::testing::TestWithParam<RtCase>
{};

TEST_P(CkptRoundTrip, DiskRestoreEqualsContinuingBitwise)
{
    const RtCase &c = GetParam();
    core::SystemConfig sys = core::SystemConfig::testDefault();
    sys.mem.perturbMaxNs = 4;
    if (c.cpus)
        sys.mem.numNodes = c.cpus;
    sys.cpu.model = c.model;
    workload::WorkloadParams wl;
    wl.kind = c.kind;
    wl.threadsPerCpu = 2;

    const std::uint64_t more = c.k ? c.k : 1;

    // Trajectory A: warm, snapshot, keep going in the same process.
    core::Simulation a(sys, wl);
    a.seedPerturbation(7);
    if (c.k)
        a.runTransactions(c.k);
    const core::Checkpoint cp = a.checkpoint();
    a.runTransactions(more);

    // Push the snapshot through the full disk path: archive bytes,
    // atomic publication, load, integrity checks.
    ckpt::CheckpointKey key;
    key.sys = sys;
    key.wl = wl;
    key.warmupSeed = 7;
    key.position = c.k;

    ckpt::ArchiveMeta meta;
    meta.keyCanonical = key.canonical();
    meta.digest = key.digest();
    meta.position = c.k;
    meta.warmupSeed = 7;

    const std::string dir = freshDir(
        std::string(workload::kindName(c.kind)) +
        (c.model == cpu::CpuConfig::Model::Simple ? "_simple"
                                                  : "_ooo") +
        "_" + std::to_string(sys.mem.numNodes));
    std::string err;
    ASSERT_TRUE(sim::writeFileAtomic(
        dir, key.digestHex() + ".vckpt",
        ckpt::buildArchive(meta, cp.bytes), &err))
        << err;
    const auto loaded =
        ckpt::loadArchiveFile(dir + "/" + key.digestHex() +
                              ".vckpt");
    ASSERT_TRUE(loaded.ok) << loaded.error;
    ASSERT_EQ(loaded.payload, cp.bytes)
        << "disk round trip changed the snapshot";

    // Trajectory B: restore from the disk bytes, run the same tail.
    core::Checkpoint fromDisk;
    fromDisk.bytes = loaded.payload;
    auto b = core::Simulation::restore(sys, wl, fromDisk);
    EXPECT_EQ(b->totalTxns(), c.k);
    b->runTransactions(more);

    EXPECT_EQ(a.now(), b->now());
    EXPECT_EQ(a.totalTxns(), b->totalTxns());

    // Strongest equivalence: the *entire* simulator state agrees,
    // byte for byte, after both tails.
    EXPECT_EQ(a.checkpoint().bytes, b->checkpoint().bytes)
        << "restored state diverged from the original";
}

const RtCase rtCases[] = {
    {workload::WorkloadKind::Oltp, cpu::CpuConfig::Model::Simple,
     15},
    {workload::WorkloadKind::Oltp, cpu::CpuConfig::Model::OutOfOrder,
     15},
    // The paper's Table 5 system size: every node's tags feed the
    // snoop filter the bus rebuilds on restore.
    {workload::WorkloadKind::Oltp, cpu::CpuConfig::Model::OutOfOrder,
     15, 16},
    {workload::WorkloadKind::Apache, cpu::CpuConfig::Model::Simple,
     15},
    {workload::WorkloadKind::Apache,
     cpu::CpuConfig::Model::OutOfOrder, 15},
    {workload::WorkloadKind::SpecJbb, cpu::CpuConfig::Model::Simple,
     15},
    {workload::WorkloadKind::SpecJbb,
     cpu::CpuConfig::Model::OutOfOrder, 15},
    {workload::WorkloadKind::Slashcode,
     cpu::CpuConfig::Model::Simple, 15},
    {workload::WorkloadKind::Slashcode,
     cpu::CpuConfig::Model::OutOfOrder, 15},
    {workload::WorkloadKind::EcPerf, cpu::CpuConfig::Model::Simple,
     15},
    {workload::WorkloadKind::EcPerf,
     cpu::CpuConfig::Model::OutOfOrder, 15},
    {workload::WorkloadKind::Barnes, cpu::CpuConfig::Model::Simple,
     0},
    {workload::WorkloadKind::Barnes,
     cpu::CpuConfig::Model::OutOfOrder, 0},
    {workload::WorkloadKind::Ocean, cpu::CpuConfig::Model::Simple,
     0},
    {workload::WorkloadKind::Ocean,
     cpu::CpuConfig::Model::OutOfOrder, 0},
};

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CkptRoundTrip, ::testing::ValuesIn(rtCases),
    [](const ::testing::TestParamInfo<RtCase> &info) {
        return std::string(workload::kindName(info.param.kind)) +
               (info.param.model == cpu::CpuConfig::Model::Simple
                    ? "_Simple"
                    : "_OutOfOrder") +
               (info.param.cpus == 0
                    ? ""
                    : "_" + std::to_string(info.param.cpus) + "cpu");
    });

// The measured-run view of the same contract: every metric of a run
// started from a disk-round-tripped snapshot equals the in-memory
// run's, down to the last bit of the doubles (%.17g-exact).
TEST(CkptRoundTrip, MeasuredMetricsAreBitwiseEqualFromDisk)
{
    core::SystemConfig sys = core::SystemConfig::testDefault();
    sys.mem.perturbMaxNs = 4;
    workload::WorkloadParams wl;
    wl.kind = workload::WorkloadKind::Oltp;
    wl.threadsPerCpu = 2;

    core::Simulation warmer(sys, wl);
    warmer.seedPerturbation(7);
    warmer.runTransactions(10);
    const core::Checkpoint cp = warmer.checkpoint();

    const std::string dir = freshDir("metrics");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    ckpt::CheckpointKey key;
    key.sys = sys;
    key.wl = wl;
    key.warmupSeed = 7;
    key.position = 10;
    ASSERT_TRUE(lib->publish(key, cp));
    core::Checkpoint fromDisk;
    ASSERT_TRUE(lib->fetch(key, fromDisk));

    core::RunConfig rc;
    rc.measureTxns = 30;
    rc.perturbSeed = 99;
    rc.windowTxns = 10;
    const auto mem = core::runFromCheckpoint(sys, wl, cp, rc);
    const auto disk =
        core::runFromCheckpoint(sys, wl, fromDisk, rc);

    EXPECT_EQ(mem.cyclesPerTxn, disk.cyclesPerTxn);
    EXPECT_EQ(mem.runtimeTicks, disk.runtimeTicks);
    EXPECT_EQ(mem.txns, disk.txns);
    EXPECT_EQ(mem.windows, disk.windows);
    EXPECT_EQ(mem.mem.l2Misses, disk.mem.l2Misses);
    EXPECT_EQ(mem.os.dispatches, disk.os.dispatches);
    EXPECT_EQ(mem.cpu.instructions, disk.cpu.instructions);
    EXPECT_EQ(sim::format("%.17g", mem.cyclesPerTxn),
              sim::format("%.17g", disk.cyclesPerTxn));
}

// ---------------------------------------------------------------
// Campaign integration.

campaign::CampaignSpec
ckptSpec()
{
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
    spec.stop.fixedRuns = 3;
    spec.numCheckpoints = 2;
    spec.checkpointStep = 15;
    return spec;
}

std::vector<std::vector<double>>
allMetrics(const std::string &dir,
           const campaign::CampaignSpec &spec)
{
    auto store = campaign::ResultStore::open(dir);
    std::vector<std::vector<double>> out;
    for (std::size_t g = 0; g < spec.numGroups(); ++g)
        out.push_back(store->groupMetric(g));
    return out;
}

TEST(CkptCampaign, LibraryBackedCampaignIsBitIdentical)
{
    const auto spec = ckptSpec();

    // Baseline: classic in-memory warm-up.
    const std::string plain = freshDir("camp-plain");
    const auto base = campaign::runCampaign(spec, plain);
    ASSERT_TRUE(base.complete);
    EXPECT_EQ(base.checkpointsRestored, 0u);
    EXPECT_EQ(base.checkpointsWarmed, 4u); // 2 configs x 2 positions

    // First library-backed campaign: all misses, publishes 4.
    const std::string libDir = freshDir("camp-lib");
    campaign::CampaignOptions opt;
    opt.ckptDir = libDir;
    const std::string first = freshDir("camp-first");
    const auto miss = campaign::runCampaign(spec, first, opt);
    ASSERT_TRUE(miss.complete);
    EXPECT_EQ(miss.checkpointsRestored, 0u);
    EXPECT_EQ(miss.checkpointsWarmed, 4u);

    // Second campaign against the now-warm library: all hits.
    const std::string second = freshDir("camp-second");
    const auto hit = campaign::runCampaign(spec, second, opt);
    ASSERT_TRUE(hit.complete);
    EXPECT_EQ(hit.checkpointsRestored, 4u);
    EXPECT_EQ(hit.checkpointsWarmed, 0u);

    // All three stores hold bit-identical metrics: the library is
    // invisible to results.
    EXPECT_EQ(allMetrics(plain, spec), allMetrics(first, spec));
    EXPECT_EQ(allMetrics(plain, spec), allMetrics(second, spec));

    // The library itself verifies clean.
    auto lib = ckpt::CheckpointLibrary::open(libDir);
    EXPECT_EQ(lib->entries().size(), 4u);
    EXPECT_TRUE(lib->verify().clean());
}

TEST(CkptCampaign, PrewarmThenRunRestoresEverything)
{
    const auto spec = ckptSpec();
    campaign::CampaignOptions opt;
    opt.ckptDir = freshDir("prewarm-lib");

    // `varsim ckpt create`: build the full grid up front...
    const auto w1 = campaign::warmCampaignCheckpoints(spec, opt);
    EXPECT_EQ(w1.warmed, 4u);
    EXPECT_EQ(w1.restored, 0u);
    EXPECT_EQ(w1.libraryEntries, 4u);
    EXPECT_GT(w1.libraryBytes, 0u);

    // ...idempotently: a second create restores instead of warming.
    const auto w2 = campaign::warmCampaignCheckpoints(spec, opt);
    EXPECT_EQ(w2.warmed, 0u);
    EXPECT_EQ(w2.restored, 4u);
    EXPECT_EQ(w2.libraryEntries, 4u);

    // The measuring campaign never re-simulates a warm-up, and its
    // store records the library traffic for `campaign status`.
    const std::string dir = freshDir("prewarm-camp");
    const auto outcome = campaign::runCampaign(spec, dir, opt);
    ASSERT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.checkpointsRestored, 4u);
    EXPECT_EQ(outcome.checkpointsWarmed, 0u);

    const auto st = campaign::campaignStatus(dir);
    ASSERT_TRUE(st.ckpt.valid);
    EXPECT_EQ(st.ckpt.restored, 4u);
    EXPECT_EQ(st.ckpt.warmed, 0u);
    EXPECT_EQ(st.ckpt.entries, 4u);
    EXPECT_NE(st.toString().find("checkpoint library"),
              std::string::npos);

    // The report notes the library without embedding counts (a
    // resumed campaign must report byte-identically).
    const auto rep = campaign::campaignReport(dir);
    EXPECT_NE(rep.text.find("served from library"),
              std::string::npos);
}

TEST(CkptCampaign, ShardOnlyWarmsConfigsItsStripeTouches)
{
    auto spec = ckptSpec();
    spec.stop.fixedRuns = 2;
    spec.stop.maxRuns = 2; // cell stride 2: ids 0..7 over 4 groups

    // Shard 8/8 owns only cell id 7 = (group 3, run 1); group 3 is
    // config 1, so config 0's warm-up must not be paid.
    campaign::CampaignOptions opt;
    opt.shardIndex = 7;
    opt.shardCount = 8;
    const std::string dir = freshDir("shard-one");
    const auto one = campaign::runCampaign(spec, dir, opt);
    EXPECT_EQ(one.runsExecuted, 1u);
    EXPECT_EQ(one.checkpointsWarmed, 2u)
        << "a shard warmed a configuration it never measures";
    EXPECT_EQ(one.checkpointsRestored, 0u);

    // A stripe that owns no cells warms nothing at all.
    campaign::CampaignOptions idle;
    idle.shardIndex = 15;
    idle.shardCount = 16;
    const std::string dir2 = freshDir("shard-idle");
    const auto none = campaign::runCampaign(spec, dir2, idle);
    EXPECT_EQ(none.runsExecuted, 0u);
    EXPECT_EQ(none.checkpointsWarmed, 0u);
    EXPECT_EQ(none.checkpointsRestored, 0u);
}

TEST(CkptCampaign, HoleInLibraryRestoresOnlyThePrefix)
{
    auto spec = ckptSpec();
    spec.numCheckpoints = 3;

    // A campaign that warms everything into an empty library is the
    // reference; then the middle position's object disappears.
    const std::string libDir = freshDir("hole-lib");
    campaign::CampaignOptions opt;
    opt.ckptDir = libDir;
    const std::string full = freshDir("hole-full");
    const auto warmed = campaign::runCampaign(spec, full, opt);
    ASSERT_TRUE(warmed.complete);
    EXPECT_EQ(warmed.checkpointsWarmed, 6u); // 2 configs x 3

    auto lib = ckpt::CheckpointLibrary::open(libDir);
    std::vector<std::uint64_t> positions;
    for (const auto &e : lib->entries())
        positions.push_back(e.position);
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    ASSERT_EQ(positions.size(), 3u);
    for (const auto &e : lib->entries())
        if (e.position == positions[1])
            std::filesystem::remove(libDir + "/objects/" +
                                    e.digestHex + ".vckpt");

    // All three positions are fetched at once, on four workers; only
    // position 0 precedes the hole, so only it is restored, and the
    // position-2 hit is discarded for a re-warm through the hole.
    opt.sharedLibrary = lib.get();
    opt.hostThreads = 4;
    const std::string holed = freshDir("hole-holed");
    std::string err;
    auto exec = campaign::Execution::tryCreate(spec, holed, opt, &err);
    ASSERT_TRUE(exec) << err;
    for (auto work = exec->pendingCells(); !work.empty();
         work = exec->pendingCells()) {
        for (const auto &cell : work)
            exec->prepareCell(cell);
        for (const auto &cell : work)
            exec->runCell(cell);
    }
    EXPECT_EQ(exec->checkpointsRestored(), 2u);
    EXPECT_EQ(exec->checkpointsWarmed(), 4u);

    // Every object is pinned exactly once: the restored prefix by
    // its fetch, the re-warmed positions by their publication. A pin
    // on the discarded position-2 hit would leave it pinned here.
    const auto entries = lib->entries();
    ASSERT_EQ(entries.size(), 6u);
    for (const auto &e : entries)
        lib->unpin(e.digestHex);
    for (const auto &e : entries)
        EXPECT_FALSE(lib->pinned(e.digestHex)) << e.key;
    for (const auto &e : entries)
        lib->pin(e.digestHex); // the execution releases its own
    exec->recordCkptStats();
    exec.reset();

    EXPECT_EQ(campaign::campaignReport(full).text,
              campaign::campaignReport(holed).text);
    EXPECT_EQ(allMetrics(full, spec), allMetrics(holed, spec));
    EXPECT_TRUE(lib->verify().clean());
}

TEST(CkptCampaign, CompletedCampaignRerunWarmsNothing)
{
    const auto spec = ckptSpec();
    const std::string dir = freshDir("rerun");
    const auto first = campaign::runCampaign(spec, dir);
    ASSERT_TRUE(first.complete);
    EXPECT_EQ(first.checkpointsWarmed, 4u);

    // Nothing left to run, so no warm-up happens either — warming
    // is lazy on the cells actually scheduled.
    const auto again = campaign::runCampaign(spec, dir);
    ASSERT_TRUE(again.complete);
    EXPECT_EQ(again.runsExecuted, 0u);
    EXPECT_EQ(again.checkpointsWarmed, 0u);
    EXPECT_EQ(again.checkpointsRestored, 0u);
}

} // namespace
