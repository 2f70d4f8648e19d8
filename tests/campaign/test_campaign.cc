/**
 * @file
 * End-to-end campaign-engine tests: the kill-and-resume contract
 * (bit-identical statistics), shard partitioning, idempotent reruns,
 * adaptive stopping below the fixed-K baseline, and checkpointed
 * campaigns resuming onto identical warmed state.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "campaign/campaign.hh"
#include "campaign/knobs.hh"
#include "core/varsim.hh"

namespace
{

using namespace varsim;

std::string
freshDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_campaign_" + name + ".camp");
    std::filesystem::remove_all(p);
    return p.string();
}

/** A two-configuration spec small enough for unit-test budgets. */
campaign::CampaignSpec
smallSpec()
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
    spec.stop.fixedRuns = 4;
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

TEST(Campaign, RunsToCompletionAndMatchesDirectRuns)
{
    const auto spec = smallSpec();
    const std::string dir = freshDir("direct");
    const auto outcome = campaign::runCampaign(spec, dir);
    EXPECT_TRUE(outcome.complete);
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.runsExecuted, 8u);
    EXPECT_EQ(outcome.runsRecorded, 8u);

    // Every stored metric must equal a direct runOnce() with the
    // same (config, seed): storage adds nothing and loses nothing.
    const auto metrics = allMetrics(dir, spec);
    for (std::size_t g = 0; g < spec.numGroups(); ++g) {
        ASSERT_EQ(metrics[g].size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            core::RunConfig rc = spec.run;
            rc.perturbSeed = spec.groupSeed(g, i);
            const auto res = core::runOnce(
                spec.configs[spec.configOf(g)].sys, spec.wl, rc);
            EXPECT_EQ(metrics[g][i], res.cyclesPerTxn)
                << "group " << g << " run " << i;
        }
    }
}

TEST(Campaign, ResumeAfterKillIsBitIdentical)
{
    const auto spec = smallSpec();

    const std::string uninterrupted = freshDir("uninterrupted");
    campaign::runCampaign(spec, uninterrupted);

    // "Kill" the first invocation after 3 durable records; resume.
    const std::string killed = freshDir("killed");
    campaign::CampaignOptions opt;
    opt.hostThreads = 1;
    opt.interruptAfter = 3;
    const auto first = campaign::runCampaign(spec, killed, opt);
    EXPECT_TRUE(first.interrupted);
    EXPECT_FALSE(first.complete);
    EXPECT_EQ(first.runsExecuted, 3u);

    const auto second = campaign::runCampaign(spec, killed);
    EXPECT_TRUE(second.complete);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.runsExecuted, 5u) << "resume repeated work";

    // The whole point: statistics after kill+resume are bitwise
    // equal to an uninterrupted campaign's.
    const auto a = allMetrics(uninterrupted, spec);
    const auto b = allMetrics(killed, spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t g = 0; g < a.size(); ++g) {
        ASSERT_EQ(a[g].size(), b[g].size()) << "group " << g;
        for (std::size_t i = 0; i < a[g].size(); ++i)
            EXPECT_EQ(a[g][i], b[g][i])
                << "group " << g << " run " << i;
    }
    EXPECT_EQ(campaign::campaignReport(uninterrupted).text,
              campaign::campaignReport(killed).text);
}

TEST(Campaign, RerunOfCompleteCampaignIsNoOp)
{
    const auto spec = smallSpec();
    const std::string dir = freshDir("noop");
    campaign::runCampaign(spec, dir);
    const auto again = campaign::runCampaign(spec, dir);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.runsExecuted, 0u);
    EXPECT_EQ(again.runsRecorded, 8u);
}

TEST(Campaign, ShardsPartitionWithoutOverlap)
{
    const auto spec = smallSpec();
    const std::string sharded = freshDir("sharded");

    campaign::CampaignOptions shard0;
    shard0.shardIndex = 0;
    shard0.shardCount = 2;
    const auto first = campaign::runCampaign(spec, sharded, shard0);
    EXPECT_FALSE(first.complete)
        << "one shard cannot complete a two-shard campaign";
    EXPECT_GT(first.runsExecuted, 0u);
    EXPECT_LT(first.runsExecuted, 8u);

    campaign::CampaignOptions shard1;
    shard1.shardIndex = 1;
    shard1.shardCount = 2;
    const auto second =
        campaign::runCampaign(spec, sharded, shard1);
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(first.runsExecuted + second.runsExecuted, 8u)
        << "shards overlapped or left holes";

    // Sharded execution changes nothing about the results.
    const std::string whole = freshDir("whole");
    campaign::runCampaign(spec, whole);
    EXPECT_EQ(allMetrics(sharded, spec), allMetrics(whole, spec));
}

TEST(Campaign, AdaptiveStopsBelowFixedBaseline)
{
    campaign::CampaignSpec spec = smallSpec();
    spec.stop.fixedRuns = 0; // adaptive
    spec.stop.pilotRuns = 4;
    spec.stop.maxRuns = 20;
    spec.stop.relativeError = 0.25; // generous: pilot should do
    const std::string dir = freshDir("adaptive");
    const auto outcome = campaign::runCampaign(spec, dir);
    EXPECT_TRUE(outcome.complete);
    const std::size_t fixedBaseline = 20 * spec.numGroups();
    EXPECT_LT(outcome.runsRecorded, fixedBaseline);
    for (std::size_t g = 0; g < spec.numGroups(); ++g) {
        EXPECT_GE(outcome.recordedRuns[g], spec.stop.pilotRuns);
        EXPECT_LE(outcome.recordedRuns[g], spec.stop.maxRuns);
    }
}

TEST(Campaign, CheckpointedCampaignResumesBitIdentical)
{
    campaign::CampaignSpec spec = smallSpec();
    spec.stop.fixedRuns = 3;
    spec.numCheckpoints = 2;
    spec.checkpointStep = 15;
    ASSERT_EQ(spec.numGroups(), 4u); // 2 configs x 2 checkpoints

    const std::string uninterrupted = freshDir("ckpt-full");
    campaign::runCampaign(spec, uninterrupted);

    const std::string killed = freshDir("ckpt-killed");
    campaign::CampaignOptions opt;
    opt.hostThreads = 1;
    opt.interruptAfter = 5;
    campaign::runCampaign(spec, killed, opt);
    const auto resumed = campaign::runCampaign(spec, killed);
    EXPECT_TRUE(resumed.complete);

    // Checkpoints are re-derived, not persisted: identical warmed
    // state must produce identical metrics across the kill.
    EXPECT_EQ(allMetrics(uninterrupted, spec),
              allMetrics(killed, spec));
}

TEST(Campaign, MetricReportCoversRegistryMetrics)
{
    const auto spec = smallSpec();
    const std::string dir = freshDir("metric-report");
    campaign::runCampaign(spec, dir);

    // Every run recorded its registry dump; the per-metric report
    // must find a registry metric by name and cover both groups.
    const auto rep = campaign::campaignMetricReport(
        dir, "system.mem.bus.l2_misses");
    EXPECT_NE(rep.text.find("system.mem.bus.l2_misses"),
              std::string::npos);
    EXPECT_NE(rep.text.find("assoc-lo"), std::string::npos);
    EXPECT_NE(rep.text.find("assoc-hi"), std::string::npos);
    EXPECT_NE(rep.text.find("n=4"), std::string::npos);
    EXPECT_NE(rep.text.find("CI for the mean"), std::string::npos);

    // Built-in metrics work without the dump.
    const auto builtin =
        campaign::campaignMetricReport(dir, "runtime_ticks");
    EXPECT_NE(builtin.text.find("n=4"), std::string::npos);

    // "list" enumerates what was recorded.
    const auto list = campaign::campaignMetricReport(dir, "list");
    EXPECT_NE(list.text.find("cycles_per_txn"), std::string::npos);
    EXPECT_NE(list.text.find("system.kernel.dispatches"),
              std::string::npos);

    // The report agrees with recomputing from the store directly.
    auto store = campaign::ResultStore::open(dir);
    const auto xs =
        store->groupMetricNamed(0, "system.mem.bus.l2_misses");
    ASSERT_EQ(xs.size(), 4u);
    EXPECT_NE(rep.text.find(core::analyze(xs).toString()),
              std::string::npos);
}

TEST(Campaign, StatusReflectsTheStore)
{
    const auto spec = smallSpec();
    const std::string dir = freshDir("status");
    campaign::runCampaign(spec, dir);
    const auto st = campaign::campaignStatus(dir);
    EXPECT_EQ(st.totalRuns, 8u);
    ASSERT_EQ(st.runsPerGroup.size(), 2u);
    EXPECT_EQ(st.runsPerGroup[0], 4u);
    EXPECT_EQ(st.runsPerGroup[1], 4u);
    ASSERT_EQ(st.groupNames.size(), 2u);
    EXPECT_EQ(st.groupNames[0], "assoc-lo");
    EXPECT_NE(st.header.fingerprint, 0u);
}

TEST(Campaign, BuildSpecRefusesSystemsTheSimulatorCannotBuild)
{
    // Each of these used to build a spec: a bad geometry aborted in
    // a constructor on the first cell, and a value that is not plain
    // digits became whatever strtoull made of it ("abc" -> 0 CPUs).
    const std::pair<std::string, std::string> bad[] = {
        {"cpus", "0"},      {"cpus", "65"},     {"cpus", "abc"},
        {"cpus", "-4"},     {"cpus", " 4"},     {"l2-assoc", "3"},
        {"l2-size", "1000"}, {"rob", "0"},      {"quantum", "0"},
        {"dram", "80ns"},
        // One set of 131,072 ways: a power-of-two set count, but
        // more ways than a 16-bit LRU rank orders.
        {"l2-assoc", "131072"}};
    for (const auto &[knob, value] : bad) {
        campaign::SpecFields f;
        f.base[knob] = value;
        campaign::CampaignSpec spec;
        std::string err;
        EXPECT_FALSE(campaign::buildSpec(f, spec, &err))
            << knob << "=" << value;
        EXPECT_NE(err.find(knob), std::string::npos)
            << knob << "=" << value << ": " << err;
    }

    // A grid axis is checked per configuration, and the refusal
    // names the variant.
    campaign::SpecFields f;
    f.vary = {"l2-assoc=3,4"};
    campaign::CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(campaign::buildSpec(f, spec, &err));
    EXPECT_NE(err.find("l2-assoc=3"), std::string::npos) << err;

    // The edges of the CPU range still build, and so does the
    // widest set a rank orders (one set of 65,536 ways in 4 MiB).
    for (const char *cpus : {"1", "64"}) {
        campaign::SpecFields ok;
        ok.base["cpus"] = cpus;
        EXPECT_TRUE(campaign::buildSpec(ok, spec, &err)) << err;
    }
    campaign::SpecFields widest;
    widest.base["l2-assoc"] = "65536";
    EXPECT_TRUE(campaign::buildSpec(widest, spec, &err)) << err;
    EXPECT_TRUE(core::SystemConfig::paperDefault().check(&err));
    EXPECT_TRUE(core::SystemConfig::testDefault().check(&err));
}

TEST(CampaignDeathTest, ResumeUnderDifferentSpecIsFatal)
{
    const auto spec = smallSpec();
    const std::string dir = freshDir("respec");
    campaign::runCampaign(spec, dir);
    campaign::CampaignSpec other = spec;
    other.baseSeed = 999; // different seed space, same store
    EXPECT_DEATH(campaign::runCampaign(other, dir), "fingerprint");
}

TEST(CampaignDeathTest, ZeroRunStoppingRuleIsFatal)
{
    campaign::CampaignSpec spec = smallSpec();
    spec.stop.fixedRuns = 0;
    spec.stop.pilotRuns = 0; // no pilot, no fixed K: nonsense
    EXPECT_DEATH(
        campaign::runCampaign(spec, freshDir("zerorule")), "");
}

} // namespace
