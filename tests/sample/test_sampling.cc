/**
 * @file
 * Sampling engine unit and determinism tests: SampleConfig parsing,
 * the drop-in (disabled) guarantee against the legacy golden pins, a
 * sampled golden row, every runner honouring the sample config, the
 * controller's edge rules (runs shorter than one period, workloads
 * that outrun the budget), window-placement semantics of the three
 * designs, and run-to-run determinism of sampled results.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/sampling_controller.hh"
#include "core/varsim.hh"

namespace
{

using namespace varsim;

core::SystemConfig
goldenSys()
{
    core::SystemConfig sys = core::SystemConfig::testDefault();
    sys.mem.perturbMaxNs = 4; // exercise the perturbation path
    return sys;
}

workload::WorkloadParams
goldenWl(workload::WorkloadKind kind)
{
    workload::WorkloadParams wl;
    wl.kind = kind;
    wl.threadsPerCpu = 2; // oversubscribed: scheduler in play
    return wl;
}

/** FNV-1a over the 8 little-endian bytes of @p v. */
std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------
// SampleConfig::parse
// ---------------------------------------------------------------

TEST(SampleConfigParse, AcceptsTheThreeDesigns)
{
    core::SampleConfig c;
    ASSERT_TRUE(core::SampleConfig::parse("systematic:200:20:40", c));
    EXPECT_EQ(c.design, core::SampleConfig::Design::Systematic);
    EXPECT_EQ(c.periodTxns, 200u);
    EXPECT_EQ(c.warmupTxns, 20u);
    EXPECT_EQ(c.measureTxns, 40u);
    EXPECT_DOUBLE_EQ(c.confidence, 0.95);
    EXPECT_TRUE(c.enabled());
    EXPECT_EQ(c.toString(), "systematic:200:20:40");

    ASSERT_TRUE(core::SampleConfig::parse("stratified:100:0:25", c));
    EXPECT_EQ(c.design, core::SampleConfig::Design::Stratified);
    EXPECT_EQ(c.warmupTxns, 0u);

    ASSERT_TRUE(core::SampleConfig::parse("matched:50:5:10:0.99", c));
    EXPECT_EQ(c.design, core::SampleConfig::Design::MatchedPair);
    EXPECT_DOUBLE_EQ(c.confidence, 0.99);
}

TEST(SampleConfigParse, RejectsMalformedSpecsUntouched)
{
    const char *bad[] = {
        "",                        // empty
        "systematic",              // missing counts
        "systematic:200:20",       // missing M
        "smarts:200:20:40",        // unknown design
        "systematic:0:0:40",       // zero period
        "systematic:200:20:0",     // zero window
        "systematic:100:80:40",    // W+M > U
        "systematic:200:x:40",     // non-numeric
        "systematic:200:20:40:1.5",// confidence out of (0,1)
        "systematic:200:20:40:0",  // confidence out of (0,1)
        "systematic:200:20:40:0.9:7", // trailing field
    };
    for (const char *text : bad) {
        core::SampleConfig c;
        c.offsetSeed = 777; // sentinel: parse failure leaves it
        EXPECT_FALSE(core::SampleConfig::parse(text, c)) << text;
        EXPECT_FALSE(c.enabled()) << text;
        EXPECT_EQ(c.offsetSeed, 777u) << text;
    }
}

// ---------------------------------------------------------------
// Drop-in guarantee: sampling compiled in but disabled is bitwise
// the seed simulator. Same pins as test_determinism_golden row 0,
// including the OS scheduling-trace hash.
// ---------------------------------------------------------------

TEST(SampledDisabledGolden, MatchesLegacyPinsIncludingTrace)
{
    const auto sys = goldenSys();
    core::Simulation simn(sys, goldenWl(workload::WorkloadKind::Oltp));
    simn.seedPerturbation(11);
    simn.kernel().enableTrace(1u << 20);

    core::RunConfig rc;
    rc.warmupTxns = 10;
    rc.measureTxns = 40;
    rc.perturbSeed = 11;
    ASSERT_FALSE(rc.sample.enabled()); // default design: Off

    const core::RunResult r =
        core::measure(simn, rc, sys.numCpus());

    EXPECT_EQ(r.runtimeTicks, 186781u);
    EXPECT_EQ(r.txns, 40u);
    EXPECT_EQ(r.mem.l2Misses, 3948u);
    EXPECT_EQ(r.os.dispatches, 43u);
    EXPECT_EQ(r.cpu.instructions, 125432u);
    EXPECT_FALSE(r.sampled.enabled);

    std::uint64_t h = 1469598103934665603ull;
    for (const auto &e : simn.kernel().traceEvents()) {
        h = fnv1a(h, e.when);
        h = fnv1a(h, static_cast<std::uint64_t>(e.cpu));
        h = fnv1a(h, static_cast<std::uint64_t>(e.thread));
        h = fnv1a(h, static_cast<std::uint64_t>(e.kind));
    }
    EXPECT_EQ(h, 4213816009097953443ull);
}

// ---------------------------------------------------------------
// Sampled runs: structure, export, and determinism
// ---------------------------------------------------------------

core::RunConfig
sampledRun(const char *spec, std::uint64_t txns,
           std::uint64_t seed = 11)
{
    core::RunConfig rc;
    rc.warmupTxns = 10;
    rc.measureTxns = txns;
    rc.perturbSeed = seed;
    EXPECT_TRUE(core::SampleConfig::parse(spec, rc.sample));
    return rc;
}

// A sampled golden row: one stratified run, pinned bit for bit
// including the OS scheduling trace. The sampled counterpart of
// SampledDisabledGolden; a change to what a sampled run simulates or
// estimates shows here first.
TEST(SampledGolden, StratifiedRunMatchesPinsIncludingTrace)
{
    const auto sys = goldenSys();
    core::Simulation simn(sys, goldenWl(workload::WorkloadKind::Oltp));
    simn.seedPerturbation(11);
    simn.kernel().enableTrace(1u << 20);

    const auto rc = sampledRun("stratified:100:15:25", 300);
    const core::RunResult r =
        core::measure(simn, rc, sys.numCpus());

    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cyclesPerTxn),
              0x40d00a3333333333ull);
    EXPECT_EQ(r.runtimeTicks, 1251798u);
    EXPECT_EQ(r.txns, 300u);
    EXPECT_EQ(r.mem.l2Misses, 19127u);
    EXPECT_TRUE(r.sampled.enabled);
    EXPECT_EQ(r.sampled.periods, 3u);
    EXPECT_EQ(r.sampled.windows, 3u);
    EXPECT_EQ(r.sampled.fastTxns, 180u);
    EXPECT_EQ(r.sampled.warmTxns, 45u);
    EXPECT_EQ(r.sampled.measuredTxns, 75u);

    std::uint64_t h = 1469598103934665603ull;
    for (const auto &e : simn.kernel().traceEvents()) {
        h = fnv1a(h, e.when);
        h = fnv1a(h, static_cast<std::uint64_t>(e.cpu));
        h = fnv1a(h, static_cast<std::uint64_t>(e.thread));
        h = fnv1a(h, static_cast<std::uint64_t>(e.kind));
    }
    EXPECT_EQ(h, 2433845694179584485ull);
}

TEST(SampledRun, IntervalAccountingAndRegistryExport)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Oltp);
    const auto rc = sampledRun("systematic:100:15:25", 400);
    const core::RunResult r = core::runOnce(sys, wl, rc);

    EXPECT_TRUE(r.sampled.enabled);
    EXPECT_EQ(r.sampled.periods, 4u);
    EXPECT_EQ(r.sampled.windows, 4u);
    EXPECT_EQ(r.sampled.measuredTxns, 100u);
    EXPECT_EQ(r.sampled.warmTxns, 60u);
    EXPECT_EQ(r.sampled.fastTxns, 240u);
    EXPECT_FALSE(r.sampled.fullDetailFallback);
    EXPECT_EQ(r.txns, 400u);

    // Confidence-bounded estimates, and the headline metric is the
    // sampled point estimate.
    EXPECT_LE(r.sampled.cptLo, r.sampled.cptMean);
    EXPECT_LE(r.sampled.cptMean, r.sampled.cptHi);
    EXPECT_LT(r.sampled.cptLo, r.sampled.cptHi);
    EXPECT_LE(r.sampled.ipcLo, r.sampled.ipcMean);
    EXPECT_LE(r.sampled.ipcMean, r.sampled.ipcHi);
    EXPECT_GT(r.sampled.ipcMean, 0.0);
    EXPECT_GT(r.sampled.l2MissMean, 0.0);
    EXPECT_LT(r.sampled.l2MissMean, 1.0);
    EXPECT_DOUBLE_EQ(r.cyclesPerTxn, r.sampled.cptMean);

    // The estimates flow out through the metrics registry (and so
    // into campaign stores) under sim.sampled.*.
    auto stat = [&](const char *name) -> double {
        for (const auto &s : r.stats)
            if (s.name == name)
                return s.value;
        ADD_FAILURE() << "stat not dumped: " << name;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(stat("sim.sampled.enabled"), 1.0);
    EXPECT_DOUBLE_EQ(stat("sim.sampled.windows"), 4.0);
    EXPECT_DOUBLE_EQ(stat("sim.sampled.cpt_lo"), r.sampled.cptLo);
    EXPECT_DOUBLE_EQ(stat("sim.sampled.ipc_mean"),
                     r.sampled.ipcMean);
}

TEST(SampledRun, DeterministicAcrossRepeats)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Oltp);
    const auto rc = sampledRun("stratified:100:15:25", 300);

    const core::RunResult a = core::runOnce(sys, wl, rc);
    const core::RunResult b = core::runOnce(sys, wl, rc);

    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_EQ(a.sampled.windows, b.sampled.windows);
    EXPECT_EQ(a.sampled.fastTxns, b.sampled.fastTxns);
    // Bitwise: the estimates are pure functions of (config, seed).
    EXPECT_EQ(a.sampled.cptMean, b.sampled.cptMean);
    EXPECT_EQ(a.sampled.ipcHi, b.sampled.ipcHi);
    EXPECT_EQ(a.statsJsonl(), b.statsJsonl());
}

// Every runner goes through the one measure phase, so each honours
// RunConfig::sample: a fan-out returns, seed for seed, what runOnce
// returns, and a restored run samples its measure phase too.
TEST(SampledRun, EveryRunnerHonoursTheSampleConfig)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Oltp);
    const auto rc = sampledRun("stratified:100:15:25", 300);
    core::ExperimentConfig exp;
    exp.numRuns = 3;
    exp.baseSeed = 21;
    exp.hostThreads = 2;

    const auto many = core::runMany(sys, wl, rc, exp);
    const auto batch = core::runManyBatch({{sys, wl, rc, exp}});
    ASSERT_EQ(many.size(), 3u);
    ASSERT_EQ(batch.front().size(), 3u);
    for (std::size_t i = 0; i < many.size(); ++i) {
        core::RunConfig one = rc;
        one.perturbSeed = exp.baseSeed + i;
        const core::RunResult ref = core::runOnce(sys, wl, one);
        EXPECT_TRUE(ref.sampled.enabled);
        EXPECT_TRUE(many[i].sampled.enabled);
        EXPECT_EQ(many[i].cyclesPerTxn, ref.cyclesPerTxn);
        EXPECT_EQ(many[i].statsJsonl(), ref.statsJsonl());
        EXPECT_EQ(batch.front()[i].statsJsonl(), ref.statsJsonl());
    }

    core::Simulation warmer(sys, wl);
    warmer.seedPerturbation(5);
    warmer.runTransactions(50);
    const core::Checkpoint cp = warmer.checkpoint();
    core::RunConfig restored = rc;
    restored.warmupTxns = 0; // the checkpoint is the warm-up
    const core::RunResult r =
        core::runFromCheckpoint(sys, wl, cp, restored);
    EXPECT_TRUE(r.sampled.enabled);
    EXPECT_EQ(r.sampled.windows, 3u);
    EXPECT_EQ(r.cyclesPerTxn, r.sampled.cptMean);
    const auto fromCp =
        core::runManyFromCheckpoint(sys, wl, cp, restored, exp);
    restored.perturbSeed = exp.baseSeed;
    EXPECT_EQ(fromCp.front().statsJsonl(),
              core::runFromCheckpoint(sys, wl, cp, restored)
                  .statsJsonl());
    EXPECT_TRUE(fromCp.front().sampled.enabled);
}

// A run shorter than one W+M window degrades to full detail: an
// exact answer with a degenerate interval, never an empty estimate.
TEST(SampledRun, ShorterThanOneWindowFallsBackToFullDetail)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Oltp);
    const auto rc = sampledRun("systematic:100:10:20", 15);
    const core::RunResult r = core::runOnce(sys, wl, rc);

    EXPECT_TRUE(r.sampled.fullDetailFallback);
    EXPECT_EQ(r.sampled.windows, 1u);
    EXPECT_EQ(r.sampled.periods, 0u);
    EXPECT_EQ(r.sampled.fastTxns, 0u);
    EXPECT_EQ(r.sampled.measuredTxns, 15u);
    EXPECT_EQ(r.txns, 15u);
    // Degenerate interval: the estimate is the exact value.
    EXPECT_EQ(r.sampled.cptLo, r.sampled.cptMean);
    EXPECT_EQ(r.sampled.cptHi, r.sampled.cptMean);
    EXPECT_GT(r.sampled.cptMean, 0.0);
}

// A remainder too short for another window fast-forwards when at
// least one window was already measured (no fallback, no truncation
// of the transaction budget).
TEST(SampledRun, ShortRemainderFastForwardsAfterFirstWindow)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Oltp);
    const auto rc = sampledRun("systematic:100:20:30", 130);
    const core::RunResult r = core::runOnce(sys, wl, rc);

    EXPECT_FALSE(r.sampled.fullDetailFallback);
    EXPECT_EQ(r.sampled.periods, 1u);
    EXPECT_EQ(r.sampled.windows, 1u);
    EXPECT_EQ(r.sampled.warmTxns, 20u);
    EXPECT_EQ(r.sampled.measuredTxns, 30u);
    EXPECT_EQ(r.sampled.fastTxns, 80u); // 50 in-period + 30 tail
    EXPECT_EQ(r.txns, 130u);
}

// The scientific benchmarks complete in a single transaction, far
// short of any window: the controller must degrade to full detail
// and report the exact full-detail answer.
TEST(SampledRun, ScientificWorkloadYieldsExactFallback)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Barnes);

    core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 0; // use the workload's default (1 for Barnes)
    rc.perturbSeed = 11;
    EXPECT_TRUE(
        core::SampleConfig::parse("systematic:100:10:20", rc.sample));
    const core::RunResult r = core::runOnce(sys, wl, rc);

    // The 1-txn budget is met at the TxnEnd itself (before the
    // trailing End op), so this is the short-run fallback, not the
    // workload-ended one.
    EXPECT_TRUE(r.sampled.fullDetailFallback);
    EXPECT_EQ(r.sampled.windows, 1u);

    // Same configuration without sampling: the trajectories must be
    // identical (the fallback ran every transaction detailed).
    core::RunConfig full = rc;
    full.sample = core::SampleConfig{};
    const core::RunResult ref = core::runOnce(sys, wl, full);
    EXPECT_EQ(r.runtimeTicks, ref.runtimeTicks);
    EXPECT_EQ(r.txns, ref.txns);
    EXPECT_EQ(r.cpu.instructions, ref.cpu.instructions);
    EXPECT_NEAR(r.sampled.cptMean, ref.cyclesPerTxn,
                1e-9 * ref.cyclesPerTxn);
}

// A workload can end during a fast-forward interval before any
// window was measured; whatever ran is the whole population and is
// reported as a degenerate, flagged estimate.
TEST(SampledRun, WorkloadOutrunsBudgetDuringFastForward)
{
    const auto sys = goldenSys();
    const auto wl = goldenWl(workload::WorkloadKind::Barnes);

    core::RunConfig rc;
    rc.warmupTxns = 0;
    rc.measureTxns = 50; // budget >> the 1 txn Barnes delivers
    rc.perturbSeed = 11;
    EXPECT_TRUE(
        core::SampleConfig::parse("systematic:100:10:20", rc.sample));
    const core::RunResult r = core::runOnce(sys, wl, rc);

    EXPECT_TRUE(r.workloadEnded);
    EXPECT_TRUE(r.sampled.fullDetailFallback);
    EXPECT_EQ(r.sampled.windows, 1u);
    EXPECT_GT(r.sampled.cptMean, 0.0);
}

// ---------------------------------------------------------------
// Window placement: the design contract
// ---------------------------------------------------------------

/** Transaction positions of the window-end boundaries of one run. */
std::vector<std::uint64_t>
windowPositions(core::SampleConfig::Design design,
                std::uint64_t perturb_seed)
{
    const auto sys = goldenSys();
    core::Simulation simn(sys,
                          goldenWl(workload::WorkloadKind::Oltp));
    simn.seedPerturbation(perturb_seed);
    simn.runTransactions(10);

    core::SampleConfig cfg;
    cfg.design = design;
    cfg.periodTxns = 100;
    cfg.warmupTxns = 10;
    cfg.measureTxns = 20;

    core::SamplingController ctl(simn, cfg, perturb_seed);
    std::vector<std::uint64_t> pos;
    ctl.setCheckpointSink(
        [&](std::uint64_t, const core::Checkpoint &) {
            pos.push_back(simn.totalTxns());
        });
    ctl.run(400);
    return pos;
}

TEST(WindowPlacement, MatchedPairAlignsAcrossSeeds)
{
    using Design = core::SampleConfig::Design;
    const auto a = windowPositions(Design::MatchedPair, 11);
    const auto b = windowPositions(Design::MatchedPair, 12);
    ASSERT_EQ(a.size(), 4u);
    // Identical placement for every perturbation seed: the pairwise
    // comparison measures the same windows, placement noise cancels.
    EXPECT_EQ(a, b);
}

TEST(WindowPlacement, StratifiedRandomizesAcrossSeeds)
{
    using Design = core::SampleConfig::Design;
    const auto a = windowPositions(Design::Stratified, 11);
    const auto b = windowPositions(Design::Stratified, 12);
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    // Independent placement per run (deterministic per seed).
    EXPECT_NE(a, b);
    EXPECT_EQ(a, windowPositions(Design::Stratified, 11));
}

TEST(WindowPlacement, SystematicPinsWindowsToPeriodEnds)
{
    using Design = core::SampleConfig::Design;
    const auto a = windowPositions(Design::Systematic, 11);
    // Window at the end of each 100-txn unit, after the 10-txn
    // pre-measurement warm-up prefix.
    const std::vector<std::uint64_t> expect = {110, 210, 310, 410};
    EXPECT_EQ(a, expect);
}

} // anonymous namespace
