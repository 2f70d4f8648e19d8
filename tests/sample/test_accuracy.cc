/**
 * @file
 * Sampling accuracy suite: the confidence-bounded estimates of a
 * sampled run must cover the full-detail answer for the same
 * (configuration, seed) at roughly the stated confidence, and the
 * point estimates must land within a small relative error.
 *
 * The full-detail reference for a seed is itself computed through
 * the controller as a single all-detail window (U = M, W = 0, no
 * fast-forward, no mode switches): that measures exactly the same
 * phase of the run with exactly the same boundary convention as the
 * sampled estimate, so the comparison is estimator-vs-population,
 * not phase-vs-phase.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/varsim.hh"

namespace
{

using namespace varsim;

core::SystemConfig
accuracySys()
{
    core::SystemConfig sys = core::SystemConfig::testDefault();
    sys.mem.perturbMaxNs = 4;
    return sys;
}

workload::WorkloadParams
accuracyWl(workload::WorkloadKind kind)
{
    workload::WorkloadParams wl;
    wl.kind = kind;
    wl.threadsPerCpu = 2;
    return wl;
}

core::RunResult
runWith(const workload::WorkloadParams &wl, const char *spec,
        std::uint64_t txns, std::uint64_t seed)
{
    core::RunConfig rc;
    rc.warmupTxns = 50;
    rc.measureTxns = txns;
    rc.perturbSeed = seed;
    EXPECT_TRUE(core::SampleConfig::parse(spec, rc.sample));
    return core::runOnce(accuracySys(), wl, rc);
}

struct Coverage
{
    int ipcIn = 0;
    int missIn = 0;
    int n = 0;
    double worstIpcErr = 0.0; ///< relative, absolute value
};

Coverage
sweep(workload::WorkloadKind kind, const char *spec,
      std::uint64_t txns, int seeds)
{
    const auto wl = accuracyWl(kind);
    // One full-detail window spanning the whole measure phase: the
    // exact population value for this seed.
    const std::string refSpec =
        "systematic:" + std::to_string(txns) + ":0:" +
        std::to_string(txns);

    Coverage cov;
    for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 100 + s;
        const auto ref = runWith(wl, refSpec.c_str(), txns, seed);
        EXPECT_EQ(ref.sampled.windows, 1u);
        EXPECT_EQ(ref.sampled.fastTxns, 0u);
        const double ipcF = ref.sampled.ipcMean;
        const double missF = ref.sampled.l2MissMean;

        const auto r = runWith(wl, spec, txns, seed);
        const auto &ss = r.sampled;
        EXPECT_GE(ss.windows, 2u) << spec;
        cov.ipcIn += (ipcF >= ss.ipcLo && ipcF <= ss.ipcHi);
        cov.missIn +=
            (missF >= ss.l2MissLo && missF <= ss.l2MissHi);
        ++cov.n;
        cov.worstIpcErr = std::max(
            cov.worstIpcErr, std::abs(ss.ipcMean - ipcF) / ipcF);
    }
    return cov;
}

// OLTP, the paper's headline workload: 95% intervals from ~10
// windows per run must cover the full-detail value for at least
// 9 of 10 seeds, and the point estimate must stay within 5%.
TEST(SamplingAccuracy, OltpStratifiedCoversFullDetailReference)
{
    const Coverage cov = sweep(workload::WorkloadKind::Oltp,
                               "stratified:100:15:25", 1000, 10);
    EXPECT_GE(cov.ipcIn, 9) << "IPC coverage " << cov.ipcIn << "/"
                            << cov.n;
    EXPECT_GE(cov.missIn, 9) << "L2-miss coverage " << cov.missIn
                             << "/" << cov.n;
    EXPECT_LT(cov.worstIpcErr, 0.05);
}

// The matched-pair design measures seed-independent windows; its
// estimates must be just as accurate as stratified ones.
TEST(SamplingAccuracy, OltpMatchedPairCoversFullDetailReference)
{
    const Coverage cov = sweep(workload::WorkloadKind::Oltp,
                               "matched:100:15:25", 1000, 8);
    EXPECT_GE(cov.ipcIn, 7);
    EXPECT_GE(cov.missIn, 7);
    EXPECT_LT(cov.worstIpcErr, 0.05);
}

// A second commercial workload with a different sharing profile.
TEST(SamplingAccuracy, SpecJbbStratifiedCoversFullDetailReference)
{
    const Coverage cov = sweep(workload::WorkloadKind::SpecJbb,
                               "stratified:100:15:25", 1000, 8);
    EXPECT_GE(cov.ipcIn, 7);
    EXPECT_GE(cov.missIn, 7);
    EXPECT_LT(cov.worstIpcErr, 0.05);
}

// Scientific workloads complete in one transaction, so the sampled
// run degrades to full detail: zero error by construction, across
// every seed.
TEST(SamplingAccuracy, ScientificFallbackIsExactAcrossSeeds)
{
    const auto sys = accuracySys();
    for (auto kind : {workload::WorkloadKind::Barnes,
                      workload::WorkloadKind::Ocean}) {
        const auto wl = accuracyWl(kind);
        for (std::uint64_t seed = 100; seed < 105; ++seed) {
            core::RunConfig rc;
            rc.warmupTxns = 0;
            rc.measureTxns = 0; // workload default (1 txn)
            rc.perturbSeed = seed;
            EXPECT_TRUE(core::SampleConfig::parse(
                "stratified:100:15:25", rc.sample));
            const auto r = core::runOnce(sys, wl, rc);

            core::RunConfig full = rc;
            full.sample = core::SampleConfig{};
            const auto ref = core::runOnce(sys, wl, full);

            EXPECT_TRUE(r.sampled.fullDetailFallback);
            EXPECT_EQ(r.runtimeTicks, ref.runtimeTicks);
            EXPECT_NEAR(r.sampled.cptMean, ref.cyclesPerTxn,
                        1e-9 * ref.cyclesPerTxn);
        }
    }
}

} // anonymous namespace
