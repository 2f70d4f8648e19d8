/**
 * @file
 * The statistics that take a stats::Summary must give the same bits
 * as their span forms, and core::judge the same verdict as
 * core::compare: campaign reports summarize each group once and
 * judge every pair from those summaries, so any drift between the
 * two forms would change report bytes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/analysis.hh"
#include "stats/inference.hh"
#include "stats/summary.hh"

namespace varsim
{
namespace
{

using stats::ConfidenceInterval;
using stats::Summary;
using stats::TTestResult;

bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void
expectSame(const ConfidenceInterval &x, const ConfidenceInterval &y)
{
    EXPECT_TRUE(sameBits(x.mean, y.mean));
    EXPECT_TRUE(sameBits(x.lo, y.lo));
    EXPECT_TRUE(sameBits(x.hi, y.hi));
    EXPECT_TRUE(sameBits(x.confidence, y.confidence));
}

void
expectSame(const TTestResult &x, const TTestResult &y)
{
    EXPECT_TRUE(sameBits(x.statistic, y.statistic));
    EXPECT_TRUE(sameBits(x.degreesOfFreedom, y.degreesOfFreedom));
    EXPECT_TRUE(sameBits(x.pValueOneSided, y.pValueOneSided));
    EXPECT_TRUE(sameBits(x.pValueTwoSided, y.pValueTwoSided));
}

/** Every form of every statistic over @p a and @p b agrees. */
void
expectFormsAgree(const std::vector<double> &a,
                 const std::vector<double> &b)
{
    SCOPED_TRACE(testing::Message()
                 << "n_a=" << a.size() << " n_b=" << b.size());
    const Summary sa = stats::summarize(a);
    const Summary sb = stats::summarize(b);
    for (double conf : {0.90, 0.95, 0.99}) {
        expectSame(stats::meanConfidenceInterval(sa, conf),
                   stats::meanConfidenceInterval(a, conf));
        expectSame(stats::meanConfidenceInterval(sb, conf),
                   stats::meanConfidenceInterval(b, conf));
    }
    if (a.size() == b.size()) {
        expectSame(stats::pooledTTest(sa, sb),
                   stats::pooledTTest(a, b));
        expectSame(stats::pooledTTest(sb, sa),
                   stats::pooledTTest(b, a));
    }
    expectSame(stats::welchTTest(sa, sb), stats::welchTTest(a, b));
    expectSame(stats::welchTTest(sb, sa), stats::welchTTest(b, a));

    const core::ComparisonReport r = core::compare(a, b, 0.95);
    const core::Verdict v = core::judge(sa, sb, 0.95);
    expectSame(r.ciA, v.ciA);
    expectSame(r.ciB, v.ciB);
    EXPECT_EQ(r.ciOverlap, v.ciOverlap);
    expectSame(r.ttest, v.ttest);
    EXPECT_EQ(r.bIsBetter, v.bIsBetter);
    EXPECT_TRUE(
        sameBits(r.smallestRejectedAlpha, v.smallestRejectedAlpha));
    EXPECT_EQ(r.verdict(), v.verdict());
    EXPECT_TRUE(sameBits(r.a.mean, sa.mean));
    EXPECT_TRUE(sameBits(r.b.stddev, sb.stddev));
    EXPECT_TRUE(sameBits(r.wrongConclusionRatio,
                         100.0 * stats::wrongConclusionRatioAuto(a, b)));
}

TEST(SummaryForms, EqualSpanFormsBitForBit)
{
    std::mt19937_64 rng(2003);
    std::normal_distribution<double> noise(0.0, 1.0);
    auto sample = [&](std::size_t n, double mean, double sd) {
        std::vector<double> xs(n);
        for (double &x : xs)
            x = mean + sd * noise(rng);
        return xs;
    };
    for (std::size_t n = 2; n <= 50; ++n) {
        // Equal sizes (the pooled test), then unequal (Welch's),
        // at differences from none to several standard deviations.
        const double shift = 0.05 * static_cast<double>(n % 7);
        expectFormsAgree(sample(n, 11000.0, 330.0),
                         sample(n, 11000.0 * (1.0 - shift), 330.0));
        const std::size_t m = 2 + (n * 7) % 49;
        if (m != n)
            expectFormsAgree(sample(n, 9000.0, 270.0),
                             sample(m, 9000.0 * (1.0 + shift), 400.0));
    }
}

TEST(SummaryForms, ZeroVariancePairs)
{
    // Zero pooled variance takes the t-tests' degenerate branch.
    expectFormsAgree({5.0, 5.0, 5.0}, {5.0, 5.0, 5.0});
    expectFormsAgree({5.0, 5.0, 5.0}, {3.0, 3.0, 3.0});
    expectFormsAgree({3.0, 3.0}, {5.0, 5.0, 5.0, 5.0});
}

} // namespace
} // namespace varsim
