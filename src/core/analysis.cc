#include "core/analysis.hh"

#include <array>
#include <cmath>

#include "sim/logging.hh"

namespace varsim
{
namespace core
{

namespace
{

/** A relative-variability figure: "12.34%" or "n/a" (mean == 0). */
std::string
percentOrNa(double x)
{
    return std::isnan(x) ? std::string("n/a")
                         : sim::format("%.2f%%", x);
}

} // anonymous namespace

std::string
VariabilityReport::toString() const
{
    return sim::format(
        "n=%zu mean=%.4g sd=%.3g CoV=%s range=%s "
        "[min=%.4g max=%.4g]",
        summary.n, summary.mean, summary.stddev,
        percentOrNa(coefficientOfVariation).c_str(),
        percentOrNa(rangeOfVariability).c_str(), summary.min,
        summary.max);
}

VariabilityReport
analyze(const stats::Summary &summary)
{
    VariabilityReport r;
    r.summary = summary;
    r.coefficientOfVariation = summary.coefficientOfVariation();
    r.rangeOfVariability = summary.rangeOfVariability();
    return r;
}

VariabilityReport
analyze(const std::vector<double> &metric)
{
    return analyze(stats::summarize(metric));
}

VariabilityReport
analyze(const std::vector<RunResult> &runs)
{
    return analyze(metricOf(runs));
}

VariabilityReport
analyze(const std::vector<RunResult> &runs, const std::string &name)
{
    return analyze(metricOf(runs, name));
}

std::string
Verdict::verdict() const
{
    const char *winner = bIsBetter ? "B" : "A";
    if (!ciOverlap) {
        return sim::format(
            "%s is better; confidence intervals do not overlap "
            "(wrong-conclusion probability < %.1f%%, t-test bound "
            "%.3g)",
            winner, 100.0 * (1.0 - ciA.confidence),
            smallestRejectedAlpha);
    }
    if (smallestRejectedAlpha < 1.0) {
        return sim::format(
            "%s is likely better; intervals overlap but the t-test "
            "rejects equality at alpha=%.3g",
            winner, smallestRejectedAlpha);
    }
    return "no statistically significant difference - do not draw a "
           "conclusion from these runs";
}

std::string
ComparisonReport::toString() const
{
    return sim::format(
        "A: mean=%.4g sd=%.3g  B: mean=%.4g sd=%.3g  WCR=%.1f%%  "
        "CI(A)=[%.4g,%.4g] CI(B)=[%.4g,%.4g] overlap=%s  t=%.3f "
        "(df=%.0f, p1=%.4g)\n  -> %s",
        a.mean, a.stddev, b.mean, b.stddev, wrongConclusionRatio,
        ciA.lo, ciA.hi, ciB.lo, ciB.hi, ciOverlap ? "yes" : "no",
        ttest.statistic, ttest.degreesOfFreedom,
        ttest.pValueOneSided, verdict().c_str());
}

Verdict
judge(const stats::Summary &a, const stats::Summary &b,
      double confidence)
{
    VARSIM_ASSERT(a.n >= 2 && b.n >= 2,
                  "compare needs >= 2 runs per configuration");
    Verdict v;
    v.bIsBetter = b.mean <= a.mean;

    v.ciA = stats::meanConfidenceInterval(a, confidence);
    v.ciB = stats::meanConfidenceInterval(b, confidence);
    v.ciOverlap = v.ciA.overlaps(v.ciB);

    // One-sided test that the worse configuration's true mean
    // exceeds the better one's.
    const stats::Summary &worse = v.bIsBetter ? a : b;
    const stats::Summary &better = v.bIsBetter ? b : a;
    v.ttest = worse.n == better.n
                  ? stats::pooledTTest(worse, better)
                  : stats::welchTTest(worse, better);

    const std::array<double, 5> levels = {0.10, 0.05, 0.025, 0.01,
                                          0.005};
    for (double alpha : levels) {
        if (v.ttest.rejectsAtLevel(alpha))
            v.smallestRejectedAlpha = alpha;
    }
    return v;
}

ComparisonReport
compare(const std::vector<double> &a, const std::vector<double> &b,
        double confidence)
{
    ComparisonReport r;
    r.a = stats::summarize(a);
    r.b = stats::summarize(b);
    static_cast<Verdict &>(r) = judge(r.a, r.b, confidence);

    // The configuration with the larger mean is the "slower" one
    // (wrongConclusionRatioAuto's rule, from the means just taken).
    r.wrongConclusionRatio =
        100.0 * (r.a.mean >= r.b.mean
                     ? stats::wrongConclusionRatio(a, b)
                     : stats::wrongConclusionRatio(b, a));
    return r;
}

ComparisonReport
compare(const std::vector<RunResult> &a,
        const std::vector<RunResult> &b, double confidence)
{
    return compare(metricOf(a), metricOf(b), confidence);
}

std::size_t
recommendRuns(const std::vector<double> &pilot_a,
              const std::vector<double> &pilot_b, double alpha)
{
    const stats::Summary sa = stats::summarize(pilot_a);
    const stats::Summary sb = stats::summarize(pilot_b);
    const double diff = sa.mean > sb.mean ? sa.mean - sb.mean
                                          : sb.mean - sa.mean;
    if (diff <= 0.0)
        return 10000; // indistinguishable configurations
    return stats::runsNeededForSignificance(
        diff, sa.stddev * sa.stddev, sb.stddev * sb.stddev, alpha);
}

std::string
TimeVariabilityReport::toString() const
{
    return sim::format(
        "ANOVA: F=%.3f (df %g/%g), p=%.4g, MSbetween=%.4g, "
        "MSwithin=%.4g -> %s",
        anova.fStatistic, anova.dfBetween, anova.dfWithin,
        anova.pValue, anova.meanSquareBetween,
        anova.meanSquareWithin,
        needMultipleCheckpoints
            ? "time variability is significant; sample from "
              "multiple starting points"
            : "between-checkpoint variability is explained by "
              "space variability; a single starting point suffices");
}

TimeVariabilityReport
checkpointAnova(const std::vector<std::vector<double>> &groups,
                double alpha)
{
    TimeVariabilityReport r;
    r.anova = stats::oneWayAnova(groups);
    r.needMultipleCheckpoints = r.anova.significantAt(alpha);
    return r;
}

} // namespace core
} // namespace varsim
