#include "stats/inference.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "stats/distributions.hh"

namespace varsim
{
namespace stats
{

bool
ConfidenceInterval::overlaps(const ConfidenceInterval &other) const
{
    return lo <= other.hi && other.lo <= hi;
}

ConfidenceInterval
meanConfidenceInterval(std::span<const double> xs, double confidence)
{
    return meanConfidenceInterval(summarize(xs), confidence);
}

ConfidenceInterval
meanConfidenceInterval(const Summary &s, double confidence)
{
    VARSIM_ASSERT(s.n >= 2,
                  "confidence interval needs >= 2 samples, got %zu",
                  s.n);
    const double df = static_cast<double>(s.n - 1);
    const double t = tCriticalTwoSided(confidence, df);
    const double half =
        t * s.stddev / std::sqrt(static_cast<double>(s.n));
    return {s.mean, s.mean - half, s.mean + half, confidence};
}

ConfidenceInterval
differenceConfidenceInterval(std::span<const double> a,
                             std::span<const double> b,
                             double confidence)
{
    VARSIM_ASSERT(a.size() >= 2 && b.size() >= 2,
                  "difference CI needs >= 2 samples per side");
    const Summary sa = summarize(a);
    const Summary sb = summarize(b);
    const double na = static_cast<double>(a.size());
    const double nb = static_cast<double>(b.size());
    const double diff = sa.mean - sb.mean;

    double se, df;
    if (a.size() == b.size()) {
        // Pooled, equal n (the paper's experiment shape).
        const double va = sa.stddev * sa.stddev;
        const double vb = sb.stddev * sb.stddev;
        se = std::sqrt((va + vb) / na);
        df = 2.0 * na - 2.0;
    } else {
        const double va = sa.stddev * sa.stddev / na;
        const double vb = sb.stddev * sb.stddev / nb;
        se = std::sqrt(va + vb);
        const double num = (va + vb) * (va + vb);
        const double den =
            va * va / (na - 1.0) + vb * vb / (nb - 1.0);
        df = den > 0.0 ? num / den : na + nb - 2.0;
    }
    const double t = tCriticalTwoSided(confidence, df);
    return {diff, diff - t * se, diff + t * se, confidence};
}

bool
TTestResult::rejectsAtLevel(double alpha) const
{
    return pValueOneSided < alpha;
}

TTestResult
pooledTTest(std::span<const double> a, std::span<const double> b)
{
    return pooledTTest(summarize(a), summarize(b));
}

TTestResult
pooledTTest(const Summary &sa, const Summary &sb)
{
    VARSIM_ASSERT(sa.n == sb.n,
                  "pooledTTest requires equal sample sizes "
                  "(%zu vs %zu); use welchTTest otherwise",
                  sa.n, sb.n);
    VARSIM_ASSERT(sa.n >= 2, "pooledTTest needs n >= 2");

    const double n = static_cast<double>(sa.n);
    const double va = sa.stddev * sa.stddev;
    const double vb = sb.stddev * sb.stddev;

    TTestResult r;
    r.degreesOfFreedom = 2.0 * n - 2.0;
    const double denom = std::sqrt((va + vb) / n);
    if (denom == 0.0) {
        r.statistic = sa.mean == sb.mean
                          ? 0.0
                          : (sa.mean > sb.mean ? 1e12 : -1e12);
    } else {
        r.statistic = (sa.mean - sb.mean) / denom;
    }
    r.pValueOneSided =
        1.0 - studentTCdf(r.statistic, r.degreesOfFreedom);
    const double tail =
        1.0 - studentTCdf(std::fabs(r.statistic), r.degreesOfFreedom);
    r.pValueTwoSided = std::min(1.0, 2.0 * tail);
    return r;
}

TTestResult
welchTTest(std::span<const double> a, std::span<const double> b)
{
    return welchTTest(summarize(a), summarize(b));
}

TTestResult
welchTTest(const Summary &sa, const Summary &sb)
{
    VARSIM_ASSERT(sa.n >= 2 && sb.n >= 2,
                  "welchTTest needs n >= 2 in both samples");
    const double na = static_cast<double>(sa.n);
    const double nb = static_cast<double>(sb.n);
    const double va = sa.stddev * sa.stddev / na;
    const double vb = sb.stddev * sb.stddev / nb;

    TTestResult r;
    const double denom = std::sqrt(va + vb);
    if (denom == 0.0) {
        r.statistic = sa.mean == sb.mean
                          ? 0.0
                          : (sa.mean > sb.mean ? 1e12 : -1e12);
        r.degreesOfFreedom = na + nb - 2.0;
    } else {
        r.statistic = (sa.mean - sb.mean) / denom;
        const double num = (va + vb) * (va + vb);
        const double den = va * va / (na - 1.0) + vb * vb / (nb - 1.0);
        r.degreesOfFreedom = den > 0.0 ? num / den : na + nb - 2.0;
    }
    r.pValueOneSided =
        1.0 - studentTCdf(r.statistic, r.degreesOfFreedom);
    const double tail =
        1.0 - studentTCdf(std::fabs(r.statistic), r.degreesOfFreedom);
    r.pValueTwoSided = std::min(1.0, 2.0 * tail);
    return r;
}

double
wrongConclusionRatio(std::span<const double> slower,
                     std::span<const double> faster)
{
    VARSIM_ASSERT(!slower.empty() && !faster.empty(),
                  "wrongConclusionRatio on empty sample");
    // Counting pairs with f >= s naively is O(|slower| x |faster|),
    // which dominates campaign reports once groups reach tens of
    // thousands of runs. Sorting the finite "faster" values lets each
    // s count its pairs with one binary search, for the exact same
    // integer count: a NaN on either side never satisfies f >= s, so
    // NaNs are dropped from the sorted copy (they would also break
    // the comparator's strict weak ordering) and contribute nothing,
    // while the denominator keeps every pair.
    std::vector<double> sorted;
    sorted.reserve(faster.size());
    for (double f : faster)
        if (!std::isnan(f))
            sorted.push_back(f);
    std::sort(sorted.begin(), sorted.end());
    std::size_t wrong = 0;
    for (double s : slower) {
        if (std::isnan(s))
            continue;
        wrong += static_cast<std::size_t>(
            sorted.end() -
            std::lower_bound(sorted.begin(), sorted.end(), s));
    }
    return static_cast<double>(wrong) /
           static_cast<double>(slower.size() * faster.size());
}

double
wrongConclusionRatioAuto(std::span<const double> a,
                         std::span<const double> b)
{
    const double ma = mean(a);
    const double mb = mean(b);
    // The configuration with the larger mean metric is the "slower"
    // one; pairs where the other configuration's single run is not
    // strictly smaller contradict the mean-based conclusion.
    if (ma >= mb)
        return wrongConclusionRatio(a, b);
    return wrongConclusionRatio(b, a);
}

std::size_t
meanPrecisionSampleSize(double cov, double relativeError,
                        double confidence)
{
    VARSIM_ASSERT(cov >= 0.0, "negative coefficient of variation");
    VARSIM_ASSERT(relativeError > 0.0, "relativeError must be > 0");
    if (cov == 0.0)
        return 0;

    // Section 5.1.1 builds the interval from Student's t, whose
    // quantile depends on n itself (df = n-1) — the normal deviate
    // underestimates n at small samples. Seed with the normal
    // approximation and iterate n -> ceil((t(n-1) * cov / r)^2) to
    // a fixed point; t shrinks as n grows, so the iteration settles
    // in a few steps (an adjacent 2-cycle resolves to the larger,
    // conservative value).
    auto needed = [&](double t) {
        const double n = std::pow(t * cov / relativeError, 2.0);
        return std::max<std::size_t>(
            2, static_cast<std::size_t>(std::ceil(n)));
    };
    std::size_t n =
        needed(normalQuantile(0.5 * (1.0 + confidence)));
    std::size_t prev = 0;
    for (int iter = 0; iter < 64; ++iter) {
        const std::size_t next = needed(tCriticalTwoSided(
            confidence, static_cast<double>(n - 1)));
        if (next == n)
            return n;
        if (next == prev)
            return std::max(n, next);
        prev = n;
        n = next;
    }
    return n;
}

std::size_t
runsNeededForSignificance(double meanDiff, double varA, double varB,
                          double alpha, std::size_t maxN)
{
    VARSIM_ASSERT(meanDiff > 0.0,
                  "runsNeededForSignificance: meanDiff must be > 0");
    VARSIM_ASSERT(alpha > 0.0 && alpha < 1.0, "bad alpha %f", alpha);
    for (std::size_t n = 2; n <= maxN; ++n) {
        const double dn = static_cast<double>(n);
        const double t = meanDiff / std::sqrt((varA + varB) / dn);
        const double crit = tCriticalOneSided(alpha, 2.0 * dn - 2.0);
        if (t >= crit)
            return n;
    }
    return maxN;
}

AnovaResult
oneWayAnova(const std::vector<std::vector<double>> &groups)
{
    VARSIM_ASSERT(groups.size() >= 2, "ANOVA needs >= 2 groups");

    std::size_t total_n = 0;
    RunningStat grand;
    for (const auto &g : groups) {
        VARSIM_ASSERT(g.size() >= 2,
                      "ANOVA group needs >= 2 observations");
        total_n += g.size();
        for (double x : g)
            grand.add(x);
    }
    const double grandMean = grand.mean();

    double ssBetween = 0.0;
    double ssWithin = 0.0;
    for (const auto &g : groups) {
        const Summary s = summarize(g);
        const double ng = static_cast<double>(g.size());
        ssBetween += ng * (s.mean - grandMean) * (s.mean - grandMean);
        ssWithin += (ng - 1.0) * s.stddev * s.stddev;
    }

    AnovaResult r;
    r.dfBetween = static_cast<double>(groups.size() - 1);
    r.dfWithin = static_cast<double>(total_n - groups.size());
    r.meanSquareBetween = ssBetween / r.dfBetween;
    r.meanSquareWithin =
        r.dfWithin > 0.0 ? ssWithin / r.dfWithin : 0.0;
    if (r.meanSquareWithin <= 0.0) {
        // Degenerate: zero within-group variance. Any between-group
        // difference is then infinitely significant.
        r.fStatistic = ssBetween > 0.0 ? 1e12 : 0.0;
        r.pValue = ssBetween > 0.0 ? 0.0 : 1.0;
        return r;
    }
    r.fStatistic = r.meanSquareBetween / r.meanSquareWithin;
    r.pValue = 1.0 - fCdf(r.fStatistic, r.dfBetween, r.dfWithin);
    return r;
}

} // namespace stats
} // namespace varsim
