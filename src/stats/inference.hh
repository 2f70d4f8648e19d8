/**
 * @file
 * Statistical inference for simulation experiments (paper Section 5).
 *
 * Implements exactly the techniques the paper applies:
 *
 *  - confidence intervals on the mean (Section 5.1.1), using
 *    Student's t below n=50 and the normal distribution above;
 *  - the two-sample hypothesis test of Section 5.1.2 with the paper's
 *    equal-sample-size pooled statistic
 *        t = (y1 - y2) / sqrt((s1^2 + s2^2) / n),  df = 2n - 2,
 *    plus a Welch variant for unequal sizes/variances;
 *  - wrong conclusion ratio (Section 4.1): the fraction of all
 *    single-run comparison pairs that reach the wrong conclusion;
 *  - sample-size estimation (Sections 5.1.1 and 5.1.2): the
 *    mean-precision formula n = (t*S / (r*Y))^2 and the iterative
 *    runs-needed-for-significance search behind Table 5;
 *  - one-way ANOVA (Section 5.2) to decide whether between-checkpoint
 *    (time) variability exceeds within-checkpoint (space) variability.
 */

#ifndef VARSIM_STATS_INFERENCE_HH
#define VARSIM_STATS_INFERENCE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "stats/summary.hh"

namespace varsim
{
namespace stats
{

/** A two-sided confidence interval on a population mean. */
struct ConfidenceInterval
{
    double mean = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double confidence = 0.0;  ///< e.g. 0.95

    /** Half-width of the interval. */
    double halfWidth() const { return 0.5 * (hi - lo); }

    /** True if this interval and @p other share any point. */
    bool overlaps(const ConfidenceInterval &other) const;
};

/**
 * Confidence interval for the mean of @p xs at level @p confidence
 * (paper equation in Section 5.1.1: ybar +/- t*s/sqrt(n)).
 */
ConfidenceInterval meanConfidenceInterval(std::span<const double> xs,
                                          double confidence);

/** As above, from the summary of the sample (n >= 2). */
ConfidenceInterval meanConfidenceInterval(const Summary &s,
                                          double confidence);

/**
 * Confidence interval on mean(a) - mean(b): bounds the *magnitude*
 * of a configuration difference, the complement to the direction
 * question the paper focuses on ("errors related to the magnitude
 * of the difference", Section 5.1). Uses the pooled estimator for
 * equal sample sizes and Welch's otherwise.
 */
ConfidenceInterval
differenceConfidenceInterval(std::span<const double> a,
                             std::span<const double> b,
                             double confidence);

/** Result of a two-sample test of H0: mu_a == mu_b. */
struct TTestResult
{
    double statistic = 0.0;      ///< the t statistic
    double degreesOfFreedom = 0; ///< df used
    double pValueOneSided = 1.0; ///< P(T >= t) under H0
    double pValueTwoSided = 1.0; ///< P(|T| >= |t|) under H0

    /**
     * True if H0 is rejected in favour of mu_a > mu_b at
     * significance level @p alpha (one-sided).
     */
    bool rejectsAtLevel(double alpha) const;
};

/**
 * The paper's pooled two-sample t test (Section 5.1.2), requiring
 * equal sample sizes: statistic (ya - yb)/sqrt((sa^2+sb^2)/n) with
 * 2n-2 degrees of freedom. The alternative hypothesis is
 * mu_a > mu_b (one-sided upper tail).
 */
TTestResult pooledTTest(std::span<const double> a,
                        std::span<const double> b);

/** As above, from the two samples' summaries. */
TTestResult pooledTTest(const Summary &a, const Summary &b);

/**
 * Welch's two-sample t test: no equal-size or equal-variance
 * assumption. Alternative hypothesis mu_a > mu_b.
 */
TTestResult welchTTest(std::span<const double> a,
                       std::span<const double> b);

/** As above, from the two samples' summaries. */
TTestResult welchTTest(const Summary &a, const Summary &b);

/**
 * Wrong conclusion ratio (Section 4.1): given per-run results for a
 * configuration expected to be slower (@p slower) and one expected to
 * be faster (@p faster) — "faster" meaning smaller metric, e.g. cycles
 * per transaction — enumerate all |slower| x |faster| single-run
 * pairs and return the fraction in which the supposedly faster
 * configuration produced the larger value, i.e. the experimenter
 * would conclude the wrong direction. Ties count as wrong (no
 * difference observed where one exists).
 *
 * The "expected" direction is conventionally taken from the sample
 * means, matching the paper: "the correct conclusion is the
 * relationship between the averages of the N runs".
 */
double wrongConclusionRatio(std::span<const double> slower,
                            std::span<const double> faster);

/**
 * As above but determines the direction from the two sample means
 * itself and returns the fraction of pairs contradicting it.
 */
double wrongConclusionRatioAuto(std::span<const double> a,
                                std::span<const double> b);

/**
 * Mean-precision sample-size estimate (Section 5.1.1):
 *    n = (t * S / (r * Y))^2
 * where S/Y is the coefficient of variation (as a fraction, not a
 * percent), r the allowed relative error, and t the two-sided
 * Student-t critical value of the chosen confidence probability at
 * df = n-1. Because t depends on n, the formula is iterated to a
 * fixed point from the normal-deviate seed; at small n the t tail is
 * fatter than the normal's, so the honest answer is a few runs
 * larger than the z-based closed form. Returns 0 for a
 * zero-variability sample (one run already has the exact mean).
 *
 * The paper's worked example: r=0.04, confidence 95%, S/Y = 0.09.
 * The normal deviate (t ~= 2) gives the paper's n ~= 20; the t
 * iteration converges to 22.
 */
std::size_t meanPrecisionSampleSize(double cov, double relativeError,
                                    double confidence);

/**
 * Runs needed for significance (Section 5.1.2, Table 5): given pilot
 * estimates of the two configurations' means and standard deviations,
 * find the smallest per-configuration sample size n >= 2 such that
 * the pooled t statistic exceeds the one-sided critical value at
 * significance level @p alpha with 2n-2 degrees of freedom.
 *
 * @param meanDiff     |mu_a - mu_b| estimate (must be > 0)
 * @param varA, varB   variance estimates for the two configurations
 * @param alpha        significance level (wrong-conclusion bound)
 * @param maxN         search cap; returns maxN if not reached
 */
std::size_t runsNeededForSignificance(double meanDiff, double varA,
                                      double varB, double alpha,
                                      std::size_t maxN = 10000);

/** Result of a one-way analysis of variance. */
struct AnovaResult
{
    double fStatistic = 0.0;
    double dfBetween = 0.0;
    double dfWithin = 0.0;
    double pValue = 1.0;
    double meanSquareBetween = 0.0;
    double meanSquareWithin = 0.0;

    /** True if between-group variability is significant at alpha. */
    bool significantAt(double alpha) const { return pValue < alpha; }
};

/**
 * One-way ANOVA over @p groups (each group = runs from one
 * checkpoint/starting point, Section 5.2). A significant result
 * means time variability cannot be attributed to space variability
 * and the sample must include runs from multiple starting points.
 */
AnovaResult oneWayAnova(const std::vector<std::vector<double>> &groups);

} // namespace stats
} // namespace varsim

#endif // VARSIM_STATS_INFERENCE_HH
