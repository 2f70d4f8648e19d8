/**
 * @file
 * The paper's statistical methodology as a user-facing API
 * (Sections 4.1 and 5): variability summaries, wrong-conclusion
 * ratios, confidence-interval and hypothesis-test comparisons,
 * sample-size advice, and the ANOVA-based decision between
 * single-checkpoint and multi-checkpoint sampling.
 */

#ifndef VARSIM_CORE_ANALYSIS_HH
#define VARSIM_CORE_ANALYSIS_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "stats/inference.hh"
#include "stats/summary.hh"

namespace varsim
{
namespace core
{

/** Space-variability profile of one configuration's runs. */
struct VariabilityReport
{
    stats::Summary summary;
    double coefficientOfVariation = 0.0; ///< percent
    double rangeOfVariability = 0.0;     ///< percent

    std::string toString() const;
};

/** Summarize the metric across runs (Section 4.2 metrics). */
VariabilityReport analyze(const std::vector<RunResult> &runs);
VariabilityReport analyze(const std::vector<double> &metric);

/** The same report from a summary already taken. */
VariabilityReport analyze(const stats::Summary &summary);

/** Summarize a named metric (see metricOf(results, name)). */
VariabilityReport analyze(const std::vector<RunResult> &runs,
                          const std::string &name);

/**
 * The Section 5.1 verdict on configurations A and B, which needs
 * only each side's summary: the two confidence intervals, whether
 * they overlap, and the one-sided t-test of the worse mean against
 * the better.
 */
struct Verdict
{
    stats::ConfidenceInterval ciA, ciB;
    bool ciOverlap = true;

    /** One-sided test of H0: mean(worse) == mean(better). */
    stats::TTestResult ttest;

    /** True if B (the smaller mean) is the better configuration. */
    bool bIsBetter = true;

    /**
     * The smallest standard significance level (10%, 5%, 2.5%, 1%,
     * 0.5%) at which H0 is rejected; 1.0 if never.
     */
    double smallestRejectedAlpha = 1.0;

    /** Human-readable verdict of the methodology. */
    std::string verdict() const;
};

/**
 * Judge summarized samples @p a and @p b (n >= 2 each; "cycles per
 * transaction": lower is better) at the given confidence level.
 */
Verdict judge(const stats::Summary &a, const stats::Summary &b,
              double confidence = 0.95);

/**
 * Full comparison of two configurations A and B per Section 5.1: the
 * verdict plus what only the runs themselves give.
 */
struct ComparisonReport : Verdict
{
    stats::Summary a, b;

    /**
     * Fraction of single-run pairs contradicting the mean-based
     * conclusion (Section 4.1's WCR), in percent.
     */
    double wrongConclusionRatio = 0.0;

    std::string toString() const;
};

/**
 * Compare two experiments' metrics ("cycles per transaction": lower
 * is better) at the given confidence level.
 */
ComparisonReport compare(const std::vector<RunResult> &a,
                         const std::vector<RunResult> &b,
                         double confidence = 0.95);
ComparisonReport compare(const std::vector<double> &a,
                         const std::vector<double> &b,
                         double confidence = 0.95);

/**
 * Sample-size advice (Section 5.1.2 / Table 5): given pilot runs of
 * two configurations, the runs per configuration needed to bound the
 * wrong-conclusion probability by @p alpha.
 */
std::size_t recommendRuns(const std::vector<double> &pilot_a,
                          const std::vector<double> &pilot_b,
                          double alpha);

/**
 * Time-variability decision (Section 5.2): one-way ANOVA over groups
 * of runs started from different checkpoints. If significant, the
 * sample must include runs from multiple starting points.
 */
struct TimeVariabilityReport
{
    stats::AnovaResult anova;
    bool needMultipleCheckpoints = false;
    std::string toString() const;
};

TimeVariabilityReport
checkpointAnova(const std::vector<std::vector<double>> &groups,
                double alpha = 0.05);

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_ANALYSIS_HH
