/**
 * @file
 * The campaign-spec construction surface shared by every front end.
 *
 * A campaign arrives as *fields* — base configuration knobs, a list
 * of `--vary knob=v1,v2` grid axes, workload and stopping-rule
 * parameters — from two directions: the `varsim campaign` CLI flags
 * and the `varsim serve` submission schema over a socket. Both must
 * produce bit-identical CampaignSpecs (the daemon's contract is that
 * a served campaign's results equal the CLI's), so the translation
 * lives here once, and both callers use it.
 *
 * Everything validates non-fatally: the daemon must reject a bad
 * submission with an error message, not exit. The CLI wraps the
 * error in sim::fatal itself.
 */

#ifndef VARSIM_CAMPAIGN_KNOBS_HH
#define VARSIM_CAMPAIGN_KNOBS_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace varsim
{
namespace campaign
{

/**
 * One configuration knob: a count (digits only) or one of two
 * words, and where its value goes in a SystemConfig.
 */
struct Knob
{
    const char *name;

    /**
     * The workload's geometry (cpus): part of a campaign's identity,
     * so never a vary axis, and one value for both sides of `compare`.
     */
    bool geometry;

    /** A word knob's two words; null for a count knob. */
    const char *words[2];

    /** Store the count, or the index of the word, in a config. */
    void (*set)(core::SystemConfig &, std::uint64_t);
};

/**
 * Every configuration knob, in a fixed order: the vocabulary of the
 * CLI's knob flags, of a submission's base knobs and (all but the
 * geometry) of `--vary` axes.
 */
std::span<const Knob> knobs();

/**
 * Everything that determines a campaign spec, in the raw form the
 * CLI flags and the submission schema carry it. Defaults equal the
 * CLI defaults, so an empty SpecFields is `varsim campaign run`
 * with no flags.
 */
struct SpecFields
{
    /**
     * Base-configuration knobs the submitter set, knob name to value
     * string ("l2-assoc" -> "4"). Accepts the --vary vocabulary plus
     * "cpus". Applied to the default SystemConfig in name order.
     */
    std::map<std::string, std::string> base;

    /** Grid axes, each "knob=v1,v2,..." (cartesian expansion). */
    std::vector<std::string> vary;

    std::string workload = "oltp";
    std::uint64_t workloadSeed = 12345;
    std::uint64_t threadsPerCpu = 0;

    std::uint64_t warmupTxns = 100;
    std::uint64_t measureTxns = 0; ///< 0 = workload default

    /** Sampling spec "design:U:W:M[:conf]"; empty = full detail. */
    std::string sample;
    std::uint64_t sampleOffsetSeed = 12345;

    std::uint64_t baseSeed = 1000;
    std::uint64_t numCheckpoints = 0;
    std::uint64_t checkpointStep = 400;
    std::string strategy = "systematic";

    std::uint64_t fixedRuns = 0;
    std::uint64_t pilotRuns = 6;
    std::uint64_t maxRuns = 32;
    double relativeError = 0.02;

    /** Negative = automatic (0.05 with >= 2 configs, else off). */
    double alpha = -1.0;
    double confidence = 0.95;
    std::uint64_t budgetTxns = 0;
};

/**
 * Call @p fn(flag, key, member) on each scalar member of @p f, in
 * declaration (= wire) order, with its CLI flag (without "--"; null
 * where no flag sets it) and its submission key. The one place those
 * names are spelled: the CLI's readers, encodeSubmission and
 * decodeSubmission all walk it.
 */
template <typename Fields, typename Fn>
void
forEachField(Fields &f, Fn &&fn)
{
    fn("workload", "workload", f.workload);
    fn("workload-seed", "wl_seed", f.workloadSeed);
    fn("threads-per-cpu", "tpc", f.threadsPerCpu);
    fn("warmup", "warmup", f.warmupTxns);
    fn("txns", "txns", f.measureTxns);
    fn("sample", "sample", f.sample);
    fn("sample-offset-seed", "sample_offset_seed", f.sampleOffsetSeed);
    fn("seed", "seed", f.baseSeed);
    fn("checkpoints", "checkpoints", f.numCheckpoints);
    fn("step", "ckpt_step", f.checkpointStep);
    fn("strategy", "strategy", f.strategy);
    fn("runs", "fixed_runs", f.fixedRuns);
    fn("pilot-runs", "pilot_runs", f.pilotRuns);
    fn("max-runs", "max_runs", f.maxRuns);
    fn("rel-err", "rel_err", f.relativeError);
    fn("alpha", "alpha", f.alpha);
    fn(nullptr, "confidence", f.confidence);
    fn("budget", "budget", f.budgetTxns);
}

/**
 * Translate @p fields into a validated CampaignSpec. Returns false
 * and sets @p err on any bad field; @p out is untouched on failure.
 */
bool buildSpec(const SpecFields &fields, CampaignSpec &out,
               std::string *err);

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_KNOBS_HH
