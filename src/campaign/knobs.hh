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
#include <string>
#include <vector>

#include "campaign/spec.hh"

namespace varsim
{
namespace campaign
{

/**
 * Apply one configuration knob ("l2-assoc", "model", ...) to @p sys.
 * Returns false and sets @p err on an unknown knob or a bad value.
 * The knob set is the `--vary` vocabulary; "cpus" is additionally
 * accepted for base configurations.
 */
bool applyKnob(core::SystemConfig &sys, const std::string &knob,
               const std::string &value, std::string *err);

/**
 * Split one "knob=v1,v2,v3" axis description. Returns false and
 * sets @p err on a malformed axis (no '=', no values).
 */
bool parseVary(const std::string &arg, std::string &knob,
               std::vector<std::string> &values, std::string *err);

/**
 * Expand @p varyAxes ("knob=v1,v2" strings, cartesian) over @p base
 * into named configuration variants, exactly as the CLI's --vary
 * flags do. With no axes the grid is the single "base" variant.
 */
bool buildConfigGrid(const core::SystemConfig &base,
                     const std::vector<std::string> &varyAxes,
                     std::vector<ConfigVariant> &out,
                     std::string *err);

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
 * Translate @p fields into a validated CampaignSpec. Returns false
 * and sets @p err on any bad field; @p out is untouched on failure.
 */
bool buildSpec(const SpecFields &fields, CampaignSpec &out,
               std::string *err);

} // namespace campaign
} // namespace varsim

#endif // VARSIM_CAMPAIGN_KNOBS_HH
