#include "campaign/spec.hh"

#include "campaign/store.hh"
#include "ckpt/key.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace campaign
{

namespace
{

/**
 * Append one "key=value;" token to the canonical spec string. The
 * rendering (and the system-knob subset, ckpt::appendSystemFields)
 * is shared with the checkpoint-library key so a spec fingerprint
 * and a checkpoint digest canonicalize configurations identically.
 */
template <typename T>
void
field(std::string &out, const char *key, T value)
{
    ckpt::appendField(out, key, std::to_string(value));
}

void
field(std::string &out, const char *key, const std::string &value)
{
    ckpt::appendField(out, key, value);
}

} // anonymous namespace

std::string
CampaignSpec::groupName(std::size_t group) const
{
    std::string name = configs.at(configOf(group)).name;
    if (numCheckpoints)
        name += sim::format(" @ckpt%zu", ckptOf(group));
    return name;
}

std::uint64_t
CampaignSpec::groupSeed(std::size_t group, std::size_t runIdx) const
{
    VARSIM_ASSERT(runIdx < seedStride,
                  "run index %zu exceeds the seed stride %llu: "
                  "group seed ranges would collide",
                  runIdx,
                  static_cast<unsigned long long>(seedStride));
    const std::uint64_t offset =
        static_cast<std::uint64_t>(group) * seedStride +
        static_cast<std::uint64_t>(runIdx);
    VARSIM_ASSERT(offset / seedStride ==
                          static_cast<std::uint64_t>(group) &&
                      baseSeed <= UINT64_MAX - offset,
                  "campaign seed space overflows 64 bits "
                  "(baseSeed %llu, group %zu, stride %llu)",
                  static_cast<unsigned long long>(baseSeed), group,
                  static_cast<unsigned long long>(seedStride));
    return baseSeed + offset;
}

std::uint64_t
CampaignSpec::fingerprint() const
{
    std::string canon;
    canon.reserve(512);
    for (const ConfigVariant &cv : configs) {
        field(canon, "name", cv.name);
        ckpt::appendSystemFields(canon, cv.sys);
    }
    field(canon, "wl", static_cast<int>(wl.kind));
    field(canon, "wlseed",
          static_cast<unsigned long long>(wl.seed));
    field(canon, "tpc", wl.threadsPerCpu);
    field(canon, "warmup",
          static_cast<unsigned long long>(run.warmupTxns));
    field(canon, "txns",
          static_cast<unsigned long long>(run.measureTxns));
    field(canon, "window",
          static_cast<unsigned long long>(run.windowTxns));
    field(canon, "ckpts", numCheckpoints);
    field(canon, "step",
          static_cast<unsigned long long>(checkpointStep));
    field(canon, "strategy", static_cast<int>(strategy));
    field(canon, "seed",
          static_cast<unsigned long long>(baseSeed));
    field(canon, "stride",
          static_cast<unsigned long long>(seedStride));
    field(canon, "fixed", stop.fixedRuns);
    field(canon, "pilot", stop.pilotRuns);
    field(canon, "max", stop.maxRuns);
    field(canon, "relerr", sim::format("%.9g", stop.relativeError));
    field(canon, "alpha", sim::format("%.9g", stop.alpha));
    field(canon, "conf", sim::format("%.9g", stop.confidence));
    field(canon, "budget",
          static_cast<unsigned long long>(budgetTxns));
    // Sampled runs measure an estimate, not the full population — a
    // different experiment, so part of the identity. Appended only
    // when enabled, keeping every full-detail fingerprint stable.
    if (run.sample.enabled()) {
        field(canon, "sdesign",
              static_cast<int>(run.sample.design));
        field(canon, "speriod",
              static_cast<unsigned long long>(
                  run.sample.periodTxns));
        field(canon, "swarm",
              static_cast<unsigned long long>(
                  run.sample.warmupTxns));
        field(canon, "smeasure",
              static_cast<unsigned long long>(
                  run.sample.measureTxns));
        field(canon, "sconf",
              sim::format("%.9g", run.sample.confidence));
        field(canon, "soffseed",
              static_cast<unsigned long long>(
                  run.sample.offsetSeed));
    }
    return ckpt::fnv1a64(ckpt::kFnvOffsetBasis, canon);
}

bool
CampaignSpec::check(std::string *why) const
{
    auto bad = [&](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    if (configs.empty())
        return bad("campaign spec has no configurations");
    for (const ConfigVariant &cv : configs) {
        if (cv.name.empty())
            return bad("campaign configuration without a name");
        std::string sysWhy;
        if (!cv.sys.check(&sysWhy))
            return bad("configuration " + cv.name + ": " + sysWhy);
    }
    if (numCheckpoints && checkpointStep == 0)
        return bad("campaign with checkpoints needs a nonzero "
                   "checkpoint step");
    if (numCheckpoints > kMaxGroups)
        return bad(sim::format(
            "%zu checkpoints exceed the limit of %zu", numCheckpoints,
            kMaxGroups));
    if (numCheckpoints && checkpointStep > UINT64_MAX / numCheckpoints)
        return bad(sim::format(
            "%zu checkpoints of %llu txns each overflow a 64-bit "
            "checkpoint lifetime", numCheckpoints,
            static_cast<unsigned long long>(checkpointStep)));
    if (configs.size() > kMaxGroups / numCheckpointSlots())
        return bad(sim::format(
            "%zu configuration(s) x %zu starting point(s) exceed the "
            "limit of %zu cell groups", configs.size(),
            numCheckpointSlots(), kMaxGroups));
    if (stop.fixedRuns == 0) {
        if (stop.pilotRuns < 2)
            return bad(sim::format(
                "adaptive campaigns need pilotRuns >= 2 (got %zu)",
                stop.pilotRuns));
        if (stop.maxRuns < stop.pilotRuns)
            return bad(sim::format(
                "maxRuns (%zu) below pilotRuns (%zu)", stop.maxRuns,
                stop.pilotRuns));
    }
    // The budget planner measures CoV over pilotRuns runs at each
    // pilot length and must afford that many runs of the budget.
    if (budgetTxns && stop.pilotRuns < 2)
        return bad(sim::format(
            "a budget needs pilotRuns >= 2 (got %zu)", stop.pilotRuns));
    if (budgetTxns && budgetTxns < stop.pilotRuns)
        return bad(sim::format(
            "a budget of %llu txns cannot afford %zu pilot runs",
            static_cast<unsigned long long>(budgetTxns),
            stop.pilotRuns));
    const std::size_t perGroup =
        stop.fixedRuns ? stop.fixedRuns : stop.maxRuns;
    if (perGroup == 0)
        return bad("campaign would run zero runs per group");
    if (perGroup > seedStride)
        return bad(sim::format(
            "per-group run cap %zu exceeds the seed stride %llu; "
            "seeds would collide between groups", perGroup,
            static_cast<unsigned long long>(seedStride)));
    if (stop.relativeError < 0.0 || stop.alpha < 0.0 ||
        stop.alpha >= 1.0)
        return bad(sim::format(
            "nonsensical stopping thresholds (relative error %g, "
            "alpha %g)", stop.relativeError, stop.alpha));
    if (stop.confidence <= 0.0 || stop.confidence >= 1.0)
        return bad(sim::format("confidence must be in (0, 1), got "
                               "%g", stop.confidence));
    return true;
}

void
CampaignSpec::validate() const
{
    std::string why;
    if (!check(&why))
        sim::fatal("%s", why.c_str());
}

} // namespace campaign
} // namespace varsim
