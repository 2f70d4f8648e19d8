#include "campaign/knobs.hh"

#include "sim/number.hh"

namespace varsim
{
namespace campaign
{

namespace
{

bool
fail(std::string *err, std::string msg)
{
    if (err)
        *err = std::move(msg);
    return false;
}

using Sys = core::SystemConfig;
using U = std::uint64_t;

const Knob kKnobs[] = {
    {"cpus", true, {}, [](Sys &s, U n) { s.mem.numNodes = n; }},
    {"l2-assoc", false, {}, [](Sys &s, U n) { s.mem.l2Assoc = n; }},
    {"l2-size", false, {}, [](Sys &s, U n) { s.mem.l2Size = n; }},
    {"dram", false, {}, [](Sys &s, U n) { s.mem.dramLatency = n; }},
    {"perturb", false, {}, [](Sys &s, U n) { s.mem.perturbMaxNs = n; }},
    {"rob", false, {},
     [](Sys &s, U n) { s.cpu.robEntries = static_cast<std::uint32_t>(n); }},
    {"quantum", false, {}, [](Sys &s, U n) { s.os.quantum = n; }},
    {"model", false, {"simple", "ooo"},
     [](Sys &s, U w) {
         s.cpu.model = w ? cpu::CpuConfig::Model::OutOfOrder
                         : cpu::CpuConfig::Model::Simple;
     }},
    {"protocol", false, {"snooping", "directory"},
     [](Sys &s, U w) {
         s.mem.protocol = w ? mem::CoherenceProtocol::Directory
                            : mem::CoherenceProtocol::Snooping;
     }},
    {"prefetch", false, {"on", "off"},
     [](Sys &s, U w) { s.mem.l2NextLinePrefetch = w == 0; }},
};

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : kKnobs)
        if (name == k.name)
            return &k;
    return nullptr;
}

/**
 * Apply one configuration knob ("l2-assoc", "model", ...) to @p sys.
 * Returns false and sets @p err on an unknown knob or a bad value.
 */
bool
applyKnob(core::SystemConfig &sys, const std::string &knob,
          const std::string &value, std::string *err)
{
    const Knob *k = findKnob(knob);
    if (!k) {
        std::string names;
        for (const Knob &each : kKnobs)
            names += std::string(names.empty() ? "" : " ") + each.name;
        return fail(err, "unknown configuration knob '" + knob +
                             "' (" + names + ")");
    }
    if (!k->words[0]) {
        std::uint64_t n = 0;
        if (!sim::parseInteger(value, n))
            return fail(err, knob + " wants an unsigned integer (got '" +
                                 value + "')");
        k->set(sys, n);
        return true;
    }
    for (std::uint64_t w = 0; w < 2; ++w) {
        if (value == k->words[w]) {
            k->set(sys, w);
            return true;
        }
    }
    return fail(err, knob + " wants " + k->words[0] + "|" +
                         k->words[1] + ", got '" + value + "'");
}

/** Split one "knob=v1,v2,v3" axis; false on a malformed axis. */
bool
parseVary(const std::string &arg, std::string &knob,
          std::vector<std::string> &values, std::string *err)
{
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size())
        return fail(err, "vary axis wants knob=v1,v2,... (got '" +
                             arg + "')");
    knob = arg.substr(0, eq);
    values.clear();
    const std::string rest = arg.substr(eq + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const auto comma = rest.find(',', pos);
        const auto end =
            comma == std::string::npos ? rest.size() : comma;
        if (end > pos)
            values.push_back(rest.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (values.empty())
        return fail(err, "vary axis '" + knob + "' has no values");
    return true;
}

/**
 * Expand @p varyAxes ("knob=v1,v2" strings, cartesian) over @p base
 * into named configuration variants. With no axes the grid is the
 * single "base" variant.
 */
bool
buildConfigGrid(const core::SystemConfig &base,
                const std::vector<std::string> &varyAxes,
                std::vector<ConfigVariant> &out, std::string *err)
{
    std::vector<ConfigVariant> grid = {{"base", base}};
    for (const std::string &axis : varyAxes) {
        std::string knob;
        std::vector<std::string> values;
        if (!parseVary(axis, knob, values, err))
            return false;
        const Knob *k = findKnob(knob);
        if (k && k->geometry)
            return fail(err, knob + " cannot be a vary axis (the "
                             "workload geometry is part of the "
                             "campaign identity); submit separate "
                             "campaigns instead");
        std::vector<ConfigVariant> next;
        for (const auto &cv : grid) {
            for (const std::string &v : values) {
                ConfigVariant variant = cv;
                if (!applyKnob(variant.sys, knob, v, err))
                    return false;
                variant.name = cv.name == "base"
                                   ? knob + "=" + v
                                   : cv.name + "," + knob + "=" + v;
                next.push_back(variant);
            }
        }
        grid = std::move(next);
    }
    out = std::move(grid);
    return true;
}

} // anonymous namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

bool
buildSpec(const SpecFields &fields, CampaignSpec &out,
          std::string *err)
{
    CampaignSpec spec;

    core::SystemConfig base;
    for (const auto &kv : fields.base)
        if (!applyKnob(base, kv.first, kv.second, err))
            return false;
    if (!buildConfigGrid(base, fields.vary, spec.configs, err))
        return false;

    if (!workload::kindFromName(fields.workload, spec.wl.kind))
        return fail(err, "unknown workload '" + fields.workload +
                             "' (oltp apache specjbb slashcode "
                             "ecperf barnes ocean)");
    spec.wl.seed = fields.workloadSeed;
    spec.wl.threadsPerCpu = fields.threadsPerCpu;

    spec.run.warmupTxns = fields.warmupTxns;
    spec.run.measureTxns = fields.measureTxns;
    if (!fields.sample.empty() &&
        !core::SampleConfig::parse(fields.sample, spec.run.sample))
        return fail(err, "bad sample spec '" + fields.sample +
                             "' (want design:U:W:M[:conf] with "
                             "design systematic|stratified|"
                             "matched)");
    spec.run.sample.offsetSeed = fields.sampleOffsetSeed;

    spec.baseSeed = fields.baseSeed;
    spec.numCheckpoints = fields.numCheckpoints;
    spec.checkpointStep = fields.checkpointStep;
    if (fields.strategy == "systematic")
        spec.strategy = core::SamplingStrategy::Systematic;
    else if (fields.strategy == "random")
        spec.strategy = core::SamplingStrategy::Random;
    else if (fields.strategy == "stratified")
        spec.strategy = core::SamplingStrategy::Stratified;
    else
        return fail(err, "unknown strategy '" + fields.strategy +
                             "' (systematic, random, stratified)");

    spec.stop.fixedRuns = fields.fixedRuns;
    spec.stop.pilotRuns = fields.pilotRuns;
    spec.stop.maxRuns = fields.maxRuns;
    spec.stop.relativeError = fields.relativeError;
    spec.stop.alpha = fields.alpha < 0.0
                          ? (spec.configs.size() >= 2 ? 0.05 : 0.0)
                          : fields.alpha;
    spec.stop.confidence = fields.confidence;
    spec.budgetTxns = fields.budgetTxns;

    std::string why;
    if (!spec.check(&why))
        return fail(err, std::move(why));
    out = std::move(spec);
    return true;
}

} // namespace campaign
} // namespace varsim
