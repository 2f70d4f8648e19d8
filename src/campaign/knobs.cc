#include "campaign/knobs.hh"

#include <cerrno>
#include <cstdlib>

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

/**
 * Digits only, like the CLI's unsigned flags: no sign, no blanks, no
 * trailing garbage, no overflow.
 */
bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE;
}

} // anonymous namespace

bool
applyKnob(core::SystemConfig &sys, const std::string &knob,
          const std::string &value, std::string *err)
{
    std::uint64_t n = 0;
    const bool numeric = knob == "cpus" || knob == "l2-assoc" ||
                         knob == "l2-size" || knob == "dram" ||
                         knob == "perturb" || knob == "rob" ||
                         knob == "quantum";
    if (numeric && !parseUnsigned(value, n))
        return fail(err, knob + " wants an unsigned integer (got '" +
                             value + "')");
    if (knob == "cpus") {
        sys.mem.numNodes = n;
    } else if (knob == "l2-assoc") {
        sys.mem.l2Assoc = n;
    } else if (knob == "l2-size") {
        sys.mem.l2Size = n;
    } else if (knob == "dram") {
        sys.mem.dramLatency = n;
    } else if (knob == "perturb") {
        sys.mem.perturbMaxNs = n;
    } else if (knob == "rob") {
        sys.cpu.robEntries = static_cast<std::uint32_t>(n);
    } else if (knob == "quantum") {
        sys.os.quantum = n;
    } else if (knob == "model") {
        if (value == "ooo")
            sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
        else if (value == "simple")
            sys.cpu.model = cpu::CpuConfig::Model::Simple;
        else
            return fail(err, "unknown CPU model '" + value +
                                 "' (simple, ooo)");
    } else if (knob == "protocol") {
        if (value == "directory")
            sys.mem.protocol = mem::CoherenceProtocol::Directory;
        else if (value == "snooping")
            sys.mem.protocol = mem::CoherenceProtocol::Snooping;
        else
            return fail(err, "unknown protocol '" + value +
                                 "' (snooping, directory)");
    } else if (knob == "prefetch") {
        if (value != "on" && value != "off")
            return fail(err, "prefetch wants on|off, got '" +
                                 value + "'");
        sys.mem.l2NextLinePrefetch = value == "on";
    } else {
        return fail(err, "unknown configuration knob '" + knob +
                             "' (cpus l2-assoc l2-size dram perturb "
                             "rob quantum model protocol prefetch)");
    }
    return true;
}

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
        if (knob == "cpus")
            return fail(err, "cpus cannot be a vary axis (the "
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
    spec.stop.alpha = fields.alpha >= 0.0
                          ? fields.alpha
                          : (spec.configs.size() >= 2 ? 0.05 : 0.0);
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
