#include "sim/statistics.hh"

#include <algorithm>
#include <cmath>

#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace sim
{
namespace statistics
{

void
Distribution::sample(double x)
{
    if (n == 0) {
        lo = hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    ++n;
    total += x;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
}

double
Distribution::stddev() const
{
    if (n < 2)
        return 0.0;
    return std::sqrt(m2 / static_cast<double>(n - 1));
}

namespace
{

const char *const distSuffixes[] = {".count", ".mean", ".stddev",
                                    ".min", ".max"};

} // anonymous namespace

void
Registry::claimName(const std::string &name)
{
    VARSIM_ASSERT(!name.empty(), "statistic with an empty name");
    VARSIM_ASSERT(names.insert(name).second,
                  "duplicate statistic name '%s'", name.c_str());
}

void
Registry::regScalar(const std::string &name, const std::uint64_t *v,
                    std::string desc)
{
    VARSIM_ASSERT(v != nullptr, "null counter for statistic '%s'",
                  name.c_str());
    claimName(name);
    Entry e;
    e.name = name;
    e.desc = std::move(desc);
    e.kind = Kind::Scalar;
    e.scalar = v;
    entries.push_back(std::move(e));
}

void
Registry::regFormula(const std::string &name,
                     std::function<double()> fn, std::string desc)
{
    VARSIM_ASSERT(fn != nullptr, "null formula for statistic '%s'",
                  name.c_str());
    claimName(name);
    Entry e;
    e.name = name;
    e.desc = std::move(desc);
    e.kind = Kind::Formula;
    e.fn = std::move(fn);
    entries.push_back(std::move(e));
}

void
Registry::regDistribution(const std::string &name,
                          const Distribution *d, std::string desc)
{
    VARSIM_ASSERT(d != nullptr,
                  "null distribution for statistic '%s'",
                  name.c_str());
    // Claim the expanded names too: a later scalar "<name>.mean"
    // would silently shadow this distribution's in the dump.
    claimName(name);
    for (const char *suffix : distSuffixes)
        claimName(name + suffix);
    Entry e;
    e.name = name;
    e.desc = std::move(desc);
    e.kind = Kind::Dist;
    e.dist = d;
    entries.push_back(std::move(e));
}

std::vector<std::string>
Registry::statNames() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries) {
        if (e.kind == Kind::Dist) {
            for (const char *suffix : distSuffixes)
                out.push_back(e.name + suffix);
        } else {
            out.push_back(e.name);
        }
    }
    return out;
}

std::string
Registry::description(const std::string &name) const
{
    for (const Entry &e : entries)
        if (e.name == name)
            return e.desc;
    return "";
}

StatDump
Registry::dump() const
{
    StatDump out;
    out.reserve(entries.size());
    for (const Entry &e : entries) {
        switch (e.kind) {
          case Kind::Scalar:
            out.push_back({e.name,
                           static_cast<double>(*e.scalar)});
            break;
          case Kind::Formula:
            out.push_back({e.name, e.fn()});
            break;
          case Kind::Dist:
            out.push_back({e.name + ".count",
                           static_cast<double>(e.dist->count())});
            out.push_back({e.name + ".mean", e.dist->mean()});
            out.push_back({e.name + ".stddev", e.dist->stddev()});
            out.push_back({e.name + ".min", e.dist->min()});
            out.push_back({e.name + ".max", e.dist->max()});
            break;
        }
    }
    return out;
}

std::string
toJsonl(const StatDump &dump)
{
    JsonWriter w;
    for (const StatValue &sv : dump)
        w.field(sv.name, sv.value);
    return w.str();
}

} // namespace statistics
} // namespace sim
} // namespace varsim
