/**
 * @file
 * Hierarchical metrics registry, in the spirit of gem5's Stats.
 *
 * Every SimObject registers its counters at construction time under
 * its hierarchical instance name ("system.mem.bus.transactions"),
 * either as pointers to the counters it already maintains, as derived
 * formulas evaluated lazily, or as host-side sample distributions.
 * Nothing is computed until dump() is called, so registration and
 * collection are timing-neutral by construction: the simulated
 * schedule of a run with stats dumped is bit-identical to one
 * without.
 *
 * A dump is an ordered list of (name, value) pairs — the order is the
 * registration order, which is fixed by the deterministic
 * construction order of the simulation, so the emitted JSONL schema
 * is stable across runs, hosts, and resumes.
 *
 * One registry per simulation, owned by core::Simulation; there is
 * deliberately no global registry (concurrent simulations share
 * nothing).
 */

#ifndef VARSIM_SIM_STATISTICS_HH
#define VARSIM_SIM_STATISTICS_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace varsim
{
namespace sim
{
namespace statistics
{

/**
 * Host-side accumulator for per-event samples (e.g. bus queueing
 * delay). Welford-style so mean/stddev are numerically stable; not
 * serialized — a restored simulation starts a fresh distribution,
 * exactly like its plain counters-since-restore siblings.
 */
class Distribution
{
  public:
    /** Record one observation. */
    void sample(double x);

    /** Forget everything. */
    void reset() { *this = Distribution{}; }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

  private:
    std::uint64_t n = 0;
    double total = 0.0;
    double m2 = 0.0;
    double mu = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/** One dumped statistic. */
struct StatValue
{
    std::string name;
    double value = 0.0;
};

/** A full per-run dump, in registration order. */
using StatDump = std::vector<StatValue>;

/**
 * The registry itself: named entries, duplicate names are fatal
 * (they would silently shadow each other in the JSONL object).
 */
class Registry
{
  public:
    /**
     * Register a counter by pointer; sampled at dump() time. The
     * pointee must outlive the registry (SimObjects do: the
     * simulation owns both).
     */
    void regScalar(const std::string &name, const std::uint64_t *v,
                   std::string desc = "");

    /** Register a derived value, evaluated lazily at dump() time. */
    void regFormula(const std::string &name,
                    std::function<double()> fn,
                    std::string desc = "");

    /**
     * Register a sample distribution; dumps expand it into
     * <name>.count/.mean/.stddev/.min/.max scalars.
     */
    void regDistribution(const std::string &name,
                         const Distribution *d,
                         std::string desc = "");

    /** True if @p name (or an expansion of it) is registered. */
    bool has(const std::string &name) const
    {
        return names.count(name) > 0;
    }

    /** Registered entries (distributions count once). */
    std::size_t size() const { return entries.size(); }

    /** Registered names in dump order (distributions expanded). */
    std::vector<std::string> statNames() const;

    /** Description of @p name ("" when absent or none given). */
    std::string description(const std::string &name) const;

    /** Sample every entry. Pure: never advances simulated state. */
    StatDump dump() const;

  private:
    enum class Kind
    {
        Scalar,
        Formula,
        Dist
    };

    struct Entry
    {
        std::string name;
        std::string desc;
        Kind kind;
        const std::uint64_t *scalar = nullptr;
        std::function<double()> fn;
        const Distribution *dist = nullptr;
    };

    void claimName(const std::string &name);

    std::vector<Entry> entries;  ///< registration order
    std::set<std::string> names; ///< collision detection
};

/**
 * Serialize a dump as one flat JSON object, values printed %.17g so
 * doubles round-trip bit-exactly. Key order is dump order: the line
 * is byte-stable for identical runs.
 */
std::string toJsonl(const StatDump &dump);

} // namespace statistics
} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_STATISTICS_HH
