#include "sim/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace sim
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Random::Random(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(std::uint64_t seed_value)
{
    SplitMix64 sm(seed_value);
    for (auto &word : s)
        word = sm.next();
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    VARSIM_ASSERT(lo <= hi, "uniformInt: lo=%llu > hi=%llu",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~std::uint64_t{0} / span) * span;
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return lo + x % span;
}

double
Random::uniformReal()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Random::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniformReal();
}

bool
Random::bernoulli(double p)
{
    return uniformReal() < p;
}

double
Random::exponential(double mean)
{
    double u;
    do {
        u = uniformReal();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Random::normal(double mean, double sigma)
{
    double u1;
    do {
        u1 = uniformReal();
    } while (u1 <= 0.0);
    const double u2 = uniformReal();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + sigma * mag * std::cos(2.0 * M_PI * u2);
}

void
Random::checkpoint(CheckpointIo &cp)
{
    for (auto &word : s)
        cp.field(word);
}

std::shared_ptr<const ZipfSampler::Table>
ZipfSampler::tableFor(std::size_t n, double alpha)
{
    // Workload sizes and skews are compile-time constants, so the
    // cache stays a handful of entries. Alpha is keyed by its bits:
    // equal keys build equal tables.
    static std::mutex mu;
    static std::map<std::pair<std::size_t, std::uint64_t>,
                    std::shared_ptr<const Table>>
        tables;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = tables[{n, std::bit_cast<std::uint64_t>(alpha)}];
    if (slot)
        return slot;

    auto t = std::make_shared<Table>();
    std::vector<double> &cdf = t->cdf;
    cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    for (auto &c : cdf)
        c /= sum;
    cdf.back() = 1.0;

    t->hint.resize(kHintBuckets + 1);
    for (std::size_t b = 0; b <= kHintBuckets; ++b) {
        const double lo =
            static_cast<double>(b) / static_cast<double>(kHintBuckets);
        t->hint[b] = static_cast<std::uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), lo) - cdf.begin());
    }
    slot = std::move(t);
    return slot;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
{
    VARSIM_ASSERT(n > 0, "ZipfSampler needs n > 0");
    table = tableFor(n, alpha);
}

std::size_t
ZipfSampler::sample(Random &rng) const
{
    const std::vector<double> &cdf = table->cdf;
    const std::vector<std::uint32_t> &hint = table->hint;
    const double u = rng.uniformReal();
    // lower_bound(u) lies in [hint[b], hint[b+1]] for u's bucket b,
    // because u < (b + 1) / kHintBuckets and lower_bound is monotone.
    const auto b = std::min<std::size_t>(
        kHintBuckets - 1,
        static_cast<std::size_t>(u * static_cast<double>(kHintBuckets)));
    const auto first = cdf.begin() + hint[b];
    const auto last =
        cdf.begin() +
        std::min<std::size_t>(cdf.size(), hint[b + 1] + std::size_t{1});
    auto it = std::lower_bound(first, last, u);
    if (it == cdf.end())
        return cdf.size() - 1;
    return static_cast<std::size_t>(it - cdf.begin());
}

} // namespace sim
} // namespace varsim
