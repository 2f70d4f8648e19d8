/**
 * @file
 * Deterministic, serializable pseudo-random number generation.
 *
 * Two generators are provided:
 *
 *  - SplitMix64: used to expand a single user seed into independent
 *    stream seeds (per-thread workload streams, the perturbation
 *    stream, ...).
 *  - Xoshiro256StarStar: the work-horse generator. 256 bits of state,
 *    serializable, fully deterministic across platforms.
 *
 * Determinism matters here more than statistical extremity: the paper's
 * methodology (Section 3.3) relies on the simulator being bit-exactly
 * repeatable for a given seed, with the *only* randomness being the
 * memory-latency perturbation stream.
 */

#ifndef VARSIM_SIM_RANDOM_HH
#define VARSIM_SIM_RANDOM_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace varsim
{
namespace sim
{

class CheckpointIo;

/**
 * SplitMix64 sequence generator; primarily used for seeding other
 * generators from a single root seed.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** generator. Deterministic across platforms and
 * serializable into checkpoints.
 */
class Random
{
  public:
    /** Construct from a root seed (expanded through SplitMix64). */
    explicit Random(std::uint64_t seed = 0);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Uniform integer in the inclusive range [lo, hi].
     * Uses rejection sampling, so it is exactly uniform.
     */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform real in [0, 1). 53-bit resolution. */
    double uniformReal();

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Standard normal via Box-Muller (no cached spare: stateless). */
    double normal(double mean, double sigma);

    /** Re-seed, discarding current state. */
    void seed(std::uint64_t seed);

    /** Save or restore the generator state (see CheckpointIo). */
    void checkpoint(CheckpointIo &cp);

    /** Equality: same internal state (useful in tests). */
    bool operator==(const Random &other) const = default;

  private:
    std::uint64_t s[4];
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with skew parameter
 * alpha, using a precomputed CDF and binary search. The CDF is a
 * pure function of (n, alpha), so only the underlying generator's
 * state needs checkpointing, and one immutable table per (n, alpha)
 * serves every sampler in the process: the first construction builds
 * it, later ones share it.
 *
 * Commercial-workload record popularity is famously Zipfian; the
 * resulting hot records create the lock and coherence contention that
 * drives space variability.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double alpha);

    /** Draw one sample in [0, n) using @p rng. */
    std::size_t sample(Random &rng) const;

    /** Number of categories. */
    std::size_t size() const { return table->cdf.size(); }

  private:
    /**
     * Bucketized first-probe index: hint[b] is the lower_bound of
     * b / kHintBuckets in the CDF, so a draw only searches the
     * (usually tiny) subrange between two adjacent hints instead of
     * the whole CDF. Pure lookup acceleration — the mapping from a
     * uniform draw to a rank is identical to a full binary search,
     * so op streams (and every golden pinned to them) are unchanged.
     */
    static constexpr std::size_t kHintBuckets = 4096;

    /** The CDF of one (n, alpha) and its first-probe hints. */
    struct Table
    {
        std::vector<double> cdf;
        std::vector<std::uint32_t> hint;
    };

    /** The process-wide table of (n, alpha), built on first use. */
    static std::shared_ptr<const Table> tableFor(std::size_t n,
                                                 double alpha);

    std::shared_ptr<const Table> table;
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_RANDOM_HH
