/** @file Unit and property tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace sim
{
namespace
{

TEST(Random, SameSeedSameSequence)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Random, UniformIntRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(3, 17);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 17u);
    }
}

TEST(Random, UniformIntDegenerateRange)
{
    Random r(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.uniformInt(9, 9), 9u);
}

TEST(Random, UniformIntMeanIsCentered)
{
    // The paper's perturbation: uniform on {0..4}, mean 2 ns
    // (Section 3.3: "increases the average L2 miss latency by 2 ns").
    Random r(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.uniformInt(0, 4));
    EXPECT_NEAR(sum / n, 2.0, 0.02);
}

TEST(Random, UniformIntIsUniform)
{
    Random r(13);
    std::array<int, 5> buckets{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.uniformInt(0, 4)];
    for (int count : buckets)
        EXPECT_NEAR(count, n / 5, n / 100);
}

TEST(Random, UniformRealInUnitInterval)
{
    Random r(17);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, ExponentialHasRequestedMean)
{
    Random r(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Random, NormalHasRequestedMoments)
{
    Random r(23);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Random, SerializeRoundTripContinuesSequence)
{
    Random a(99);
    for (int i = 0; i < 57; ++i)
        a.next();

    CheckpointOut out;
    CheckpointIo save(out);
    a.checkpoint(save);
    Random b(0);
    CheckpointIn in(out.bytes());
    CheckpointIo restore(in);
    b.checkpoint(restore);

    EXPECT_EQ(a, b);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, ReseedResetsState)
{
    Random a(5);
    const auto first = a.next();
    a.next();
    a.seed(5);
    EXPECT_EQ(a.next(), first);
}

TEST(ZipfSampler, SamplesWithinRange)
{
    Random r(31);
    ZipfSampler z(100, 0.9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(r), 100u);
}

TEST(ZipfSampler, HeadIsHotterThanTail)
{
    Random r(37);
    ZipfSampler z(1000, 1.0);
    int head = 0, tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::size_t s = z.sample(r);
        if (s < 10)
            ++head;
        else if (s >= 500)
            ++tail;
    }
    EXPECT_GT(head, tail * 2);
}

TEST(ZipfSampler, AlphaZeroIsUniform)
{
    Random r(41);
    ZipfSampler z(10, 0.0);
    std::array<int, 10> buckets{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[z.sample(r)];
    for (int count : buckets)
        EXPECT_NEAR(count, n / 10, n / 50);
}

} // namespace
} // namespace sim
} // namespace varsim
