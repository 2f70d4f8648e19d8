/** @file Unit tests for the checkpoint archive. */

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/serialize.hh"

namespace varsim
{
namespace sim
{
namespace
{

// The input archive reads over the caller's bytes, which must outlive
// it: a temporary buffer would dangle, so binding one does not compile.
static_assert(std::is_constructible_v<CheckpointIn,
                                      const std::vector<std::uint8_t> &>);
static_assert(!std::is_constructible_v<CheckpointIn,
                                       std::vector<std::uint8_t> &&>);

TEST(Checkpoint, ScalarRoundTrip)
{
    CheckpointOut out;
    out.put<std::uint64_t>(0xdeadbeefcafef00dULL);
    out.put<std::int32_t>(-42);
    out.put<double>(3.25);
    out.put<bool>(true);

    CheckpointIn in(out.bytes());
    std::uint64_t a = 0;
    std::int32_t b = 0;
    double c = 0;
    bool d = false;
    in.get(a);
    in.get(b);
    in.get(c);
    in.get(d);
    EXPECT_EQ(a, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(b, -42);
    EXPECT_EQ(c, 3.25);
    EXPECT_TRUE(d);
    EXPECT_TRUE(in.exhausted());
}

TEST(Checkpoint, StringRoundTrip)
{
    CheckpointOut out;
    out.put(std::string("hello varsim"));
    out.put(std::string(""));

    CheckpointIn in(out.bytes());
    std::string s, t;
    in.get(s);
    in.get(t);
    EXPECT_EQ(s, "hello varsim");
    EXPECT_EQ(t, "");
}

TEST(Checkpoint, VectorRoundTrip)
{
    CheckpointOut out;
    std::vector<std::uint32_t> v = {1, 2, 3, 5, 8, 13};
    out.put(v);
    std::vector<double> empty;
    out.put(empty);

    CheckpointIn in(out.bytes());
    std::vector<std::uint32_t> v2;
    std::vector<double> e2 = {9.0};
    in.get(v2);
    in.get(e2);
    EXPECT_EQ(v2, v);
    EXPECT_TRUE(e2.empty());
}

TEST(Checkpoint, DequeRoundTrip)
{
    CheckpointOut out;
    std::deque<std::int32_t> d = {7, -7, 77};
    out.put(d);

    CheckpointIn in(out.bytes());
    std::deque<std::int32_t> d2;
    in.get(d2);
    EXPECT_EQ(d2, d);
}

TEST(Checkpoint, TypeTagMismatchDies)
{
    CheckpointOut out;
    out.put<std::uint64_t>(1);
    CheckpointIn in(out.bytes());
    std::uint32_t wrong = 0;
    EXPECT_DEATH(in.get(wrong), "type mismatch");
}

TEST(Checkpoint, UnderrunDies)
{
    CheckpointOut out;
    out.put<std::uint8_t>(1);
    CheckpointIn in(out.bytes());
    std::uint8_t v = 0;
    in.get(v);
    EXPECT_DEATH(in.get(v), "underrun");
}

TEST(Checkpoint, HugeStringLengthPrefixDies)
{
    // A corrupted length prefix near UINT64_MAX must fail the bounds
    // check, not wrap the cursor around zero and read out of bounds.
    CheckpointOut out;
    out.put(std::string("abc"));
    auto bytes = out.bytes();
    // Layout: 0xff tag, u64 tag (8), u64 length, payload. Smash the
    // length to an enormous value.
    for (std::size_t i = 2; i < 10; ++i)
        bytes[i] = 0xff;
    CheckpointIn in(bytes);
    std::string s;
    EXPECT_DEATH(in.get(s), "underrun");
}

TEST(Checkpoint, HugeVectorLengthPrefixDies)
{
    // Same attack on the vector path: n * sizeof(T) must not overflow
    // into a small in-bounds byte count.
    CheckpointOut out;
    out.put(std::vector<std::uint64_t>{1, 2, 3});
    auto bytes = out.bytes();
    for (std::size_t i = 2; i < 10; ++i)
        bytes[i] = 0xff;
    CheckpointIn in(bytes);
    std::vector<std::uint64_t> v;
    EXPECT_DEATH(in.get(v), "underrun");
}

TEST(Checkpoint, VectorLengthOverflowMultipleDies)
{
    // n chosen so n * sizeof(u64) wraps to a tiny value in 64 bits:
    // 0x2000000000000001 * 8 == 8 (mod 2^64).
    CheckpointOut out;
    out.put(std::vector<std::uint64_t>{7});
    auto bytes = out.bytes();
    const std::uint64_t evil = 0x2000000000000001ull;
    std::memcpy(bytes.data() + 2, &evil, sizeof(evil));
    CheckpointIn in(bytes);
    std::vector<std::uint64_t> v;
    EXPECT_DEATH(in.get(v), "underrun");
}

TEST(Checkpoint, TruncatedAtEveryByteDiesCleanly)
{
    // Truncating a well-formed archive at any byte must die with a
    // checkpoint error (tag check or bounds check), never UB.
    CheckpointOut out;
    out.put<std::uint32_t>(0xdeadbeef);
    out.put(std::string("payload"));
    out.put(std::vector<std::uint16_t>{1, 2, 3, 4});
    const auto &whole = out.bytes();
    for (std::size_t cut = 0; cut < whole.size(); ++cut) {
        std::vector<std::uint8_t> part(whole.begin(),
                                       whole.begin() + cut);
        EXPECT_DEATH(
            {
                CheckpointIn in(part);
                std::uint32_t a = 0;
                std::string s;
                std::vector<std::uint16_t> v;
                in.get(a);
                in.get(s);
                in.get(v);
            },
            "checkpoint");
    }
}

TEST(Checkpoint, StructRoundTrip)
{
    struct Pod
    {
        std::uint32_t a;
        double b;
        bool operator==(const Pod &) const = default;
    };
    CheckpointOut out;
    Pod p{9, 2.5};
    out.put(p);
    CheckpointIn in(out.bytes());
    Pod q{};
    in.get(q);
    EXPECT_EQ(q, p);
}

TEST(Checkpoint, InterleavedTypesKeepOrder)
{
    CheckpointOut out;
    for (std::uint32_t i = 0; i < 100; ++i) {
        out.put(i);
        out.put(std::string(i % 7, 'x'));
    }
    CheckpointIn in(out.bytes());
    for (std::uint32_t i = 0; i < 100; ++i) {
        std::uint32_t v = 0;
        std::string s;
        in.get(v);
        in.get(s);
        EXPECT_EQ(v, i);
        EXPECT_EQ(s.size(), i % 7);
    }
    EXPECT_TRUE(in.exhausted());
}

} // namespace
} // namespace sim
} // namespace varsim
