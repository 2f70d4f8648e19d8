/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache_array.hh"

namespace varsim
{
namespace mem
{
namespace
{

TEST(CacheArray, GeometryComputed)
{
    CacheArray a(4 * 1024 * 1024, 4, 64);
    EXPECT_EQ(a.numSets(), 16384u);
    EXPECT_EQ(a.numWays(), 4u);
    EXPECT_EQ(a.blockSize(), 64u);
}

TEST(CacheArray, DirectMappedGeometry)
{
    CacheArray a(64 * 1024, 1, 64);
    EXPECT_EQ(a.numSets(), 1024u);
    EXPECT_EQ(a.numWays(), 1u);
}

TEST(CacheArray, BlockAlign)
{
    CacheArray a(1024, 2, 64);
    EXPECT_EQ(a.blockAlign(0), 0u);
    EXPECT_EQ(a.blockAlign(63), 0u);
    EXPECT_EQ(a.blockAlign(64), 64u);
    EXPECT_EQ(a.blockAlign(0x12345), 0x12340u);
}

TEST(CacheArray, MissThenAllocateThenHit)
{
    CacheArray a(1024, 2, 64);
    EXPECT_EQ(a.find(0x100), nullptr);
    CacheLine victim;
    auto [line, hadVictim] = a.allocate(0x100, victim);
    EXPECT_FALSE(hadVictim);
    line->state = LineState::Shared;
    EXPECT_EQ(a.find(0x100), line);
}

TEST(CacheArray, InvalidLinesAreNotFound)
{
    CacheArray a(1024, 2, 64);
    CacheLine victim;
    auto [line, _] = a.allocate(0x40, victim);
    EXPECT_EQ(a.find(0x40), nullptr) << "allocated but Invalid";
    line->state = LineState::Modified;
    EXPECT_NE(a.find(0x40), nullptr);
    a.invalidate(*line);
    EXPECT_EQ(a.find(0x40), nullptr);
}

TEST(CacheArray, LruEviction)
{
    // 2-way, 8 sets of 64B: addresses 64*8 apart collide.
    CacheArray a(1024, 2, 64);
    const sim::Addr s = 0;
    const sim::Addr stride = 64 * 8;
    CacheLine victim;

    auto fill = [&](sim::Addr addr) {
        auto [line, had] = a.allocate(addr, victim);
        line->state = LineState::Shared;
        return had;
    };

    EXPECT_FALSE(fill(s));
    EXPECT_FALSE(fill(s + stride));
    // Touch the first so the second is LRU.
    a.findAndTouch(s);
    EXPECT_TRUE(fill(s + 2 * stride));
    EXPECT_EQ(victim.blockAddr, s + stride);
    EXPECT_NE(a.find(s), nullptr);
    EXPECT_EQ(a.find(s + stride), nullptr);
}

TEST(CacheArray, VictimCarriesState)
{
    CacheArray a(128, 1, 64); // 2 sets, direct mapped
    CacheLine victim;
    auto [line, _] = a.allocate(0x000, victim);
    line->state = LineState::Modified;
    line->aux = 3;

    auto [line2, had] = a.allocate(0x100, victim); // same set
    EXPECT_TRUE(had);
    EXPECT_EQ(victim.blockAddr, 0x000u);
    EXPECT_EQ(victim.state, LineState::Modified);
    EXPECT_EQ(victim.aux, 3);
    EXPECT_EQ(line2->state, LineState::Invalid);
}

TEST(CacheArray, CountValid)
{
    CacheArray a(1024, 4, 64);
    EXPECT_EQ(a.countValid(), 0u);
    CacheLine victim;
    for (sim::Addr addr = 0; addr < 5 * 64; addr += 64) {
        auto [line, _] = a.allocate(addr, victim);
        line->state = LineState::Shared;
    }
    EXPECT_EQ(a.countValid(), 5u);
}

TEST(CacheArray, SerializeRoundTrip)
{
    CacheArray a(1024, 2, 64);
    CacheLine victim;
    for (sim::Addr addr = 0; addr < 8 * 64; addr += 64) {
        auto [line, _] = a.allocate(addr, victim);
        line->state = addr % 128 ? LineState::Owned
                                 : LineState::Modified;
        line->aux = static_cast<std::uint8_t>(addr / 64);
    }

    sim::CheckpointOut out;
    a.serialize(out);

    CacheArray b(1024, 2, 64);
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);

    for (sim::Addr addr = 0; addr < 8 * 64; addr += 64) {
        const CacheLine *la = a.find(addr);
        const CacheLine *lb = b.find(addr);
        ASSERT_NE(lb, nullptr);
        EXPECT_EQ(la->state, lb->state);
        EXPECT_EQ(la->aux, lb->aux);
    }
}

TEST(CacheArray, MismatchedGeometryRestoresCold)
{
    // Restoring into a different geometry (the paper's Experiment 1
    // design: warmed checkpoint, different associativity) starts the
    // cache cold rather than misinterpreting set indices.
    CacheArray a(1024, 2, 64);
    CacheLine victim;
    auto [line, _] = a.allocate(0x40, victim);
    line->state = LineState::Modified;
    sim::CheckpointOut out;
    a.serialize(out);

    CacheArray b(1024, 1, 64); // same capacity, direct mapped
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);
    EXPECT_EQ(b.countValid(), 0u);
    EXPECT_TRUE(in.exhausted()) << "archive fully consumed";
}

TEST(CacheArrayDeathTest, ShortLineVectorInImageDies)
{
    // An image whose header geometry matches but whose line vector
    // is one line short, with the rest of the stream consistent (so
    // it would pass an archive checksum), must be refused before it
    // reaches `lines`: find() indexes sets x ways lines.
    CacheArray a(1024, 2, 64);
    sim::CheckpointOut out;
    a.serialize(out);
    std::vector<std::uint8_t> bytes = out.bytes();

    // The lines are the image's tail, right after their u64 count.
    const std::size_t lines = a.numSets() * a.numWays();
    const std::size_t elems = bytes.size() - lines * sizeof(CacheLine);
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + elems - sizeof(count),
                sizeof(count));
    ASSERT_EQ(count, lines) << "image layout changed";
    --count;
    std::memcpy(bytes.data() + elems - sizeof(count), &count,
                sizeof(count));
    bytes.resize(bytes.size() - sizeof(CacheLine));

    CacheArray b(1024, 2, 64);
    sim::CheckpointIn in(bytes);
    EXPECT_DEATH(b.unserialize(in), "holds 15 lines.*need 16");
}

TEST(CacheArray, StateHelpers)
{
    EXPECT_TRUE(isOwnerState(LineState::Modified));
    EXPECT_TRUE(isOwnerState(LineState::Owned));
    EXPECT_FALSE(isOwnerState(LineState::Shared));
    EXPECT_FALSE(isOwnerState(LineState::Invalid));
    EXPECT_TRUE(isValidState(LineState::Shared));
    EXPECT_FALSE(isValidState(LineState::Invalid));
}

} // namespace
} // namespace mem
} // namespace varsim
