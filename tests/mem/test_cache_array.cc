/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/random.hh"

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
    Victim victim;
    auto [line, hadVictim] = a.allocate(0x100, victim);
    EXPECT_FALSE(hadVictim);
    line->state = LineState::Shared;
    EXPECT_EQ(a.find(0x100), line);
}

TEST(CacheArray, InvalidLinesAreNotFound)
{
    CacheArray a(1024, 2, 64);
    Victim victim;
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
    Victim victim;

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
    Victim victim;
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
    Victim victim;
    for (sim::Addr addr = 0; addr < 5 * 64; addr += 64) {
        auto [line, _] = a.allocate(addr, victim);
        line->state = LineState::Shared;
    }
    EXPECT_EQ(a.countValid(), 5u);
}

TEST(CacheArray, ForEachValidGivesBlockAddressesBack)
{
    // The line stores only the tag; the array restores the set bits.
    CacheArray a(1024, 2, 64);
    Victim victim;
    const sim::Addr blocks[] = {0x0, 0x40, 0x1c0, 0x7fff'ffc0,
                                0x1'1004'0100};
    for (sim::Addr b : blocks) {
        auto [line, _] = a.allocate(b, victim);
        line->state = LineState::Owned;
        line->aux = static_cast<std::uint8_t>(b >> 6);
    }
    std::map<sim::Addr, std::uint8_t> seen;
    a.forEachValid([&](sim::Addr block, const CacheLine &line) {
        seen[block] = line.aux;
        EXPECT_EQ(a.find(block), &line);
    });
    ASSERT_EQ(seen.size(), std::size(blocks));
    for (sim::Addr b : blocks)
        EXPECT_EQ(seen.at(b), static_cast<std::uint8_t>(b >> 6));
}

TEST(CacheArray, SerializeRoundTrip)
{
    CacheArray a(1024, 2, 64);
    Victim victim;
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

// ---- format 1: 24-byte lines with 64-bit use stamps ----

/** A format-1 line, byte for byte (padding zeroed, as it was written). */
struct StampLine
{
    std::uint64_t blockAddr = sim::invalidAddr;
    std::uint8_t state = 0;
    std::uint8_t aux = 0;
    std::uint8_t padding[6] = {};
    std::uint64_t lastUse = 0;

    bool valid() const { return state != 0; }
};
static_assert(sizeof(StampLine) == 24);

/**
 * The format-1 tag array: LRU by a monotone use counter. It writes
 * format-1 images, and its victims are what the ranks must
 * reproduce.
 */
struct StampArray
{
    std::size_t sets, ways, block;
    std::uint64_t useCounter = 0;
    std::vector<StampLine> lines;

    StampArray(std::size_t size, std::size_t assoc, std::size_t block_bytes)
        : sets(size / (assoc * block_bytes)), ways(assoc),
          block(block_bytes), lines(sets * ways)
    {}

    std::size_t
    base(sim::Addr b) const
    {
        return (b / block) % sets * ways;
    }

    StampLine *
    find(sim::Addr b)
    {
        for (std::size_t w = 0; w < ways; ++w) {
            StampLine &l = lines[base(b) + w];
            if (l.blockAddr == b)
                return l.valid() ? &l : nullptr;
        }
        return nullptr;
    }

    void touch(StampLine &l) { l.lastUse = ++useCounter; }

    /** @return the evicted block, or invalidAddr when a way was free. */
    sim::Addr
    allocate(sim::Addr b, StampLine *&out)
    {
        StampLine *target = nullptr;
        StampLine *lru = &lines[base(b)];
        for (std::size_t w = 0; w < ways; ++w) {
            StampLine &l = lines[base(b) + w];
            if (!l.valid()) {
                target = &l;
                break;
            }
            if (l.lastUse < lru->lastUse)
                lru = &l;
        }
        sim::Addr evicted = sim::invalidAddr;
        if (target == nullptr) {
            target = lru;
            evicted = target->blockAddr;
        }
        target->blockAddr = b;
        target->state = 0;
        target->aux = 0;
        touch(*target);
        out = target;
        return evicted;
    }

    void
    invalidate(StampLine &l)
    {
        l.state = 0;
        l.aux = 0;
        l.blockAddr = sim::invalidAddr;
    }

    /** The format-1 image: tagged 4 x u64 header, tagged lines. */
    std::vector<std::uint8_t>
    image() const
    {
        sim::CheckpointOut out;
        out.put<std::uint64_t>(sets);
        out.put<std::uint64_t>(ways);
        out.put<std::uint64_t>(block);
        out.put(useCounter);
        out.put(lines);
        return out.bytes();
    }
};

/** Where a format-1 image's line @p i starts: four tagged u64s, the
 *  vector tag and its tagged count. */
constexpr std::size_t
format1LineOffset(std::size_t i)
{
    return 4 * 9 + 1 + 9 + i * sizeof(StampLine);
}

/**
 * Drive both arrays through one random op stream over @p nblocks
 * blocks that crowd a few sets: a hit touches, a miss allocates
 * (victims must agree), some hits change state or invalidate.
 */
void
driveBoth(CacheArray &ranked, StampArray &stamped, sim::Random &rng,
          std::size_t ops, std::size_t nblocks)
{
    for (std::size_t i = 0; i < ops; ++i) {
        const sim::Addr b = rng.uniformInt(0, nblocks - 1) * 64;
        CacheLine *r = ranked.findAndTouch(b);
        StampLine *s = stamped.find(b);
        ASSERT_EQ(r != nullptr, s != nullptr) << "op " << i;
        const std::uint64_t roll = rng.uniformInt(0, 9);
        if (s != nullptr) {
            stamped.touch(*s);
            if (roll == 0) {
                ranked.invalidate(*r);
                stamped.invalidate(*s);
            } else if (roll == 1) {
                r->state = s->state == 1 ? LineState::Owned
                                         : LineState::Shared;
                s->state = static_cast<std::uint8_t>(r->state);
            }
            continue;
        }
        Victim victim;
        auto [line, had] = ranked.allocate(b, victim);
        StampLine *fresh = nullptr;
        const sim::Addr evicted = stamped.allocate(b, fresh);
        ASSERT_EQ(had ? victim.blockAddr : sim::invalidAddr, evicted)
            << "op " << i;
        line->state = roll < 5 ? LineState::Shared : LineState::Modified;
        line->aux = static_cast<std::uint8_t>(roll);
        fresh->state = static_cast<std::uint8_t>(line->state);
        fresh->aux = line->aux;
    }
}

TEST(CacheArray, RanksEvictWhatUseStampsEvicted)
{
    // 4 sets x 4 ways over 40 blocks: constant eviction, with
    // invalidations opening holes mid-set.
    CacheArray ranked(1024, 4, 64);
    StampArray stamped(1024, 4, 64);
    sim::Random rng(17);
    ASSERT_NO_FATAL_FAILURE(driveBoth(ranked, stamped, rng, 20000, 40));
}

TEST(CacheArray, Format1ImageRestoresSameFindsAndVictims)
{
    CacheArray ranked(1024, 4, 64);
    StampArray writer(1024, 4, 64);
    sim::Random rng(5);
    ASSERT_NO_FATAL_FAILURE(driveBoth(ranked, writer, rng, 3000, 40));

    const std::vector<std::uint8_t> image = writer.image();
    CacheArray restored(1024, 4, 64);
    sim::CheckpointIn in(image, 1);
    restored.unserialize(in);
    EXPECT_TRUE(in.exhausted());

    for (sim::Addr b = 0; b < 40 * 64; b += 64) {
        const CacheLine *r = restored.find(b);
        const StampLine *s = writer.find(b);
        ASSERT_EQ(r != nullptr, s != nullptr) << b;
        if (r != nullptr) {
            EXPECT_EQ(static_cast<std::uint8_t>(r->state), s->state);
            EXPECT_EQ(r->aux, s->aux);
        }
    }
    // The same rank state as the array that ran the ops natively,
    // down to the current image's bytes...
    sim::CheckpointOut a, b;
    ranked.serialize(a);
    restored.serialize(b);
    EXPECT_EQ(a.bytes(), b.bytes());
    // ...and the same victims as the writer from here on.
    sim::Random more(6);
    ASSERT_NO_FATAL_FAILURE(driveBoth(restored, writer, more, 3000, 40));
}

TEST(CacheArray, Format1EqualStampsEvictTheFirstWay)
{
    // Format 1 took the first way holding the smallest stamp; an
    // image with tied stamps must still evict that way.
    StampArray writer(256, 4, 64); // 1 set
    for (std::size_t w = 0; w < 4; ++w) {
        writer.lines[w].blockAddr = 0x40 * (w + 1);
        writer.lines[w].state = 1;
        writer.lines[w].lastUse = w < 2 ? 7 : 9;
    }
    const auto image = writer.image();
    CacheArray a(256, 4, 64);
    sim::CheckpointIn in(image, 1);
    a.unserialize(in);
    Victim victim;
    ASSERT_TRUE(a.allocate(0x400, victim).second);
    EXPECT_EQ(victim.blockAddr, 0x40u);
}

// ---- format 2: the dense 8-byte line vector ----

/** The geometry and bitmap + valid lines of @p a's format-3 image. */
struct LiveImage
{
    std::uint64_t sets = 0, ways = 0, block = 0;
    std::vector<std::uint64_t> bitmap;
    std::vector<CacheLine> valid;

    explicit LiveImage(const CacheArray &a)
    {
        sim::CheckpointOut out;
        a.serialize(out);
        sim::CheckpointIn in(out.bytes());
        in.get(sets);
        in.get(ways);
        in.get(block);
        in.get(bitmap);
        in.get(valid);
        EXPECT_TRUE(in.exhausted());
    }

    /** The image's bytes, as a restore reads them. */
    std::vector<std::uint8_t>
    bytes() const
    {
        sim::CheckpointOut out;
        out.put(sets);
        out.put(ways);
        out.put(block);
        out.put(bitmap);
        out.put(valid);
        return out.bytes();
    }

    /** The same contents as a format-2 image: every line, in place. */
    std::vector<std::uint8_t>
    dense() const
    {
        std::vector<CacheLine> lines(sets * ways);
        std::size_t k = 0;
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (bitmap[i / 64] >> (i % 64) & 1)
                lines[i] = valid.at(k++);
        EXPECT_EQ(k, valid.size());
        sim::CheckpointOut out;
        out.put(sets);
        out.put(ways);
        out.put(block);
        out.put(lines);
        return out.bytes();
    }
};

/** Where a format-3 image's bitmap and its first valid line start:
 *  three tagged u64s, then each vector's tag and tagged count. */
constexpr std::size_t kBitmapOffset = 3 * 9;

constexpr std::size_t
liveLineOffset(std::size_t words, std::size_t i)
{
    return kBitmapOffset + 10 + words * 8 + 10 + i * sizeof(CacheLine);
}

TEST(CacheArray, Format2ImageRestoresSameFindsAndVictims)
{
    CacheArray ranked(1024, 4, 64);
    StampArray writer(1024, 4, 64);
    sim::Random rng(5);
    ASSERT_NO_FATAL_FAILURE(driveBoth(ranked, writer, rng, 3000, 40));

    const std::vector<std::uint8_t> image = LiveImage(ranked).dense();
    ASSERT_EQ(image.size(), 3 * 9 + 10 + 4 * 4 * sizeof(CacheLine));
    CacheArray restored(1024, 4, 64);
    sim::CheckpointIn in(image, 2);
    restored.unserialize(in);
    EXPECT_TRUE(in.exhausted());

    for (sim::Addr b = 0; b < 40 * 64; b += 64) {
        const CacheLine *r = restored.find(b);
        const StampLine *s = writer.find(b);
        ASSERT_EQ(r != nullptr, s != nullptr) << b;
        if (r != nullptr) {
            EXPECT_EQ(static_cast<std::uint8_t>(r->state), s->state);
            EXPECT_EQ(r->aux, s->aux);
        }
    }
    // The same rank state as the array that ran the ops natively,
    // down to the current image's bytes...
    sim::CheckpointOut a, b;
    ranked.serialize(a);
    restored.serialize(b);
    EXPECT_EQ(a.bytes(), b.bytes());
    // ...and the same victims as the writer from here on.
    sim::Random more(6);
    ASSERT_NO_FATAL_FAILURE(driveBoth(restored, writer, more, 3000, 40));
}

// ---- format 3: a validity bitmap and the valid lines ----

TEST(CacheArray, LiveImageHoldsOnlyTheValidLines)
{
    // 64 sets x 4 ways = 256 lines, 4 bitmap words; 3 valid lines.
    CacheArray a(64 * 4 * 64, 4, 64);
    Victim victim;
    for (sim::Addr b : {sim::Addr{0x40}, sim::Addr{0x1040},
                        sim::Addr{0xfc0}}) {
        auto [line, _] = a.allocate(b, victim);
        line->state = LineState::Shared;
    }
    const LiveImage live(a);
    EXPECT_EQ(live.bitmap.size(), 4u);
    EXPECT_EQ(live.valid.size(), 3u);
    // Set 1 holds 0x40 (way 0) then 0x1040 (way 1); set 63 holds
    // 0xfc0: lines 4, 5 and 252, in index order.
    EXPECT_EQ(live.bitmap[0], 0x30u);
    EXPECT_EQ(live.bitmap[3], std::uint64_t{1} << (252 - 192));
    EXPECT_EQ(live.valid[0].tag, 0u);
    EXPECT_EQ(live.valid[1].tag, 1u);
    sim::CheckpointOut out;
    a.serialize(out);
    EXPECT_EQ(out.size(), liveLineOffset(4, 3));

    // A full array's image is the dense one plus its bitmap.
    CacheArray full(1024, 2, 64);
    for (sim::Addr b = 0; b < 1024; b += 64) {
        auto [line, _] = full.allocate(b, victim);
        line->state = LineState::Modified;
    }
    sim::CheckpointOut fullOut;
    full.serialize(fullOut);
    EXPECT_EQ(fullOut.size(),
              LiveImage(full).dense().size() + 10 + 8);
}

TEST(CacheArray, LiveImageRestoreReplacesTheContents)
{
    // Restoring over an array that already holds lines leaves
    // exactly the image's lines, ranks and all. The image's 6 blocks
    // leave ways free that the restored-over array had filled.
    CacheArray a(1024, 4, 64);
    CacheArray b(1024, 4, 64);
    StampArray unused(1024, 4, 64);
    sim::Random ra(11), rb(12);
    ASSERT_NO_FATAL_FAILURE(driveBoth(a, unused, ra, 500, 6));
    StampArray unusedB(1024, 4, 64);
    ASSERT_NO_FATAL_FAILURE(driveBoth(b, unusedB, rb, 500, 64));
    ASSERT_GT(b.countValid(), a.countValid());

    sim::CheckpointOut out;
    a.serialize(out);
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(b.countValid(), a.countValid());
    for (sim::Addr blk = 0; blk < 64 * 64; blk += 64)
        EXPECT_EQ(a.find(blk) != nullptr, b.find(blk) != nullptr)
            << blk;
    sim::CheckpointOut again;
    b.serialize(again);
    EXPECT_EQ(again.bytes(), out.bytes());
}

TEST(CacheArray, MismatchedGeometryRestoresCold)
{
    // Restoring into a different geometry (the paper's Experiment 1
    // design: warmed checkpoint, different associativity) starts the
    // cache cold rather than misinterpreting set indices, in either
    // format.
    CacheArray a(1024, 2, 64);
    Victim victim;
    auto [line, _] = a.allocate(0x40, victim);
    line->state = LineState::Modified;
    sim::CheckpointOut out;
    a.serialize(out);

    StampArray writer(1024, 2, 64);
    StampLine *fresh = nullptr;
    writer.allocate(0x40, fresh);
    fresh->state = static_cast<std::uint8_t>(LineState::Modified);
    const auto format1 = writer.image();

    const auto format2 = LiveImage(a).dense();

    for (std::uint32_t format : {sim::kCheckpointFormat, 2u, 1u}) {
        CacheArray b(1024, 1, 64); // same capacity, direct mapped
        auto [warm, unused] = b.allocate(0x80, victim);
        warm->state = LineState::Shared;
        sim::CheckpointIn in(format == sim::kCheckpointFormat ? out.bytes()
                             : format == 2                    ? format2
                                                              : format1,
                             format);
        b.unserialize(in);
        EXPECT_EQ(b.countValid(), 0u) << "format " << format;
        EXPECT_TRUE(in.exhausted()) << "format " << format;
    }
}

TEST(CacheArrayDeathTest, ShortLineVectorInImageDies)
{
    // An image whose header geometry matches but whose line vector
    // is one line short, with the rest of the stream consistent (so
    // it would pass an archive checksum), must be refused before it
    // reaches `lines`: find() indexes sets x ways lines.
    auto shorten = [](std::vector<std::uint8_t> bytes,
                      std::size_t lines, std::size_t line_bytes) {
        // The lines are the image's tail, right after their u64 count.
        const std::size_t elems = bytes.size() - lines * line_bytes;
        std::uint64_t count = 0;
        std::memcpy(&count, bytes.data() + elems - sizeof(count),
                    sizeof(count));
        EXPECT_EQ(count, lines) << "image layout changed";
        --count;
        std::memcpy(bytes.data() + elems - sizeof(count), &count,
                    sizeof(count));
        bytes.resize(bytes.size() - line_bytes);
        return bytes;
    };

    CacheArray a(1024, 2, 64);
    const std::size_t lines = a.numSets() * a.numWays();
    const auto format2 =
        shorten(LiveImage(a).dense(), lines, sizeof(CacheLine));
    const auto format1 = shorten(StampArray(1024, 2, 64).image(), lines,
                                 sizeof(StampLine));

    CacheArray b(1024, 2, 64);
    sim::CheckpointIn in2(format2, 2);
    EXPECT_DEATH(b.unserialize(in2), "holds 15 lines.*need 16");
    sim::CheckpointIn in1(format1, 1);
    EXPECT_DEATH(b.unserialize(in1), "holds 15 lines.*need 16");
}

TEST(CacheArrayDeathTest, Format1LineOutsideItsSetDies)
{
    // Set 3 of 8 holds a block of set 4: the rank and the tag would
    // describe a line find() can never reach.
    StampArray writer(1024, 2, 64);
    writer.lines[3 * 2 + 1].blockAddr = 4 * 64;
    writer.lines[3 * 2 + 1].state = 1;
    const auto image = writer.image();
    CacheArray a(1024, 2, 64);
    sim::CheckpointIn in(image, 1);
    EXPECT_DEATH(a.unserialize(in),
                 "offset " + std::to_string(format1LineOffset(7)) +
                     " holds block 0x100.*set 3");

    // An unaligned address is refused the same way.
    StampArray unaligned(1024, 2, 64);
    unaligned.lines[0].blockAddr = 0x8;
    unaligned.lines[0].state = 1;
    const auto image2 = unaligned.image();
    sim::CheckpointIn in2(image2, 1);
    EXPECT_DEATH(a.unserialize(in2),
                 "offset " + std::to_string(format1LineOffset(0)) +
                     " holds block 0x8");
}

TEST(CacheArrayDeathTest, Format1LineBeyondATagDies)
{
    // 8 sets of 64-byte blocks: the tag starts at bit 9, so a
    // 32-bit tag reaches blocks below 2^41.
    StampArray writer(1024, 2, 64);
    writer.lines[0].blockAddr = sim::Addr{1} << 41;
    writer.lines[0].state = 2;
    const auto image = writer.image();
    CacheArray a(1024, 2, 64);
    sim::CheckpointIn in(image, 1);
    EXPECT_DEATH(a.unserialize(in),
                 "offset " + std::to_string(format1LineOffset(0)) +
                     " holds block 0x20000000000.*32-bit tag");
}

/** A 16-line array (8 sets x 2 ways) holding blocks 0x40 and 0x80. */
LiveImage
twoLineImage()
{
    CacheArray a(1024, 2, 64);
    Victim victim;
    for (sim::Addr b : {sim::Addr{0x40}, sim::Addr{0x80}}) {
        auto [line, _] = a.allocate(b, victim);
        line->state = LineState::Owned;
    }
    LiveImage live(a);
    EXPECT_EQ(live.bitmap, std::vector<std::uint64_t>{0x14});
    return live;
}

TEST(CacheArrayDeathTest, LiveImageBitmapOfTheWrongLengthDies)
{
    // find() indexes every line the bitmap may mark, so the bitmap
    // must cover exactly sets x ways lines: here one word.
    for (std::size_t words : {0, 2}) {
        LiveImage live = twoLineImage();
        live.bitmap.resize(words);
        if (words)
            live.bitmap[0] = 0x14;
        const auto image = live.bytes();
        CacheArray b(1024, 2, 64);
        sim::CheckpointIn in(image);
        EXPECT_DEATH(b.unserialize(in),
                     "bitmap at offset " + std::to_string(kBitmapOffset) +
                         " holds " + std::to_string(words) +
                         " words, its 8 sets x 2 ways need 1");
    }
}

TEST(CacheArrayDeathTest, LiveImageBitPastTheLastLineDies)
{
    LiveImage live = twoLineImage();
    live.bitmap[0] = 0x4 | std::uint64_t{1} << 20;
    const auto image = live.bytes();
    CacheArray b(1024, 2, 64);
    sim::CheckpointIn in(image);
    EXPECT_DEATH(b.unserialize(in),
                 "bitmap at offset " + std::to_string(kBitmapOffset) +
                     " marks line 20, past its 16 lines");
}

TEST(CacheArrayDeathTest, LiveImageBitCountUnlikeItsLinesDies)
{
    // One bit too few and one too many: either way a line would land
    // nowhere, or a marked way would read past the valid lines.
    for (std::uint64_t bits : {std::uint64_t{0x4}, std::uint64_t{0x15}}) {
        LiveImage live = twoLineImage();
        live.bitmap[0] = bits;
        const auto image = live.bytes();
        CacheArray b(1024, 2, 64);
        sim::CheckpointIn in(image);
        EXPECT_DEATH(b.unserialize(in),
                     "bitmap at offset " + std::to_string(kBitmapOffset) +
                         " marks " + (bits == 0x4 ? "1" : "3") +
                         " valid lines, the image at offset " +
                         std::to_string(kBitmapOffset + 10 + 8) +
                         " holds 2");
    }
}

TEST(CacheArrayDeathTest, LiveImageInvalidLineDies)
{
    // A marked line must be valid: an Invalid one would sit in the
    // set with a rank, and the ranks of a set must be 0..n-1 over
    // its valid lines.
    LiveImage live = twoLineImage();
    live.valid[1].state = LineState::Invalid;
    const auto image = live.bytes();
    CacheArray b(1024, 2, 64);
    sim::CheckpointIn in(image);
    EXPECT_DEATH(b.unserialize(in),
                 "line at offset " + std::to_string(liveLineOffset(1, 1)) +
                     " is Invalid, but its bitmap marks it valid");
}

TEST(CacheArrayDeathTest, BlockBeyondATagDies)
{
    CacheArray a(1024, 2, 64);
    Victim victim;
    // The last block a 32-bit tag reaches still allocates...
    const sim::Addr last = (sim::Addr{1} << 41) - 64;
    auto [line, _] = a.allocate(last, victim);
    line->state = LineState::Shared;
    EXPECT_EQ(a.find(last), line);
    // ...and the first one past it is never found, and refused.
    EXPECT_EQ(a.find(sim::Addr{1} << 41), nullptr);
    EXPECT_DEATH(a.allocate(sim::Addr{1} << 41, victim),
                 "block 0x20000000000 does not fit a 32-bit tag.*8 sets "
                 "x 2 ways of 64-byte blocks");
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
