#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace varsim
{
namespace mem
{

namespace
{

bool
isPow2(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

std::size_t
log2Of(std::size_t pow2)
{
    std::size_t shift = 0;
    while ((std::size_t{1} << shift) < pow2)
        ++shift;
    return shift;
}

/** A format-1 image's line: whole address and a 64-bit use stamp. */
struct Format1Line
{
    std::uint64_t blockAddr;
    std::uint8_t state;
    std::uint8_t aux;
    std::uint8_t padding[6];
    std::uint64_t lastUse;
};

static_assert(sizeof(Format1Line) == 24, "format 1's line layout");

} // anonymous namespace

CacheArray::CacheArray(std::size_t size_bytes, std::size_t assoc,
                       std::size_t block_bytes)
    : ways(assoc), blockBytes(block_bytes)
{
    VARSIM_ASSERT(isPow2(block_bytes), "block size must be a power "
                  "of two, got %zu", block_bytes);
    VARSIM_ASSERT(assoc >= 1 && assoc <= kMaxWays,
                  "associativity must be in 1..%zu, got %zu",
                  kMaxWays, assoc);
    VARSIM_ASSERT(size_bytes % (assoc * block_bytes) == 0,
                  "cache size %zu not divisible by way size",
                  size_bytes);
    sets = size_bytes / (assoc * block_bytes);
    VARSIM_ASSERT(isPow2(sets), "number of sets (%zu) must be a power "
                  "of two", sets);
    blockShift = log2Of(blockBytes);
    setMask = sets - 1;
    tagShift = blockShift + log2Of(sets);
    lines.resize(sets * ways);
}

CacheLine *
CacheArray::setOfLine(CacheLine &line)
{
    const auto index = static_cast<std::size_t>(&line - lines.data());
    return &lines[index - index % ways];
}

void
CacheArray::promote(CacheLine *set, CacheLine &line)
{
    // Every valid line used more recently than `line` ages by one;
    // the older ones keep their ranks.
    const std::uint16_t rank = line.rank;
    for (std::size_t w = 0; w < ways; ++w)
        if (set[w].valid() && set[w].rank < rank)
            ++set[w].rank;
    line.rank = 0;
}

std::pair<CacheLine *, bool>
CacheArray::allocate(sim::Addr block_addr, Victim &victim)
{
#ifndef NDEBUG
    VARSIM_ASSERT(find(block_addr) == nullptr,
                  "allocate: block %#llx already present",
                  static_cast<unsigned long long>(block_addr));
#endif
    const std::uint64_t tag = block_addr >> tagShift;
    if (tag > std::numeric_limits<std::uint32_t>::max()) {
        sim::panic("block %#llx does not fit a 32-bit tag in a cache "
                   "of %zu sets x %zu ways of %zu-byte blocks (blocks "
                   "below %#llx do)",
                   static_cast<unsigned long long>(block_addr), sets,
                   ways, blockBytes,
                   static_cast<unsigned long long>(
                       (std::uint64_t{1} << 32) << tagShift));
    }
    // Take the first free way if one exists, otherwise the valid line
    // of highest rank: the true-LRU line, which format 1 found as the
    // smallest use stamp.
    CacheLine *set = setOf(block_addr);
    CacheLine *target = nullptr;
    CacheLine *lru = set;
    for (std::size_t w = 0; w < ways; ++w) {
        CacheLine &line = set[w];
        if (!line.valid()) {
            target = &line;
            break;
        }
        if (line.rank > lru->rank)
            lru = &line;
    }
    bool hadVictim = false;
    if (target == nullptr) {
        target = lru;
        const sim::Addr setBits =
            block_addr & ((sim::Addr{1} << tagShift) - 1);
        victim.blockAddr = (sim::Addr{target->tag} << tagShift) | setBits;
        victim.state = target->state;
        victim.aux = target->aux;
        hadVictim = true;
    }
    // The new line is the set's MRU line: every other valid line ages
    // by one (the victim leaves from the oldest rank, so the ranks
    // stay 0..n-1).
    target->state = LineState::Invalid; // caller sets the real state
    for (std::size_t w = 0; w < ways; ++w)
        if (set[w].valid())
            ++set[w].rank;
    target->tag = static_cast<std::uint32_t>(tag);
    target->aux = 0;
    target->rank = 0;
    return {target, hadVictim};
}

void
CacheArray::invalidate(CacheLine &line)
{
    if (line.valid()) {
        // Close the gap: the lines older than `line` move up a rank.
        CacheLine *set = setOfLine(line);
        for (std::size_t w = 0; w < ways; ++w)
            if (set[w].valid() && set[w].rank > line.rank)
                --set[w].rank;
    }
    line = CacheLine{};
}

std::size_t
CacheArray::countValid() const
{
    std::size_t n = 0;
    for (const auto &line : lines)
        if (line.valid())
            ++n;
    return n;
}

void
CacheArray::checkpoint(sim::CheckpointIo &cp)
{
    // A save writes this array's own geometry, in the current format,
    // so every check below is the restore's: the geometry match, the
    // cold start, the older formats and a malformed image.
    std::size_t ck_sets = sets, ck_ways = ways, ck_block = blockBytes;
    cp.field(ck_sets);
    cp.field(ck_ways);
    cp.field(ck_block);
    const std::uint32_t format = cp.format();
    if (format == 1) {
        std::uint64_t useCounter = 0; // format 1's next stamp
        cp.field(useCounter);
    }

    if (ck_sets != sets || ck_ways != ways ||
        ck_block != blockBytes) {
        // The checkpoint was taken under a different cache
        // geometry (e.g. restoring a warmed run into a different
        // associativity, as in the paper's Experiment 1 design).
        // Cached contents are meaningless under the new index
        // function, so start cold; memory is then the owner of
        // every block, which keeps the coherence invariants intact.
        if (format == 1) {
            std::vector<Format1Line> other;
            cp.field(other);
        } else if (format == 2) {
            std::vector<CacheLine> other;
            cp.field(other);
        } else {
            std::vector<std::uint64_t> bitmap;
            std::vector<CacheLine> valid;
            cp.field(bitmap);
            cp.field(valid);
        }
        std::fill(lines.begin(), lines.end(), CacheLine{});
        return;
    }
    if (format >= 3) {
        checkpointLive(cp);
        return;
    }
    // The header's geometry matched, so an older dense image lands
    // straight in `lines` without reallocating. The line vector
    // carries its own length, though: a stream consistent everywhere
    // else could still hold a short vector, and find() indexes sets *
    // ways lines.
    const std::size_t at = cp.offset();
    if (format == 1) {
        restoreFormat1(cp, at);
        return;
    }
    cp.field(lines);
    if (lines.size() != sets * ways) {
        sim::panic("checkpoint cache image at offset %zu holds %zu "
                   "lines, its %zu sets x %zu ways need %zu",
                   at, lines.size(), sets, ways, sets * ways);
    }
}

void
CacheArray::checkpointLive(sim::CheckpointIo &cp)
{
    const std::size_t n = sets * ways;
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> bitmap;
    std::vector<CacheLine> valid;
    if (!cp.loading()) {
        bitmap.assign(words, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (lines[i].valid()) {
                bitmap[i / 64] |= std::uint64_t{1} << (i % 64);
                valid.push_back(lines[i]);
            }
        }
    }
    const std::size_t bitmapAt = cp.offset();
    cp.field(bitmap);
    const std::size_t validAt = cp.offset();
    cp.field(valid);
    if (!cp.loading())
        return;

    // Each check names the offset of what it refuses: a crafted
    // image can be consistent everywhere else (and pass an archive
    // checksum), and find() trusts every line it is handed.
    if (bitmap.size() != words) {
        sim::panic("checkpoint cache image bitmap at offset %zu holds "
                   "%zu words, its %zu sets x %zu ways need %zu",
                   bitmapAt, bitmap.size(), sets, ways, words);
    }
    if (n % 64 != 0 && bitmap.back() >> (n % 64) != 0) {
        sim::panic("checkpoint cache image bitmap at offset %zu marks "
                   "line %zu, past its %zu lines",
                   bitmapAt,
                   (words - 1) * 64 +
                       static_cast<std::size_t>(
                           std::countr_zero(bitmap.back() >> (n % 64))) +
                       n % 64,
                   n);
    }
    // The bit count is checked as the lines are placed: a separate
    // popcount pass is a library call per word on the baseline
    // target, which a restore pays for every array.
    const auto countMismatch = [&]() {
        std::size_t marked = 0;
        for (std::uint64_t word : bitmap)
            marked += static_cast<std::size_t>(std::popcount(word));
        sim::panic("checkpoint cache image bitmap at offset %zu marks "
                   "%zu valid lines, the image at offset %zu holds %zu",
                   bitmapAt, marked, validAt, valid.size());
    };

    // Replace the contents: a free way is all-zero bytes and a line
    // has no padding, so one memset clears the array, and each valid
    // line then lands on its index.
    std::memset(static_cast<void *>(lines.data()), 0,
                n * sizeof(CacheLine));
    // The lines follow their vector's tag byte and tagged u64 count.
    const std::size_t first = validAt + 1 + 1 + sizeof(std::uint64_t);
    std::size_t k = 0;
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = bitmap[w]; bits != 0;
             bits &= bits - 1, ++k) {
            if (k == valid.size())
                countMismatch();
            const CacheLine &line = valid[k];
            if (!line.valid()) {
                sim::panic("checkpoint cache image line at offset %zu "
                           "is Invalid, but its bitmap marks it valid",
                           first + k * sizeof(CacheLine));
            }
            lines[w * 64 + static_cast<std::size_t>(
                               std::countr_zero(bits))] = line;
        }
    }
    if (k != valid.size())
        countMismatch();
}

void
CacheArray::restoreFormat1(sim::CheckpointIo &cp, std::size_t at)
{
    std::vector<Format1Line> old;
    cp.field(old);
    if (old.size() != sets * ways) {
        sim::panic("checkpoint cache image at offset %zu holds %zu "
                   "lines, its %zu sets x %zu ways need %zu",
                   at, old.size(), sets, ways, sets * ways);
    }
    // The vector's elements follow its tag byte and tagged u64 count.
    const std::size_t first = at + 1 + 1 + sizeof(std::uint64_t);
    std::vector<std::size_t> order; // a set's valid ways
    for (std::size_t s = 0; s < sets; ++s) {
        const std::size_t base = s * ways;
        order.clear();
        for (std::size_t w = 0; w < ways; ++w) {
            const Format1Line &o = old[base + w];
            CacheLine &line = lines[base + w];
            line = CacheLine{};
            if (o.state == static_cast<std::uint8_t>(LineState::Invalid))
                continue;
            const std::size_t offset =
                first + (base + w) * sizeof(Format1Line);
            const sim::Addr block = o.blockAddr;
            const std::size_t home =
                static_cast<std::size_t>(block >> blockShift) & setMask;
            if (blockAlign(block) != block || home != s) {
                sim::panic("checkpoint cache image line at offset %zu "
                           "holds block %#llx, which does not belong "
                           "to its set %zu of %zu (%zu-byte blocks)",
                           offset, static_cast<unsigned long long>(block),
                           s, sets, blockBytes);
            }
            const std::uint64_t tag = block >> tagShift;
            if (tag > std::numeric_limits<std::uint32_t>::max()) {
                sim::panic("checkpoint cache image line at offset %zu "
                           "holds block %#llx, which does not fit a "
                           "32-bit tag in %zu sets of %zu-byte blocks",
                           offset, static_cast<unsigned long long>(block),
                           sets, blockBytes);
            }
            line.tag = static_cast<std::uint32_t>(tag);
            line.state = static_cast<LineState>(o.state);
            line.aux = o.aux;
            order.push_back(w);
        }
        // Rank by stamp, newest first. Format 1 evicted the first way
        // holding the smallest stamp, so among equal stamps a lower
        // way counts as older.
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const std::uint64_t ua = old[base + a].lastUse;
                      const std::uint64_t ub = old[base + b].lastUse;
                      return ua != ub ? ua > ub : a > b;
                  });
        for (std::size_t r = 0; r < order.size(); ++r)
            lines[base + order[r]].rank = static_cast<std::uint16_t>(r);
    }
}

} // namespace mem
} // namespace varsim
