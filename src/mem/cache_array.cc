#include "mem/cache_array.hh"

#include <cstring>

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

} // anonymous namespace

CacheArray::CacheArray(std::size_t size_bytes, std::size_t assoc,
                       std::size_t block_bytes)
    : ways(assoc), blockBytes(block_bytes)
{
    VARSIM_ASSERT(isPow2(block_bytes), "block size must be a power "
                  "of two, got %zu", block_bytes);
    VARSIM_ASSERT(assoc >= 1, "associativity must be >= 1");
    VARSIM_ASSERT(size_bytes % (assoc * block_bytes) == 0,
                  "cache size %zu not divisible by way size",
                  size_bytes);
    sets = size_bytes / (assoc * block_bytes);
    VARSIM_ASSERT(isPow2(sets), "number of sets (%zu) must be a power "
                  "of two", sets);
    while ((std::size_t{1} << blockShift) < blockBytes)
        ++blockShift;
    setMask = sets - 1;
    lines.resize(sets * ways);
}

void
CacheArray::touch(CacheLine &line)
{
    line.lastUse = ++useCounter;
}

std::pair<CacheLine *, bool>
CacheArray::allocate(sim::Addr block_addr, CacheLine &victim)
{
#ifndef NDEBUG
    VARSIM_ASSERT(find(block_addr) == nullptr,
                  "allocate: block %#llx already present",
                  static_cast<unsigned long long>(block_addr));
#endif
    // Single pass: take the first free way if one exists, otherwise
    // the true-LRU valid line (strict < keeps the earliest minimum,
    // matching the historical two-scan selection exactly).
    const std::size_t base = setIndex(block_addr) * ways;
    CacheLine *target = nullptr;
    CacheLine *lru = &lines[base];
    for (std::size_t w = 0; w < ways; ++w) {
        CacheLine &line = lines[base + w];
        if (!line.valid()) {
            target = &line;
            break;
        }
        if (line.lastUse < lru->lastUse)
            lru = &line;
    }
    bool hadVictim = false;
    if (target == nullptr) {
        target = lru;
        victim = *target;
        hadVictim = true;
    }
    target->blockAddr = block_addr;
    target->state = LineState::Invalid; // caller sets the real state
    target->aux = 0;
    touch(*target);
    return {target, hadVictim};
}

void
CacheArray::invalidate(CacheLine &line)
{
    line.state = LineState::Invalid;
    line.blockAddr = sim::invalidAddr;
    line.aux = 0;
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
CacheArray::serialize(sim::CheckpointOut &cp) const
{
    cp.put<std::uint64_t>(sets);
    cp.put<std::uint64_t>(ways);
    cp.put<std::uint64_t>(blockBytes);
    cp.put(useCounter);
    // CacheLine has internal padding and cp.put(vector) memcpys raw
    // object bytes, so serialize a member-wise copy whose padding is
    // zeroed. Otherwise the image would embed whatever the allocator
    // recycled into those bytes, and checkpoints of identical
    // simulated state would not be bitwise identical.
    std::vector<CacheLine> clean(lines.size());
    std::memset(static_cast<void *>(clean.data()), 0,
                clean.size() * sizeof(CacheLine));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        clean[i].blockAddr = lines[i].blockAddr;
        clean[i].state = lines[i].state;
        clean[i].aux = lines[i].aux;
        clean[i].lastUse = lines[i].lastUse;
    }
    cp.put(clean);
}

void
CacheArray::unserialize(sim::CheckpointIn &cp)
{
    std::uint64_t ck_sets = 0, ck_ways = 0, ck_block = 0;
    cp.get(ck_sets);
    cp.get(ck_ways);
    cp.get(ck_block);
    std::uint64_t ck_use = 0;
    cp.get(ck_use);

    if (ck_sets != sets || ck_ways != ways ||
        ck_block != blockBytes) {
        // The checkpoint was taken under a different cache
        // geometry (e.g. restoring a warmed run into a different
        // associativity, as in the paper's Experiment 1 design).
        // Cached contents are meaningless under the new index
        // function, so start cold; memory is then the owner of
        // every block, which keeps the coherence invariants intact.
        std::vector<CacheLine> other; // the other geometry's lines
        cp.get(other);
        for (auto &line : lines)
            line = CacheLine{};
        useCounter = 0;
        return;
    }
    // The header's geometry matched, so the image lands straight in
    // `lines` without reallocating. The line vector carries its own
    // length, though: a stream consistent everywhere else could still
    // hold a short vector, and find() indexes sets * ways lines.
    const std::size_t at = cp.offset();
    cp.get(lines);
    if (lines.size() != sets * ways) {
        sim::panic("checkpoint cache image at offset %zu holds %zu "
                   "lines, its %zu sets x %zu ways need %zu",
                   at, lines.size(), sets, ways, sets * ways);
    }
    useCounter = ck_use;
}

} // namespace mem
} // namespace varsim
