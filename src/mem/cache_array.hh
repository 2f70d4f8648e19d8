/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for both L1 and L2 caches. Only tags and metadata are stored;
 * varsim never simulates data values. Replacement decisions are
 * deterministic (LRU by a monotone use counter, ties impossible), so
 * the array contributes no nondeterminism of its own — a requirement
 * of the paper's methodology, where the injected latency perturbation
 * must be the sole random input (Section 3.3).
 */

#ifndef VARSIM_MEM_CACHE_ARRAY_HH
#define VARSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace varsim
{
namespace mem
{

/** MOSI stable coherence states (plus Invalid). */
enum class LineState : std::uint8_t
{
    Invalid = 0,
    Shared,    ///< clean, possibly multiple copies
    Owned,     ///< dirty, responsible for data, sharers may exist
    Modified,  ///< dirty, exclusive
};

/** True if the state confers ownership (must supply data on snoop). */
constexpr bool
isOwnerState(LineState s)
{
    return s == LineState::Owned || s == LineState::Modified;
}

/** True if the state permits reads. */
constexpr bool
isValidState(LineState s)
{
    return s != LineState::Invalid;
}

/**
 * One cache line's metadata.
 *
 * Invariant: blockAddr == sim::invalidAddr iff the way is free. The
 * tag lookup fast path compares blockAddr alone, so invalidate()
 * must (and does) reset the tag along with the state.
 */
struct CacheLine
{
    sim::Addr blockAddr = sim::invalidAddr;
    LineState state = LineState::Invalid;
    /** Implementation-defined per-cache bits (e.g. L1 copy flags). */
    std::uint8_t aux = 0;
    /** Monotone use stamp for LRU. */
    std::uint64_t lastUse = 0;

    bool valid() const { return state != LineState::Invalid; }
};

/**
 * Set-associative tag array.
 */
class CacheArray : public sim::Serializable
{
  public:
    /**
     * @param size_bytes  total capacity
     * @param assoc       ways per set (1 = direct mapped)
     * @param block_bytes line size (power of two)
     */
    CacheArray(std::size_t size_bytes, std::size_t assoc,
               std::size_t block_bytes);

    /** Block-align an address. */
    sim::Addr
    blockAlign(sim::Addr addr) const
    {
        return addr & ~static_cast<sim::Addr>(blockBytes - 1);
    }

    /**
     * Look up @p block_addr (must be block-aligned).
     * @return the line, or nullptr if not present (Invalid lines are
     *         "not present").
     *
     * This is the hottest function in the simulator (every L1 probe,
     * every L2 request and every bus snoop of a node the snoop
     * filter names as a possible holder lands here), so the set
     * index is shift/mask (no division) and the way walk compares
     * tags only — free ways hold sim::invalidAddr, which no aligned
     * block address can equal. The state is checked once on a tag
     * match (tags are unique within a set) so a freshly allocated
     * line stays "not present" until the caller sets its state.
     */
    CacheLine *
    find(sim::Addr block_addr)
    {
        CacheLine *line = &lines[setIndex(block_addr) * ways];
        for (std::size_t w = 0; w < ways; ++w, ++line) {
            if (line->blockAddr == block_addr)
                return line->state != LineState::Invalid ? line
                                                         : nullptr;
        }
        return nullptr;
    }

    const CacheLine *
    find(sim::Addr block_addr) const
    {
        return const_cast<CacheArray *>(this)->find(block_addr);
    }

    /** find() + LRU update on hit. */
    CacheLine *
    findAndTouch(sim::Addr block_addr)
    {
        CacheLine *line = find(block_addr);
        if (line != nullptr)
            touch(*line);
        return line;
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line);

    /**
     * Allocate a line for @p block_addr, evicting the LRU valid line
     * of the set if no way is free.
     *
     * @param victim  out-parameter: a copy of the evicted line, valid
     *                only when the return's second member is true.
     * @return pair (line pointer, hadVictim)
     */
    std::pair<CacheLine *, bool> allocate(sim::Addr block_addr,
                                          CacheLine &victim);

    /** Invalidate a line (leaves LRU stamp untouched). */
    void invalidate(CacheLine &line);

    /** Geometry accessors. */
    std::size_t numSets() const { return sets; }
    std::size_t numWays() const { return ways; }
    std::size_t blockSize() const { return blockBytes; }

    /** Count of currently valid lines (O(capacity); for tests). */
    std::size_t countValid() const;

    /** Visit every valid line (O(capacity)); used to rebuild
     *  derived structures (e.g. directory sharer sets) on restore. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const CacheLine &line : lines)
            if (line.valid())
                fn(line);
    }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;

  private:
    /** Shift/mask index: blockBytes and sets are powers of two. */
    std::size_t
    setIndex(sim::Addr block_addr) const
    {
        return static_cast<std::size_t>(block_addr >> blockShift) &
               setMask;
    }

    std::size_t sets;
    std::size_t ways;
    std::size_t blockBytes;
    std::size_t blockShift = 0; ///< log2(blockBytes)
    std::size_t setMask = 0;    ///< sets - 1
    std::uint64_t useCounter = 0;
    std::vector<CacheLine> lines; // sets * ways, row-major by set
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_CACHE_ARRAY_HH
