/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for both L1 and L2 caches. Only tags and metadata are stored;
 * varsim never simulates data values. Replacement decisions are
 * deterministic (LRU by a per-set recency rank, ties impossible), so
 * the array contributes no nondeterminism of its own — a requirement
 * of the paper's methodology, where the injected latency perturbation
 * must be the sole random input (Section 3.3).
 *
 * A line is 8 bytes with no padding: the tag (the block address
 * above the set-index bits, so the array supplies the set), the
 * state, the owner's aux bits and the rank. A 16-node system's tag
 * state is therefore a third of what whole addresses and 64-bit use
 * stamps took. Callers that need a line's block address get it from
 * allocate()'s Victim and from forEachValid().
 *
 * In memory the array stays dense (every probe indexes its set
 * directly), but its checkpoint image holds only the valid lines and
 * a validity bitmap: a warmed 16-node L2 holds a few hundred valid
 * lines of 65,536, so the image follows the state, not the capacity.
 */

#ifndef VARSIM_MEM_CACHE_ARRAY_HH
#define VARSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <type_traits>
#include <utility>
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
 * Invariants: a free way is all-zero bytes; the valid lines of a set
 * with n of them hold the ranks 0..n-1, where rank r means r valid
 * lines of the set were used more recently (0 is the MRU line, n-1
 * the LRU victim). A rank is exact true LRU in 16 bits, which bounds
 * an array's associativity at 65,536 ways.
 */
struct CacheLine
{
    /** Block address bits above the offset and set index. */
    std::uint32_t tag = 0;
    LineState state = LineState::Invalid;
    /** Implementation-defined per-cache bits (e.g. L1 copy flags). */
    std::uint8_t aux = 0;
    /** Recency within the set; meaningful on valid lines only. */
    std::uint16_t rank = 0;

    bool valid() const { return state != LineState::Invalid; }
};

static_assert(sizeof(CacheLine) == 8 &&
                  std::has_unique_object_representations_v<CacheLine>,
              "cache images are the raw line vector: no padding");

/** The line allocate() evicted, with its block address restored. */
struct Victim
{
    sim::Addr blockAddr = sim::invalidAddr;
    LineState state = LineState::Invalid;
    std::uint8_t aux = 0;
};

/**
 * Set-associative tag array.
 */
class CacheArray : public sim::Serializable
{
  public:
    /** Ways a set may have: the range of CacheLine::rank. */
    static constexpr std::size_t kMaxWays = std::size_t{1} << 16;

    /**
     * @param size_bytes  total capacity
     * @param assoc       ways per set (1 = direct mapped, at most
     *                    kMaxWays)
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
     * index is shift/mask (no division) and the way walk reads one
     * 8-byte line per way. The tag is compared at full width, so a
     * block beyond a 32-bit tag's reach is never found (allocate()
     * refuses it), and a freshly allocated line stays "not present"
     * until the caller sets its state.
     */
    CacheLine *
    find(sim::Addr block_addr)
    {
        return findIn(setOf(block_addr), block_addr >> tagShift);
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
        CacheLine *set = setOf(block_addr);
        CacheLine *line = findIn(set, block_addr >> tagShift);
        if (line != nullptr && line->rank != 0)
            promote(set, *line);
        return line;
    }

    /** Mark @p line (a valid line of this array) most recently used. */
    void
    touch(CacheLine &line)
    {
        if (line.valid() && line.rank != 0)
            promote(setOfLine(line), line);
    }

    /**
     * Allocate a line for @p block_addr, evicting the LRU valid line
     * of the set if no way is free. Panics, naming the block and the
     * geometry, when the block's tag does not fit in 32 bits.
     *
     * @param victim  out-parameter: the evicted line, valid only when
     *                the return's second member is true.
     * @return pair (line pointer, hadVictim)
     */
    std::pair<CacheLine *, bool> allocate(sim::Addr block_addr,
                                          Victim &victim);

    /** Invalidate a line: it becomes a free way, all-zero bytes. */
    void invalidate(CacheLine &line);

    /** Geometry accessors. */
    std::size_t numSets() const { return sets; }
    std::size_t numWays() const { return ways; }
    std::size_t blockSize() const { return blockBytes; }

    /** Count of currently valid lines (O(capacity); for tests). */
    std::size_t countValid() const;

    /** Visit every valid line as fn(block address, line), in set
     *  and way order (O(capacity)); used to rebuild derived
     *  structures (e.g. directory sharer sets) on restore. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        const CacheLine *line = lines.data();
        for (std::size_t s = 0; s < sets; ++s) {
            const sim::Addr setBits = sim::Addr{s} << blockShift;
            for (std::size_t w = 0; w < ways; ++w, ++line)
                if (line->valid())
                    fn((sim::Addr{line->tag} << tagShift) | setBits,
                       *line);
        }
    }

    /**
     * The geometry, then (format 3, sim::kCheckpointFormat) a
     * validity bitmap of one u64 word per 64 lines of the sets x ways
     * vector and the valid lines in index order: never more than the
     * dense vector plus 1/64. A restore replaces the contents and
     * panics, naming the offset, on a bitmap of the wrong length, a
     * bit past the last line, a bit count that differs from the line
     * count or an Invalid line. It also reads format 2's dense line
     * vector and format 1's 24-byte lines (whole address, state, aux,
     * 64-bit use stamp), whose ranks follow from stamp order, and
     * restores an image of a different geometry cold.
     */
    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    /** First line of @p block_addr's set (shift/mask, no division). */
    CacheLine *
    setOf(sim::Addr block_addr)
    {
        const std::size_t set =
            static_cast<std::size_t>(block_addr >> blockShift) &
            setMask;
        return &lines[set * ways];
    }

    /** First line of the set holding @p line. */
    CacheLine *setOfLine(CacheLine &line);

    CacheLine *
    findIn(CacheLine *line, std::uint64_t tag)
    {
        for (std::size_t w = 0; w < ways; ++w, ++line) {
            if (line->tag == tag && line->valid())
                return line;
        }
        return nullptr;
    }

    /** Make valid @p line of @p set its MRU line (rank 0). */
    void promote(CacheLine *set, CacheLine &line);

    /** The format-3 image: validity bitmap, then the valid lines. */
    void checkpointLive(sim::CheckpointIo &cp);

    /** Restore a format-1 line vector starting at offset @p at. */
    void restoreFormat1(sim::CheckpointIo &cp, std::size_t at);

    std::size_t sets;
    std::size_t ways;
    std::size_t blockBytes;
    std::size_t blockShift = 0; ///< log2(blockBytes)
    std::size_t setMask = 0;    ///< sets - 1
    std::size_t tagShift = 0;   ///< log2(blockBytes * sets)
    std::vector<CacheLine> lines; // sets * ways, row-major by set
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_CACHE_ARRAY_HH
