/**
 * @file
 * Memory-system configuration, defaulted to the paper's target
 * (Section 3.2.1): a 16-node Sun E10000-like SMP. Each node has split
 * 128 KB 4-way L1s and a unified 4 MB 4-way L2 with 64-byte blocks;
 * nodes are connected by a two-level crossbar hierarchy with a 50 ns
 * traversal; DRAM access time is 80 ns; a processor supplies snooped
 * data after 25 ns. Resulting latencies: 180 ns memory fetch, 125 ns
 * cache-to-cache transfer, at a 1 GHz system clock.
 */

#ifndef VARSIM_MEM_CONFIG_HH
#define VARSIM_MEM_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace varsim
{
namespace mem
{

/**
 * Most nodes a system may have: both fabrics keep per-block node sets
 * as 64-bit masks (the directory's sharers, the bus's snoop filter).
 */
inline constexpr std::size_t kMaxNodes = 64;

/** Which coherence protocol/fabric keeps the caches coherent. */
enum class CoherenceProtocol : std::uint8_t
{
    /** MOSI broadcast snooping on an ordered bus (the paper's
     *  E10000-like target, Section 3.2.1). */
    Snooping,
    /** MOSI home-node directory with point-to-point forwarding
     *  (SGI-Origin style; the Multifacet infrastructure supported
     *  multiple protocols, Section 3.2.3). */
    Directory,
};

struct MemConfig
{
    /** Coherence protocol (see CoherenceProtocol). */
    CoherenceProtocol protocol = CoherenceProtocol::Snooping;

    /** Number of processor/cache/memory nodes (1..kMaxNodes). */
    std::size_t numNodes = 16;

    /** Cache line size in bytes (all levels). */
    std::size_t blockBytes = 64;

    /** Per-L1 (instruction or data) capacity in bytes. */
    std::size_t l1Size = 128 * 1024;

    /** L1 associativity. */
    std::size_t l1Assoc = 4;

    /** Unified per-node L2 capacity in bytes. */
    std::size_t l2Size = 4 * 1024 * 1024;

    /** L2 associativity (Experiment 1 varies this: 1, 2, 4). */
    std::size_t l2Assoc = 4;

    /** L1 hit latency (part of the 1-cycle instruction at IPC 1). */
    sim::Tick l1HitLatency = 1;

    /** L1-miss/L2-hit round-trip latency. */
    sim::Tick l2HitLatency = 12;

    /** One interconnect traversal (wire + sync + routing). */
    sim::Tick netTraversal = 50;

    /** Snoop-to-data delay when a processor supplies the block. */
    sim::Tick ownerLatency = 25;

    /** DRAM access time. */
    sim::Tick dramLatency = 80;

    /** Minimum spacing between requests serviced by one controller. */
    sim::Tick dramOccupancy = 16;

    /** Address-network ordering bandwidth: one request per this. */
    sim::Tick busOccupancy = 4;

    /** Delay before a NACKed request is reissued. */
    sim::Tick retryDelay = 24;

    /** Latency to complete an upgrade when the data is already local. */
    sim::Tick upgradeLatency = 8;

    /** Directory-fabric: per-home request processing spacing. */
    sim::Tick dirOccupancy = 8;

    /** Directory-fabric: directory lookup/processing latency. */
    sim::Tick dirLatency = 12;

    /**
     * Next-line L2 prefetcher: on a demand fill of block N, fetch
     * block N+1 in Shared state if absent. Off by default (the
     * paper's target has no prefetcher); an ablation knob.
     */
    bool l2NextLinePrefetch = false;

    /**
     * Maximum injected perturbation, inclusive (Section 3.3): each
     * ordered coherence request's completion is delayed by a uniform
     * pseudo-random integer number of ns in [0, perturbMaxNs]. Zero
     * disables the perturbation entirely (fully deterministic run).
     */
    sim::Tick perturbMaxNs = 4;
};

/** Aggregate memory-system statistics for one run. */
struct MemStats
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;       ///< ordered GetS/GetM requests
    std::uint64_t cacheToCache = 0;   ///< fills supplied by a peer L2
    std::uint64_t memoryFetches = 0;  ///< fills supplied by DRAM
    std::uint64_t upgrades = 0;       ///< GetM with data already local
    std::uint64_t nacks = 0;          ///< requests retried (busy block)
    std::uint64_t writebacks = 0;     ///< dirty evictions
    std::uint64_t prefetches = 0;  ///< prefetch requests issued
    std::uint64_t busTransactions = 0;
    sim::Tick busQueueDelay = 0;      ///< cumulative ordering delay
    sim::Tick perturbationTotal = 0;  ///< cumulative injected delay

    /** L1 miss ratio over all L1 accesses. */
    double
    l1MissRatio() const
    {
        const double total =
            static_cast<double>(l1Hits + l1Misses);
        return total > 0.0 ? static_cast<double>(l1Misses) / total
                           : 0.0;
    }

    /** L2 miss ratio over all L2 lookups. */
    double
    l2MissRatio() const
    {
        const double total =
            static_cast<double>(l2Hits + l2Misses);
        return total > 0.0 ? static_cast<double>(l2Misses) / total
                           : 0.0;
    }
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_CONFIG_HH
