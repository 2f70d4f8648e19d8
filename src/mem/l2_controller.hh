/**
 * @file
 * Per-node unified L2 cache and coherence controller.
 *
 * Implements the node-side half of the MOSI invalidation snooping
 * protocol. Stable states live in the tag array; in-flight requests
 * live in transaction buffer entries (TBEs) that record which L1s
 * wait on the fill and whether write permission is needed. State
 * transitions driven by remote requests happen at the bus's global
 * order point (handleRemoteSnoop), which keeps every race
 * timing-dependent yet well defined — the paper's "timing-dependent
 * race conditions and lock contention events that cannot be captured
 * using a trace-driven methodology" (Section 3.2.3).
 */

#ifndef VARSIM_MEM_L2_CONTROLLER_HH
#define VARSIM_MEM_L2_CONTROLLER_HH

#include <utility>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/fabric.hh"
#include "sim/sim_object.hh"

namespace varsim
{
namespace mem
{

class L1Cache;

/** L2 line aux bits: which local L1s hold a copy. */
enum L2AuxBits : std::uint8_t
{
    l2AuxL1ICopy = 1 << 0,
    l2AuxL1DCopy = 1 << 1,
};

class L2Controller : public sim::SimObject
{
  public:
    L2Controller(std::string name, sim::EventQueue &eq,
                 const MemConfig &cfg, CoherenceFabric &fabric,
                 int node_id);

    /** Wire up this node's L1s (for fills and back-probes). */
    void setL1s(L1Cache *icache, L1Cache *dcache);

    /**
     * Request from a local L1: obtain @p block_addr with read
     * (needWritable=false) or write permission. The L1 receives
     * l2Response() when satisfied.
     */
    void request(sim::Addr block_addr, bool need_writable,
                 L1Cache *who);

    /** Bus: a remote node's request was ordered; apply transitions. */
    void handleRemoteSnoop(const BusMsg &msg);

    /**
     * Bus fast path: report this node's pre-transition stable state
     * for @p msg's block and, when @p remote, apply the snoop
     * transitions of handleRemoteSnoop() — all in a single tag walk
     * (the broadcast bus otherwise probes every node's tags twice
     * per ordered request: once to locate the owner, once to apply).
     */
    LineState snoopAndHandle(const BusMsg &msg, bool remote);

    /** Bus: our request collided with a busy block; retry later. */
    void handleNack(sim::Addr block_addr);

    /**
     * Bus: data (or upgrade permission) for our request arrives.
     * @param writable true for GetM completions.
     */
    void fillArrived(sim::Addr block_addr, bool writable);

    /** Stable coherence state of a block (Invalid if absent). */
    LineState snoopState(sim::Addr block_addr) const;

    // ---- functional warming (sampling fast mode) ----

    /**
     * Fast-mode request from a local L1: satisfy @p block_addr with
     * the needed permission synchronously — no TBE, no events, no
     * NACK/retry — while applying the exact MOSI transitions a timed
     * request would (via CoherenceFabric::warmTransition on a miss).
     * Only legal while this controller is quiescent (no TBEs).
     *
     * @return the fixed latency the CPU model should charge for the
     *         access (L2 hit, upgrade, cache-to-cache or memory).
     */
    sim::Tick warmRequest(sim::Addr block_addr, bool need_writable,
                          L1Cache *who);

    /** Visit every valid L2 line as fn(block address, line)
     *  (directory and snoop-filter rebuild on restore). */
    template <typename Fn>
    void
    forEachValidLine(Fn &&fn) const
    {
        array.forEachValid(std::forward<Fn>(fn));
    }

    /** Number of in-flight TBEs (0 when quiescent). */
    std::size_t pendingTransactions() const { return tbes.size(); }

    /** Local hit counter (reads satisfied without the bus). */
    std::uint64_t hits() const { return numHits; }

    /** Requests that went to the bus. */
    std::uint64_t misses() const { return numMisses; }

    /** Dirty evictions. */
    std::uint64_t writebacks() const { return numWritebacks; }

    /** Retries after NACK. */
    std::uint64_t retries() const { return numRetries; }

    /** Next-line prefetches issued. */
    std::uint64_t prefetches() const { return numPrefetches; }

    void drain() override;
    void checkpoint(sim::CheckpointIo &cp) override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    struct Waiter
    {
        L1Cache *l1;
        bool needWritable;
    };

    /**
     * In-flight transactions live in a flat, unordered vector: only
     * a handful are ever outstanding, lookups are by address (never
     * iterated in a semantically meaningful order), and swap-remove
     * erasure plus waiter-vector recycling keep the miss path free
     * of per-transaction allocation.
     */
    struct Tbe
    {
        sim::Addr addr = sim::invalidAddr;
        BusCmd issued;
        bool prefetch = false; ///< no waiters; dropped on NACK
        std::vector<Waiter> waiters;
    };

    Tbe *findTbe(sim::Addr block_addr);
    Tbe &newTbe(sim::Addr block_addr, BusCmd cmd);
    /** Swap-remove the slot at @p index, recycling its waiters. */
    void eraseTbe(std::size_t index);
    /** Return a waiter vector's capacity to the recycling pool. */
    void releaseWaiters(std::vector<Waiter> &&waiters);

    /** What lookup() found. */
    struct Probe
    {
        CacheLine *line; ///< the block's line, or nullptr
        bool hit;        ///< the line grants the permission asked
    };

    /**
     * The hit test of both request paths, timed and warm: find and
     * touch @p block_addr's line and, on a hit, count it and record
     * @p who's copy.
     */
    Probe lookup(sim::Addr block_addr, bool need_writable,
                 L1Cache *who);

    /** What fill() did. */
    struct Fill
    {
        CacheLine *line;      ///< the filled line
        sim::Addr writeback;  ///< evicted owned block, or invalidAddr
    };

    /**
     * Install a granted GetS/GetM for @p block_addr, timed or warm:
     * allocate a Shared or Modified line (evicting a victim and
     * back-probing its L1 copies), or make the resident line Modified
     * on an upgrade. The caller writes back the owned victim.
     */
    Fill fill(sim::Addr block_addr, bool writable);

    void maybePrefetch(sim::Addr filled_block);

    void issue(sim::Addr block_addr, BusCmd cmd);
    /** Back-probe the L1s whose copy bits are set in @p aux. */
    void backProbeL1s(sim::Addr block_addr, std::uint8_t aux,
                      bool invalidate_l1);
    std::uint8_t l1Bit(const L1Cache *l1) const;

    const MemConfig &cfg;
    CoherenceFabric &bus;
    int node;
    CacheArray array;
    std::vector<Tbe> tbes;
    std::vector<std::vector<Waiter>> waiterPool;
    L1Cache *icache = nullptr;
    L1Cache *dcache = nullptr;

    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
    std::uint64_t numWritebacks = 0;
    std::uint64_t numRetries = 0;
    std::uint64_t numPrefetches = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_L2_CONTROLLER_HH
