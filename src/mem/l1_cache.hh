/**
 * @file
 * Private split L1 cache (instruction or data side).
 *
 * The hot path is tryAccess(): a pure tag probe with no event-queue
 * traffic, so L1 hits cost the CPU model nothing beyond its own
 * cycle accounting. Misses take the slow path through an MSHR and
 * the node's L2 controller; responses come back through the owning
 * CPU's MemClient interface.
 *
 * L1 lines are either Shared (read-only) or Modified (writable); the
 * L2 keeps the node inclusive and back-probes the L1s when a remote
 * snoop or an L2 eviction removes or downgrades a block.
 */

#ifndef VARSIM_MEM_L1_CACHE_HH
#define VARSIM_MEM_L1_CACHE_HH

#include <vector>

#include "mem/cache_array.hh"
#include "mem/config.hh"
#include "mem/iface.hh"
#include "sim/sim_object.hh"

namespace varsim
{
namespace mem
{

class L2Controller;

class L1Cache : public sim::SimObject
{
  public:
    L1Cache(std::string name, sim::EventQueue &eq,
            const MemConfig &cfg, L2Controller &l2, bool is_icache);

    /** The CPU that receives miss responses. */
    void setClient(MemClient *client) { client_ = client; }

    /**
     * Fast path: probe for @p addr with the needed permission.
     * On a hit the LRU state updates and true returns; the access is
     * complete (hit latency is folded into the CPU's cycle
     * accounting). On a miss nothing changes and false returns; the
     * caller must follow up with access().
     */
    bool tryAccess(sim::Addr addr, bool write);

    /**
     * Slow path: start a miss for @p req. The response arrives via
     * MemClient::memResponse(req.tag) at data-available time.
     * Requests to the same block merge into one outstanding miss.
     */
    void access(const MemRequest &req);

    /**
     * L2: a previously requested block is now available. The L1 tag
     * array fills immediately (keeping back-probes coherent with the
     * L2's order-point decisions); CPU notifications are delivered
     * @p delay ticks later, modelling the L2-to-core transfer.
     */
    void l2Response(sim::Addr block_addr, bool writable,
                    sim::Tick delay);

    /**
     * L2: remove (@p invalidate=true) or downgrade to read-only
     * (@p invalidate=false) our copy of @p block_addr.
     */
    void backProbe(sim::Addr block_addr, bool invalidate);

    /**
     * Functional warming (sampling fast mode): complete the access
     * synchronously — tag probe, miss handling through
     * L2Controller::warmRequest(), functional L1 fill — with the
     * exact state updates of the timed path but no MSHR, no events
     * and no CPU notification. Only legal while this node is
     * quiescent (no outstanding misses).
     *
     * @return the fixed latency the CPU model should charge
     *         (0 for an L1 hit).
     */
    sim::Tick warmAccess(sim::Addr addr, bool write);

    /** Block-align an address using this cache's geometry. */
    sim::Addr blockAlign(sim::Addr a) const { return array.blockAlign(a); }

    /** Line size in bytes. */
    std::size_t blockSize() const { return array.blockSize(); }

    /** Outstanding misses (0 when quiescent). */
    std::size_t pendingMisses() const { return mshr.size(); }

    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }

    void drain() override;
    void checkpoint(sim::CheckpointIo &cp) override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    /**
     * One outstanding miss: the block and the requests merged into
     * it. Entries live in a flat, unordered vector (an L1 has at
     * most a few misses in flight); erased entries return their
     * request-vector capacity to a pool so the miss path stops
     * allocating once warm.
     */
    struct MshrEntry
    {
        sim::Addr addr = sim::invalidAddr;
        std::vector<MemRequest> reqs;
    };

    /** Install @p block_addr, timed or warm: allocate a Shared or
     *  Modified line, or grant write permission to a resident one. */
    void fill(sim::Addr block_addr, bool writable);

    MshrEntry *findMshr(sim::Addr block_addr);
    /** Swap-remove the entry at @p index, recycling its requests. */
    void eraseMshr(std::size_t index);

    const MemConfig &cfg;
    L2Controller &l2;
    MemClient *client_ = nullptr;
    bool isICache;
    CacheArray array;
    std::vector<MshrEntry> mshr;
    std::vector<std::vector<MemRequest>> reqPool;

    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_L1_CACHE_HH
