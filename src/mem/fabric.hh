/**
 * @file
 * The coherence engine: what an L2 controller needs from the
 * interconnect + protocol, and the order-point step every protocol
 * shares.
 *
 * The Multifacet simulator the paper builds on "supports a broad
 * range of coherence protocols, specified using a table-driven
 * specification methodology" (Section 3.2.3). varsim keeps one
 * engine and lets a protocol (MemConfig::protocol) supply only what
 * differs: how a request reaches its order point (sendRequest) and
 * what an ordered GetS/GetM does to the other caches and to the
 * protocol's own derived state (transition). Controller-side
 * semantics are identical for every protocol:
 *
 *  - sendRequest() enqueues a GetS/GetM/PutM;
 *  - at the order point, the source controller later receives
 *    exactly one of handleNack() (conflicting in-flight transaction;
 *    retry) or fillArrived() (data/permission granted), while the
 *    other nodes' state transitions happen atomically through the
 *    protocol's transition();
 *  - functional warming (warmTransition/warmEvict) calls the same
 *    transition() with no timing, so a warmed system holds exactly
 *    the MOSI state a timed run of the same accesses leaves.
 */

#ifndef VARSIM_MEM_FABRIC_HH
#define VARSIM_MEM_FABRIC_HH

#include <vector>

#include "mem/addr_set.hh"
#include "mem/config.hh"
#include "mem/dram.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/statistics.hh"

namespace varsim
{
namespace mem
{

class L2Controller;

/** Coherence request types carried by any fabric. */
enum class BusCmd : std::uint8_t
{
    GetS, ///< request a readable copy
    GetM, ///< request an exclusive writable copy
    PutM, ///< writeback of a dirty (M/O) block to memory
};

/** One coherence message. */
struct BusMsg
{
    BusCmd cmd = BusCmd::GetS;
    sim::Addr blockAddr = 0;
    int srcNode = -1;
};

/**
 * The protocol engine: nodes, the order point's NACK-or-grant step,
 * the home-memory DRAM model, the perturbation draw, statistics and
 * functional warming. A protocol derives from it and supplies its
 * ordering (sendRequest) and its transition.
 */
class CoherenceFabric : public sim::SimObject
{
  public:
    /**
     * @param forward_latency data delay, after ordering, when a peer
     *        cache owns the block (the protocol's owner-forward path).
     */
    CoherenceFabric(std::string name, sim::EventQueue &eq,
                    const MemConfig &cfg, sim::Random &perturb_rng,
                    sim::Tick forward_latency);

    /** Register a node's L2 controller. Order defines node ids. */
    void addNode(L2Controller *l2) { nodes.push_back(l2); }

    /**
     * Enqueue a coherence request (see the file comment). PutM is
     * fire-and-forget: its source gets no answer.
     */
    virtual void sendRequest(const BusMsg &msg) = 0;

    /** Statistics counters owned by the fabric. */
    const MemStats &stats() const { return stats_; }

    // ---- functional warming (sampling fast mode) ----

    /**
     * Apply the MOSI transitions of a GetS/GetM from @p src for
     * @p block synchronously: the protocol's own transition(), with
     * no timing, no events, no NACKs and no perturbation draw.
     *
     * Only legal while the fabric is quiescent (no in-flight
     * transactions): the sampling controller guarantees this by
     * draining before it switches the CPUs into fast mode.
     *
     * @return true if a remote owner cache supplied the data
     *         (cache-to-cache transfer), false if memory did (or the
     *         requestor already owned it).
     */
    bool warmTransition(int src, sim::Addr block, bool writable);

    /**
     * Functional counterpart of a PutM: @p src evicted an owned
     * (M/O) copy of @p block during fast mode.
     */
    void warmEvict(int src, sim::Addr block);

    /**
     * Re-derive the protocol's cache-dependent state (the snoop
     * filter, the directory's sharer sets) after the caches have been
     * restored. Called by MemSystem at the end of a restore.
     */
    virtual void postRestore() = 0;

    void drain() override;
    /** Statistics and DRAM; a protocol names its ordering state
     *  first, then calls this. */
    void checkpoint(sim::CheckpointIo &cp) override;
    void regStats(sim::statistics::Registry &r) override;

  protected:
    /** What an ordered GetS/GetM found. */
    struct Grant
    {
        /** The node that owned the block before the request (the
         *  source itself on an upgrade), or -1 for memory. */
        int owner = -1;
        /** Invalidation-ack round trip the data must also wait for. */
        sim::Tick ackDelay = 0;
    };

    /**
     * Apply an ordered GetS/GetM: invalidate (GetM) or downgrade the
     * owner of (GetS) every other copy, and update the protocol's
     * own derived state. Never touches the source node's copy.
     */
    virtual Grant transition(const BusMsg &msg) = 0;

    /** @p src gave up an owned copy of @p block (a timed or warm
     *  PutM). Default: nothing, ownership lives in the cache states. */
    virtual void evicted(int /*src*/, sim::Addr /*block*/) {}

    /** Protocol statistics, dumped after dram_accesses and before
     *  the queue-delay distribution. Default: none. */
    virtual void regProtocolStats(sim::statistics::Registry &) {}

    /**
     * A request reaches its order point after @p delay ticks, having
     * waited @p queue_delay of them behind earlier requests.
     */
    void
    toOrderPoint(const BusMsg &msg, sim::Tick queue_delay,
                 sim::Tick delay)
    {
        ++stats_.busTransactions;
        stats_.busQueueDelay += queue_delay;
        queueDelayDist.sample(static_cast<double>(queue_delay));
        callIn(delay, [this, msg] { order(msg); });
    }

    const MemConfig &cfg;
    DramModel dram;
    std::vector<L2Controller *> nodes;

  private:
    enum class Supplier : std::uint8_t
    {
        Upgrade, ///< the requestor already owns the data
        Owner,   ///< a peer cache supplies it
        Memory,  ///< DRAM supplies it
    };

    /** The order point: NACK @p msg or grant it and schedule the
     *  fill. */
    void order(const BusMsg &msg);

    /** Count a granted GetS/GetM and say who supplies its data. */
    Supplier supply(const BusMsg &msg, int owner);

    sim::Random &pertRng;
    sim::Tick forwardLatency;
    AddrSet busy;
    MemStats stats_;
    sim::statistics::Distribution queueDelayDist;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_FABRIC_HH
