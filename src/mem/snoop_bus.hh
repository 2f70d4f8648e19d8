/**
 * @file
 * The address network: a totally ordered broadcast "bus" abstracting
 * the paper's two-level crossbar hierarchy, plus the home-memory DRAM
 * model.
 *
 * All coherence requests are serialized here — the order point is the
 * single source of truth for MOSI state transitions, which happen
 * atomically when a request is snooped. Data movement is modelled as
 * latency (owner 25 ns or DRAM 80 ns, plus a 50 ns network traversal
 * and the per-miss pseudo-random perturbation of Section 3.3).
 *
 * Requests that hit a block with an in-flight transaction are NACKed
 * and retried by the requesting controller, as in real snooping
 * systems; the retry timing is itself a (deterministic) function of
 * the schedule, which further amplifies injected perturbations into
 * divergent executions — the mechanism at the heart of the paper's
 * space-variability results.
 *
 * A snoop filter at the order point keeps, per block, a superset of
 * the nodes whose L2 may hold it, and only those nodes' tags are
 * walked. A node without a copy neither supplies data nor changes
 * state on a snoop, so skipping it leaves every transition, owner
 * and event exactly as a walk of all nodes would. Like the
 * directory's table, the filter is derived state: never
 * checkpointed, rebuilt from the cache tags on restore.
 */

#ifndef VARSIM_MEM_SNOOP_BUS_HH
#define VARSIM_MEM_SNOOP_BUS_HH

#include <vector>

#include "mem/addr_map.hh"
#include "mem/addr_set.hh"
#include "mem/dram.hh"
#include "mem/fabric.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/statistics.hh"

namespace varsim
{
namespace mem
{

class L2Controller;

/**
 * The ordered broadcast address network plus protocol engine.
 */
class SnoopBus : public sim::SimObject, public CoherenceFabric
{
  public:
    SnoopBus(std::string name, sim::EventQueue &eq,
             const MemConfig &cfg, sim::Random &perturb_rng);

    /** Register a node's L2 controller. Order defines node ids. */
    void addNode(L2Controller *l2) override;

    /**
     * Enqueue a request for global ordering. The source controller
     * will later receive exactly one of handleNack() or
     * fillArrived() (except PutM, which is fire-and-forget).
     */
    void sendRequest(const BusMsg &msg) override;

    /** Statistics counters owned by the bus. */
    MemStats &stats() override { return stats_; }
    const MemStats &stats() const override { return stats_; }

    /** The DRAM model (exposed for tests). */
    DramModel &dram() { return dram_; }

    /** True if a transaction is in flight for @p block_addr. */
    bool
    blockBusy(sim::Addr block_addr) const override
    {
        return busy.contains(block_addr);
    }

    bool warmTransition(int src, sim::Addr block,
                        bool writable) override;
    void warmEvict(int src, sim::Addr block) override;

    void drain() override;
    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;
    void postRestore() override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    void snoop(BusMsg msg);

    /**
     * Apply an ordered GetS/GetM's snoop transitions on every node
     * the filter names, in ascending node order, and update the
     * filter. @return the node that owned the block before the
     * request (the source itself on an upgrade), or -1.
     */
    int snoopHolders(const BusMsg &msg);

    const MemConfig &cfg;
    sim::Random &pertRng;
    DramModel dram_;
    std::vector<L2Controller *> nodes;
    /**
     * The snoop filter: per block, a bitmask of the nodes that may
     * hold it. A GetS adds the requester, a GetM leaves only the
     * requester, and a walk that finds no copy drops that node; a
     * silent clean eviction leaves a stale bit, which costs one walk.
     */
    AddrMap<std::uint64_t> holders;
    AddrSet busy;
    sim::Tick nextOrderTick = 0;
    MemStats stats_;
    sim::statistics::Distribution queueDelayDist;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_SNOOP_BUS_HH
