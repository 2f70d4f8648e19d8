/**
 * @file
 * The address network: a totally ordered broadcast "bus" abstracting
 * the paper's two-level crossbar hierarchy, as the ordering policy of
 * the coherence engine (CoherenceFabric).
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

#include "mem/addr_map.hh"
#include "mem/fabric.hh"

namespace varsim
{
namespace mem
{

/**
 * The ordered broadcast address network.
 */
class SnoopBus : public CoherenceFabric
{
  public:
    SnoopBus(std::string name, sim::EventQueue &eq,
             const MemConfig &cfg, sim::Random &perturb_rng);

    /** Order the request on the bus; it is snooped one network
     *  traversal later. */
    void sendRequest(const BusMsg &msg) override;

    void checkpoint(sim::CheckpointIo &cp) override;
    void postRestore() override;

  private:
    /**
     * Apply the snoop transitions on every node the filter names, in
     * ascending node order, and update the filter.
     */
    Grant transition(const BusMsg &msg) override;

    /** Bus utilization. */
    void regProtocolStats(sim::statistics::Registry &r) override;

    /**
     * The snoop filter: per block, a bitmask of the nodes that may
     * hold it. A GetS adds the requester, a GetM leaves only the
     * requester, and a walk that finds no copy drops that node; a
     * silent clean eviction leaves a stale bit, which costs one walk.
     */
    AddrMap<std::uint64_t> holders;
    sim::Tick nextOrderTick = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_SNOOP_BUS_HH
