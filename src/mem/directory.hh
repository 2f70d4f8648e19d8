/**
 * @file
 * Directory-based MOSI coherence (SGI-Origin style): the other
 * ordering policy of the coherence engine (CoherenceFabric), beside
 * the broadcast snooping bus.
 *
 * Each block has a home node (block-address interleaved, as for
 * DRAM). The home's directory entry tracks the owner cache (if any)
 * and a sharer bitmask. Requests travel point-to-point to the home
 * (50 ns), are serialized there (the per-home order point), and data
 * comes either from memory (80 ns + 50 ns) or is forwarded to the
 * owner (3-hop: 50 + 25 + 50 ns). GetM additionally sends
 * invalidations to sharers; completion waits for data *and* the
 * invalidation acknowledgements.
 *
 * Conflicting in-flight transactions to the same block are NACKed
 * and retried (blocking-directory discipline), and the per-request
 * latency perturbation of the paper's Section 3.3 applies: both are
 * the engine's order-point step, the one the bus runs, so the
 * variability methodology is protocol-agnostic — which
 * `bench_ablation_protocol` demonstrates.
 *
 * The directory content is *derived* state (who caches what); it is
 * never checkpointed but rebuilt from the restored cache tags
 * (postRestore), which keeps it consistent even across cache-geometry
 * changes.
 */

#ifndef VARSIM_MEM_DIRECTORY_HH
#define VARSIM_MEM_DIRECTORY_HH

#include <vector>

#include "mem/addr_map.hh"
#include "mem/fabric.hh"

namespace varsim
{
namespace mem
{

class DirectoryFabric : public CoherenceFabric
{
  public:
    DirectoryFabric(std::string name, sim::EventQueue &eq,
                    const MemConfig &cfg,
                    sim::Random &perturb_rng);

    /** Send the request to its home node, where it is serialized. */
    void sendRequest(const BusMsg &msg) override;

    /** Directory entry introspection (tests). */
    int ownerOf(sim::Addr block_addr) const;
    std::uint64_t sharersOf(sim::Addr block_addr) const;

    void checkpoint(sim::CheckpointIo &cp) override;
    void postRestore() override;

  private:
    struct Entry
    {
        int owner = -1;           ///< caching owner, -1 = memory
        std::uint64_t sharers = 0;///< bitmask of nodes with copies
    };

    /**
     * Invalidate every other copy the entry knows of (GetM) or
     * forward to the owner (GetS), and record the requestor.
     */
    Grant transition(const BusMsg &msg) override;

    /** Ownership returns to memory; @p src leaves the sharers. */
    void evicted(int src, sim::Addr block) override;

    AddrMap<Entry> dir;
    std::vector<sim::Tick> homeNextFree;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_DIRECTORY_HH
