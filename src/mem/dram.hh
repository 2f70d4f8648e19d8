/**
 * @file
 * Home-memory (DRAM) timing: one logical controller per node,
 * selected by block-address interleaving, each servicing one request
 * per dramOccupancy ns FIFO with the paper's 80 ns access time.
 */

#ifndef VARSIM_MEM_DRAM_HH
#define VARSIM_MEM_DRAM_HH

#include <vector>

#include "mem/config.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace mem
{

class DramModel : public sim::Serializable
{
  public:
    explicit DramModel(const MemConfig &cfg);

    /** Home node of a block. */
    int homeNode(sim::Addr block_addr) const;

    /**
     * Reserve a service slot starting no earlier than @p now.
     * @return the tick at which the data leaves the controller
     *         (start + dramLatency).
     */
    sim::Tick schedule(sim::Addr block_addr, sim::Tick now);

    std::uint64_t accesses() const { return numAccesses; }

    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    const MemConfig &cfg;
    std::vector<sim::Tick> nextFree;
    std::uint64_t numAccesses = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_DRAM_HH
