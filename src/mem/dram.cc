#include "mem/dram.hh"

#include <algorithm>

namespace varsim
{
namespace mem
{

DramModel::DramModel(const MemConfig &config)
    : cfg(config), nextFree(config.numNodes, 0)
{}

int
DramModel::homeNode(sim::Addr block_addr) const
{
    return static_cast<int>((block_addr / cfg.blockBytes) %
                            cfg.numNodes);
}

sim::Tick
DramModel::schedule(sim::Addr block_addr, sim::Tick now)
{
    auto home = static_cast<std::size_t>(homeNode(block_addr));
    const sim::Tick start = std::max(now, nextFree[home]);
    nextFree[home] = start + cfg.dramOccupancy;
    ++numAccesses;
    return start + cfg.dramLatency;
}

void
DramModel::checkpoint(sim::CheckpointIo &cp)
{
    cp.field(nextFree);
    cp.field(numAccesses);
}

} // namespace mem
} // namespace varsim
