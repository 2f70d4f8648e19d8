#include "mem/directory.hh"

#include <algorithm>
#include <bit>

#include "mem/l2_controller.hh"

namespace varsim
{
namespace mem
{

namespace
{

std::uint64_t
nodeBit(int node)
{
    return std::uint64_t{1} << static_cast<unsigned>(node);
}

} // namespace

DirectoryFabric::DirectoryFabric(std::string name,
                                 sim::EventQueue &eq,
                                 const MemConfig &config,
                                 sim::Random &perturb_rng)
    : CoherenceFabric(std::move(name), eq, config, perturb_rng,
                      config.netTraversal + config.ownerLatency +
                          config.netTraversal),
      homeNextFree(config.numNodes, 0)
{}

int
DirectoryFabric::ownerOf(sim::Addr block_addr) const
{
    const Entry *e = dir.find(block_addr);
    return e != nullptr ? e->owner : -1;
}

std::uint64_t
DirectoryFabric::sharersOf(sim::Addr block_addr) const
{
    const Entry *e = dir.find(block_addr);
    return e != nullptr ? e->sharers : 0;
}

void
DirectoryFabric::sendRequest(const BusMsg &msg)
{
    // One network traversal to the home node, then per-home
    // serialized processing (the directory is the order point).
    const auto home = static_cast<std::size_t>(
        dram.homeNode(msg.blockAddr));
    const sim::Tick arrive = curTick() + cfg.netTraversal;
    const sim::Tick start =
        std::max(arrive, homeNextFree[home]);
    homeNextFree[home] = start + cfg.dirOccupancy;
    toOrderPoint(msg, start - arrive,
                 start + cfg.dirLatency - curTick());
}

CoherenceFabric::Grant
DirectoryFabric::transition(const BusMsg &msg)
{
    Entry &e = dir[msg.blockAddr];
    const std::uint64_t srcBit = nodeBit(msg.srcNode);

    // The entry can name an owner that no longer owns the block: a
    // silent clean eviction, or a PutM still in flight (memory owns
    // the data then). Validate against the cache before forwarding.
    if (e.owner >= 0 &&
        !isOwnerState(nodes[static_cast<std::size_t>(e.owner)]
                          ->snoopState(msg.blockAddr)))
        e.owner = -1;

    Grant grant{e.owner, 0};
    if (msg.cmd == BusCmd::GetM) {
        // Invalidate every other copy the directory knows about; the
        // INV and ack hops overlap across sharers.
        std::uint64_t others = e.sharers;
        if (e.owner >= 0)
            others |= nodeBit(e.owner);
        others &= ~srcBit;
        for (std::uint64_t m = others; m != 0; m &= m - 1)
            nodes[static_cast<std::size_t>(std::countr_zero(m))]
                ->handleRemoteSnoop(msg);
        if (others != 0)
            grant.ackDelay = 2 * cfg.netTraversal;
        e.owner = msg.srcNode;
        e.sharers = srcBit;
    } else {
        // Forward to the owner; it downgrades M->O and supplies data
        // directly to the requestor.
        if (e.owner >= 0)
            nodes[static_cast<std::size_t>(e.owner)]
                ->handleRemoteSnoop(msg);
        e.sharers |= srcBit;
    }
    return grant;
}

void
DirectoryFabric::evicted(int src, sim::Addr block)
{
    // MOSI allows sharers under an O owner: they keep their copies.
    Entry &e = dir[block];
    if (e.owner == src)
        e.owner = -1;
    e.sharers &= ~nodeBit(src);
}

void
DirectoryFabric::checkpoint(sim::CheckpointIo &cp)
{
    cp.field(homeNextFree);
    CoherenceFabric::checkpoint(cp);
    // `dir` is intentionally not checkpointed: it is derived from the
    // cache tags and rebuilt in postRestore().
}

void
DirectoryFabric::postRestore()
{
    dir.clear();
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        nodes[n]->forEachValidLine([&](sim::Addr block,
                                       const CacheLine &line) {
            Entry &e = dir[block];
            e.sharers |= std::uint64_t{1} << n;
            if (isOwnerState(line.state)) {
                VARSIM_ASSERT(e.owner == -1,
                              "two owners for block %#llx on "
                              "restore",
                              static_cast<unsigned long long>(
                                  block));
                e.owner = static_cast<int>(n);
            }
        });
    }
}

} // namespace mem
} // namespace varsim
