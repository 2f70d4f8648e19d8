#include "mem/directory.hh"

#include <algorithm>

#include "mem/l2_controller.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace mem
{

DirectoryFabric::DirectoryFabric(std::string name,
                                 sim::EventQueue &eq,
                                 const MemConfig &config,
                                 sim::Random &perturb_rng)
    : SimObject(std::move(name), eq), cfg(config),
      pertRng(perturb_rng), dram_(config),
      homeNextFree(config.numNodes, 0)
{}

void
DirectoryFabric::addNode(L2Controller *l2)
{
    nodes.push_back(l2);
}

DirectoryFabric::Entry &
DirectoryFabric::entry(sim::Addr block_addr)
{
    return dir[block_addr];
}

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
        dram_.homeNode(msg.blockAddr));
    const sim::Tick arrive = curTick() + cfg.netTraversal;
    const sim::Tick start =
        std::max(arrive, homeNextFree[home]);
    homeNextFree[home] = start + cfg.dirOccupancy;
    ++stats_.busTransactions;
    stats_.busQueueDelay += start - arrive;
    queueDelayDist.sample(static_cast<double>(start - arrive));

    callIn(start + cfg.dirLatency - curTick(),
           [this, msg] { process(msg); });
}

void
DirectoryFabric::process(BusMsg msg)
{
    const sim::Tick now = curTick();
    Entry &e = entry(msg.blockAddr);
    const auto srcBit = std::uint64_t{1}
                        << static_cast<unsigned>(msg.srcNode);

    if (msg.cmd == BusCmd::PutM) {
        // Writeback: ownership returns to memory; remaining sharers
        // (MOSI allows sharers under an O owner) keep their copies.
        ++stats_.writebacks;
        if (e.owner == msg.srcNode)
            e.owner = -1;
        e.sharers &= ~srcBit;
        return;
    }

    auto src = static_cast<std::size_t>(msg.srcNode);
    VARSIM_ASSERT(src < nodes.size(),
                  "directory request from unknown node %d",
                  msg.srcNode);

    if (busy.contains(msg.blockAddr)) {
        ++stats_.nacks;
        nodes[src]->handleNack(msg.blockAddr);
        return;
    }

    ++stats_.l2Misses;
    const bool writable = msg.cmd == BusCmd::GetM;
    const sim::Tick pert =
        cfg.perturbMaxNs > 0
            ? pertRng.uniformInt(0, cfg.perturbMaxNs)
            : 0;
    stats_.perturbationTotal += pert;

    // The directory's view can lag silent L1/L2 interactions only
    // for *owner* state via in-flight PutM; validate against the
    // actual cache to avoid forwarding to a stale owner.
    int owner = e.owner;
    if (owner >= 0 &&
        !isOwnerState(nodes[static_cast<std::size_t>(owner)]
                          ->snoopState(msg.blockAddr))) {
        owner = -1; // PutM in flight: memory owns the data
        e.owner = -1;
    }

    sim::Tick dataDelay;
    if (writable) {
        // Invalidate every other copy the directory knows about.
        sim::Tick ackDelay = 0;
        std::uint64_t toInvalidate =
            (e.sharers | (owner >= 0 ? (std::uint64_t{1}
                                        << unsigned(owner))
                                     : 0)) &
            ~srcBit;
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            if (toInvalidate & (std::uint64_t{1} << n)) {
                nodes[n]->handleRemoteSnoop(msg);
                // INV hop + ack hop, overlapped across sharers.
                ackDelay = 2 * cfg.netTraversal;
            }
        }
        if (owner == msg.srcNode) {
            // Upgrade: data already local.
            ++stats_.upgrades;
            dataDelay = std::max(cfg.upgradeLatency, ackDelay);
        } else if (owner >= 0) {
            // 3-hop forward: home->owner, owner provides, ->src.
            ++stats_.cacheToCache;
            dataDelay = std::max(cfg.netTraversal +
                                     cfg.ownerLatency +
                                     cfg.netTraversal,
                                 ackDelay);
        } else {
            ++stats_.memoryFetches;
            const sim::Tick ready =
                dram_.schedule(msg.blockAddr, now);
            dataDelay = std::max((ready - now) + cfg.netTraversal,
                                 ackDelay);
        }
        e.owner = msg.srcNode;
        e.sharers = srcBit;
    } else {
        if (owner >= 0) {
            // Forward to the owner; it downgrades M->O and supplies
            // data directly to the requestor.
            nodes[static_cast<std::size_t>(owner)]
                ->handleRemoteSnoop(msg);
            ++stats_.cacheToCache;
            dataDelay = cfg.netTraversal + cfg.ownerLatency +
                        cfg.netTraversal;
        } else {
            ++stats_.memoryFetches;
            const sim::Tick ready =
                dram_.schedule(msg.blockAddr, now);
            dataDelay = (ready - now) + cfg.netTraversal;
        }
        e.sharers |= srcBit;
    }
    dataDelay += pert;

    busy.insert(msg.blockAddr);
    L2Controller *requestor = nodes[src];
    const sim::Addr block = msg.blockAddr;
    callIn(
        dataDelay,
        [this, requestor, block, writable] {
            busy.erase(block);
            requestor->fillArrived(block, writable);
        },
        sim::Event::memoryResponsePri);
}

bool
DirectoryFabric::warmTransition(int src, sim::Addr block,
                                bool writable)
{
    VARSIM_ASSERT(busy.empty(),
                  "warm transition with transactions in flight");
    const BusMsg msg{writable ? BusCmd::GetM : BusCmd::GetS, block,
                     src};
    const auto srcIdx = static_cast<std::size_t>(src);
    VARSIM_ASSERT(srcIdx < nodes.size(),
                  "warm transition from unknown node %d", src);
    Entry &e = entry(block);
    const auto srcBit = std::uint64_t{1} << unsigned(src);

    // Same stale-owner validation as process(): silent clean L2
    // evictions can leave the directory pointing at a node that no
    // longer owns the block.
    int owner = e.owner;
    if (owner >= 0 &&
        !isOwnerState(nodes[static_cast<std::size_t>(owner)]
                          ->snoopState(block))) {
        owner = -1;
        e.owner = -1;
    }

    ++stats_.busTransactions;
    ++stats_.l2Misses;

    bool remoteSupply = false;
    if (writable) {
        const std::uint64_t toInvalidate =
            (e.sharers |
             (owner >= 0 ? (std::uint64_t{1} << unsigned(owner))
                         : 0)) &
            ~srcBit;
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            if (toInvalidate & (std::uint64_t{1} << n))
                nodes[n]->snoopAndHandle(msg, true);
        }
        if (owner == src) {
            ++stats_.upgrades;
        } else if (owner >= 0) {
            ++stats_.cacheToCache;
            remoteSupply = true;
        } else {
            ++stats_.memoryFetches;
        }
        e.owner = src;
        e.sharers = srcBit;
    } else {
        if (owner >= 0) {
            nodes[static_cast<std::size_t>(owner)]->snoopAndHandle(
                msg, true);
            ++stats_.cacheToCache;
            remoteSupply = true;
        } else {
            ++stats_.memoryFetches;
        }
        e.sharers |= srcBit;
    }
    return remoteSupply;
}

void
DirectoryFabric::warmEvict(int src, sim::Addr block)
{
    // Functional PutM: ownership returns to memory and the evicting
    // node drops out of the sharer set, exactly as process() does
    // for a timed writeback.
    ++stats_.writebacks;
    Entry &e = entry(block);
    if (e.owner == src)
        e.owner = -1;
    e.sharers &= ~(std::uint64_t{1} << unsigned(src));
}

void
DirectoryFabric::drain()
{
    VARSIM_ASSERT(busy.empty(),
                  "draining directory with %zu busy blocks",
                  busy.size());
}

void
DirectoryFabric::serialize(sim::CheckpointOut &cp) const
{
    VARSIM_ASSERT(busy.empty(),
                  "checkpoint with busy directory blocks");
    cp.put(homeNextFree);
    cp.put(stats_);
    dram_.serialize(cp);
    // `dir` is intentionally not serialized: it is derived from the
    // cache tags and rebuilt in postRestore().
}

void
DirectoryFabric::unserialize(sim::CheckpointIn &cp)
{
    cp.get(homeNextFree);
    cp.get(stats_);
    dram_.unserialize(cp);
    dir.clear();
}

void
DirectoryFabric::postRestore()
{
    dir.clear();
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        nodes[n]->forEachValidLine([&](sim::Addr block,
                                       const CacheLine &line) {
            Entry &e = entry(block);
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

void
DirectoryFabric::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".transactions", &stats_.busTransactions,
                "requests serialized at home directories");
    r.regScalar(n + ".l2_misses", &stats_.l2Misses,
                "ordered GetS/GetM requests");
    r.regScalar(n + ".cache_to_cache", &stats_.cacheToCache,
                "fills forwarded from an owner cache");
    r.regScalar(n + ".memory_fetches", &stats_.memoryFetches,
                "fills supplied by DRAM");
    r.regScalar(n + ".upgrades", &stats_.upgrades,
                "GetM with data already local");
    r.regScalar(n + ".nacks", &stats_.nacks,
                "requests retried against a busy block");
    r.regScalar(n + ".writebacks", &stats_.writebacks,
                "dirty evictions");
    r.regScalar(n + ".queue_delay_ticks", &stats_.busQueueDelay,
                "cumulative home-serialization delay");
    r.regScalar(n + ".perturbation_ticks",
                &stats_.perturbationTotal,
                "cumulative injected latency perturbation");
    r.regFormula(n + ".dram_accesses",
                 [this] {
                     return static_cast<double>(dram_.accesses());
                 },
                 "home-memory DRAM accesses");
    r.regDistribution(n + ".queue_delay", &queueDelayDist,
                      "per-request home-serialization delay");
}

} // namespace mem
} // namespace varsim
