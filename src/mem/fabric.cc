#include "mem/fabric.hh"

#include <algorithm>

#include "mem/l2_controller.hh"

namespace varsim
{
namespace mem
{

CoherenceFabric::CoherenceFabric(std::string name, sim::EventQueue &eq,
                                 const MemConfig &config,
                                 sim::Random &perturb_rng,
                                 sim::Tick forward_latency)
    : SimObject(std::move(name), eq), cfg(config), dram(config),
      pertRng(perturb_rng), forwardLatency(forward_latency)
{}

// Inline: the timed order point runs it for every granted request.
inline CoherenceFabric::Supplier
CoherenceFabric::supply(const BusMsg &msg, int owner)
{
    ++stats_.l2Misses;
    if (owner == msg.srcNode) {
        VARSIM_ASSERT(msg.cmd == BusCmd::GetM,
                      "GetS from the owning node");
        ++stats_.upgrades;
        return Supplier::Upgrade;
    }
    if (owner >= 0) {
        ++stats_.cacheToCache;
        return Supplier::Owner;
    }
    ++stats_.memoryFetches;
    return Supplier::Memory;
}

void
CoherenceFabric::order(const BusMsg &msg)
{
    if (msg.cmd == BusCmd::PutM) {
        // Writebacks are fire-and-forget for timing purposes: the
        // evicting controller already relinquished ownership.
        ++stats_.writebacks;
        evicted(msg.srcNode, msg.blockAddr);
        return;
    }

    const auto src = static_cast<std::size_t>(msg.srcNode);
    VARSIM_ASSERT(src < nodes.size(), "request from unknown node %d",
                  msg.srcNode);
    if (busy.contains(msg.blockAddr)) {
        ++stats_.nacks;
        nodes[src]->handleNack(msg.blockAddr);
        return;
    }

    const Grant grant = transition(msg);
    const sim::Tick pert =
        cfg.perturbMaxNs > 0 ? pertRng.uniformInt(0, cfg.perturbMaxNs)
                             : 0;
    stats_.perturbationTotal += pert;

    sim::Tick dataDelay = 0;
    switch (supply(msg, grant.owner)) {
      case Supplier::Upgrade:
        dataDelay = cfg.upgradeLatency;
        break;
      case Supplier::Owner:
        dataDelay = forwardLatency;
        break;
      case Supplier::Memory:
        dataDelay = dram.schedule(msg.blockAddr, curTick()) -
                    curTick() + cfg.netTraversal;
        break;
    }
    dataDelay = std::max(dataDelay, grant.ackDelay) + pert;

    busy.insert(msg.blockAddr);
    L2Controller *requestor = nodes[src];
    const sim::Addr block = msg.blockAddr;
    const bool writable = msg.cmd == BusCmd::GetM;
    callIn(
        dataDelay,
        [this, requestor, block, writable] {
            busy.erase(block);
            requestor->fillArrived(block, writable);
        },
        sim::Event::memoryResponsePri);
}

bool
CoherenceFabric::warmTransition(int src, sim::Addr block,
                                bool writable)
{
    VARSIM_ASSERT(busy.empty(),
                  "warm transition with transactions in flight");
    VARSIM_ASSERT(static_cast<std::size_t>(src) < nodes.size(),
                  "warm transition from unknown node %d", src);
    const BusMsg msg{writable ? BusCmd::GetM : BusCmd::GetS, block,
                     src};
    const Grant grant = transition(msg);
    ++stats_.busTransactions;
    return supply(msg, grant.owner) == Supplier::Owner;
}

void
CoherenceFabric::warmEvict(int src, sim::Addr block)
{
    ++stats_.writebacks;
    evicted(src, block);
}

void
CoherenceFabric::drain()
{
    VARSIM_ASSERT(busy.empty(), "draining %s with %zu busy blocks",
                  name().c_str(), busy.size());
}

void
CoherenceFabric::checkpoint(sim::CheckpointIo &cp)
{
    VARSIM_ASSERT(cp.loading() || busy.empty(),
                  "checkpoint with busy blocks in %s", name().c_str());
    cp.field(stats_);
    dram.checkpoint(cp);
}

void
CoherenceFabric::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".transactions", &stats_.busTransactions,
                "requests serialized at the order point");
    r.regScalar(n + ".l2_misses", &stats_.l2Misses,
                "ordered GetS/GetM requests");
    r.regScalar(n + ".cache_to_cache", &stats_.cacheToCache,
                "fills supplied by a peer L2");
    r.regScalar(n + ".memory_fetches", &stats_.memoryFetches,
                "fills supplied by DRAM");
    r.regScalar(n + ".upgrades", &stats_.upgrades,
                "GetM with data already local");
    r.regScalar(n + ".nacks", &stats_.nacks,
                "requests retried against a busy block");
    r.regScalar(n + ".writebacks", &stats_.writebacks,
                "dirty evictions");
    r.regScalar(n + ".queue_delay_ticks", &stats_.busQueueDelay,
                "cumulative ordering delay");
    r.regScalar(n + ".perturbation_ticks",
                &stats_.perturbationTotal,
                "cumulative injected latency perturbation");
    r.regFormula(n + ".dram_accesses",
                 [this] {
                     return static_cast<double>(dram.accesses());
                 },
                 "home-memory DRAM accesses");
    regProtocolStats(r);
    r.regDistribution(n + ".queue_delay", &queueDelayDist,
                      "per-request ordering delay distribution");
}

} // namespace mem
} // namespace varsim
