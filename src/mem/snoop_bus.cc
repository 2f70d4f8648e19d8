#include "mem/snoop_bus.hh"

#include <algorithm>
#include <bit>

#include "mem/l2_controller.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace mem
{

SnoopBus::SnoopBus(std::string name, sim::EventQueue &eq,
                   const MemConfig &config, sim::Random &perturb_rng)
    : SimObject(std::move(name), eq), cfg(config),
      pertRng(perturb_rng), dram_(config)
{}

void
SnoopBus::addNode(L2Controller *l2)
{
    nodes.push_back(l2);
}

void
SnoopBus::sendRequest(const BusMsg &msg)
{
    const sim::Tick now = curTick();
    const sim::Tick order = std::max(now, nextOrderTick);
    nextOrderTick = order + cfg.busOccupancy;
    ++stats_.busTransactions;
    stats_.busQueueDelay += order - now;
    queueDelayDist.sample(static_cast<double>(order - now));

    DPRINTF(Bus, "order %s blk=%#llx src=%d at %llu",
            msg.cmd == BusCmd::GetS   ? "GetS"
            : msg.cmd == BusCmd::GetM ? "GetM"
                                      : "PutM",
            static_cast<unsigned long long>(msg.blockAddr),
            msg.srcNode, static_cast<unsigned long long>(order));

    // Snooped by the possible holders one network traversal after
    // ordering.
    callIn(order - now + cfg.netTraversal,
           [this, msg] { snoop(msg); });
}

void
SnoopBus::snoop(BusMsg msg)
{
    if (msg.cmd == BusCmd::PutM) {
        // Writebacks are fire-and-forget for timing purposes: the
        // evicting controller already relinquished ownership, making
        // memory the owner (ownership is defined by cache states).
        ++stats_.writebacks;
        return;
    }

    auto src = static_cast<std::size_t>(msg.srcNode);
    VARSIM_ASSERT(src < nodes.size(), "snoop from unknown node %d",
                  msg.srcNode);

    if (busy.contains(msg.blockAddr)) {
        ++stats_.nacks;
        nodes[src]->handleNack(msg.blockAddr);
        return;
    }

    const int ownerNode = snoopHolders(msg);

    ++stats_.l2Misses;
    const bool writable = msg.cmd == BusCmd::GetM;
    const sim::Tick pert =
        cfg.perturbMaxNs > 0 ? pertRng.uniformInt(0, cfg.perturbMaxNs)
                             : 0;
    stats_.perturbationTotal += pert;

    sim::Tick dataDelay;
    if (ownerNode == static_cast<int>(src)) {
        // Upgrade: requestor already owns the data (O -> M).
        VARSIM_ASSERT(writable, "GetS from the owning node");
        ++stats_.upgrades;
        dataDelay = cfg.upgradeLatency + pert;
    } else if (ownerNode >= 0) {
        ++stats_.cacheToCache;
        dataDelay = cfg.ownerLatency + cfg.netTraversal + pert;
    } else {
        ++stats_.memoryFetches;
        const sim::Tick dataReady =
            dram_.schedule(msg.blockAddr, curTick());
        dataDelay = (dataReady - curTick()) + cfg.netTraversal + pert;
    }

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

int
SnoopBus::snoopHolders(const BusMsg &msg)
{
    // One tag walk per possible holder: record the pre-transition
    // owner (at most one node holds the block in M or O — a protocol
    // invariant) and apply the order-point transitions on every
    // non-source node. Transitions only mutate the snooped node's
    // own state, so read-then-transition per node is equivalent to
    // the read-all-then-transition-all sequence.
    const auto src = static_cast<std::size_t>(msg.srcNode);
    std::uint64_t &mask = holders[msg.blockAddr];
    std::uint64_t held = 0;
    int ownerNode = -1;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const auto n = static_cast<std::size_t>(std::countr_zero(m));
        const LineState s = nodes[n]->snoopAndHandle(msg, n != src);
        if (s == LineState::Invalid)
            continue;
        held |= std::uint64_t{1} << n;
        if (isOwnerState(s)) {
            VARSIM_ASSERT(ownerNode == -1,
                          "two owners for block %#llx",
                          static_cast<unsigned long long>(
                              msg.blockAddr));
            ownerNode = static_cast<int>(n);
        }
    }
    // The requester holds the block once its fill lands; until then
    // the block is busy and every other request for it is NACKed
    // before reaching here. A GetM invalidates every other copy.
    const std::uint64_t srcBit = std::uint64_t{1} << src;
    mask = msg.cmd == BusCmd::GetM ? srcBit : held | srcBit;
    return ownerNode;
}

bool
SnoopBus::warmTransition(int src, sim::Addr block, bool writable)
{
    VARSIM_ASSERT(busy.empty(),
                  "warm transition with transactions in flight");
    const BusMsg msg{writable ? BusCmd::GetM : BusCmd::GetS, block,
                     src};
    const auto srcIdx = static_cast<std::size_t>(src);
    VARSIM_ASSERT(srcIdx < nodes.size(),
                  "warm transition from unknown node %d", src);

    // Same tag walks as snoop(), minus ordering, occupancy, NACKs
    // and the perturbation draw: fast-mode misses keep the MOSI
    // states exact while charging only a fixed latency (the CPU
    // side does that), so the stable coherence state a later
    // detailed interval sees is the state a real execution would
    // have produced.
    const int ownerNode = snoopHolders(msg);

    ++stats_.busTransactions;
    ++stats_.l2Misses;
    if (ownerNode == src) {
        ++stats_.upgrades;
        return false;
    }
    if (ownerNode >= 0) {
        ++stats_.cacheToCache;
        return true;
    }
    ++stats_.memoryFetches;
    return false;
}

void
SnoopBus::warmEvict(int src, sim::Addr block)
{
    // On the bus a PutM is fire-and-forget (ownership is defined by
    // the cache states); only the counter needs to move.
    (void)src;
    (void)block;
    ++stats_.writebacks;
}

void
SnoopBus::drain()
{
    VARSIM_ASSERT(busy.empty(),
                  "draining bus with %zu busy blocks", busy.size());
}

void
SnoopBus::serialize(sim::CheckpointOut &cp) const
{
    VARSIM_ASSERT(busy.empty(), "checkpoint with busy bus blocks");
    cp.put(nextOrderTick);
    cp.put(stats_);
    dram_.serialize(cp);
    // `holders` is intentionally not serialized: it is derived from
    // the cache tags and rebuilt in postRestore().
}

void
SnoopBus::unserialize(sim::CheckpointIn &cp)
{
    cp.get(nextOrderTick);
    cp.get(stats_);
    dram_.unserialize(cp);
}

void
SnoopBus::postRestore()
{
    holders.clear();
    for (std::size_t n = 0; n < nodes.size(); ++n)
        nodes[n]->forEachValidLine([&](sim::Addr block,
                                       const CacheLine &) {
            holders[block] |= std::uint64_t{1} << n;
        });
}

void
SnoopBus::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".transactions", &stats_.busTransactions,
                "ordered address-network transactions");
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
                     return static_cast<double>(dram_.accesses());
                 },
                 "home-memory DRAM accesses");
    r.regFormula(n + ".utilization",
                 [this] {
                     const double elapsed =
                         static_cast<double>(curTick());
                     if (elapsed == 0.0)
                         return 0.0;
                     return static_cast<double>(
                                stats_.busTransactions *
                                cfg.busOccupancy) /
                            elapsed;
                 },
                 "fraction of ticks the address bus was occupied");
    r.regDistribution(n + ".queue_delay", &queueDelayDist,
                      "per-request ordering delay distribution");
}

} // namespace mem
} // namespace varsim
