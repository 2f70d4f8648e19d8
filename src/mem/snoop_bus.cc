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
    : CoherenceFabric(std::move(name), eq, config, perturb_rng,
                      config.ownerLatency + config.netTraversal)
{}

void
SnoopBus::sendRequest(const BusMsg &msg)
{
    const sim::Tick now = curTick();
    const sim::Tick order = std::max(now, nextOrderTick);
    nextOrderTick = order + cfg.busOccupancy;

    DPRINTF(Bus, "order %s blk=%#llx src=%d at %llu",
            msg.cmd == BusCmd::GetS   ? "GetS"
            : msg.cmd == BusCmd::GetM ? "GetM"
                                      : "PutM",
            static_cast<unsigned long long>(msg.blockAddr),
            msg.srcNode, static_cast<unsigned long long>(order));

    // Snooped by the possible holders one network traversal after
    // ordering.
    toOrderPoint(msg, order - now, order - now + cfg.netTraversal);
}

CoherenceFabric::Grant
SnoopBus::transition(const BusMsg &msg)
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
    Grant grant;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const auto n = static_cast<std::size_t>(std::countr_zero(m));
        const LineState s = nodes[n]->snoopAndHandle(msg, n != src);
        if (s == LineState::Invalid)
            continue;
        held |= std::uint64_t{1} << n;
        if (isOwnerState(s)) {
            VARSIM_ASSERT(grant.owner == -1,
                          "two owners for block %#llx",
                          static_cast<unsigned long long>(
                              msg.blockAddr));
            grant.owner = static_cast<int>(n);
        }
    }
    // The requester holds the block once its fill lands; until then
    // the block is busy and every other request for it is NACKed
    // before reaching here. A GetM invalidates every other copy.
    const std::uint64_t srcBit = std::uint64_t{1} << src;
    mask = msg.cmd == BusCmd::GetM ? srcBit : held | srcBit;
    return grant;
}

void
SnoopBus::checkpoint(sim::CheckpointIo &cp)
{
    cp.field(nextOrderTick);
    CoherenceFabric::checkpoint(cp);
    // `holders` is intentionally not checkpointed: it is derived from
    // the cache tags and rebuilt in postRestore().
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
SnoopBus::regProtocolStats(sim::statistics::Registry &r)
{
    r.regFormula(name() + ".utilization",
                 [this] {
                     const double elapsed =
                         static_cast<double>(curTick());
                     if (elapsed == 0.0)
                         return 0.0;
                     return static_cast<double>(
                                stats().busTransactions *
                                cfg.busOccupancy) /
                            elapsed;
                 },
                 "fraction of ticks the address bus was occupied");
}

} // namespace mem
} // namespace varsim
