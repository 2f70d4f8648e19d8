#include "mem/l2_controller.hh"

#include "mem/l1_cache.hh"
#include "sim/statistics.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace mem
{

L2Controller::L2Controller(std::string name, sim::EventQueue &eq,
                           const MemConfig &config,
                           CoherenceFabric &bus_ref, int node_id)
    : SimObject(std::move(name), eq), cfg(config), bus(bus_ref),
      node(node_id),
      array(config.l2Size, config.l2Assoc, config.blockBytes)
{}

void
L2Controller::setL1s(L1Cache *ic, L1Cache *dc)
{
    icache = ic;
    dcache = dc;
}

std::uint8_t
L2Controller::l1Bit(const L1Cache *l1) const
{
    return l1 == icache ? l2AuxL1ICopy : l2AuxL1DCopy;
}

L2Controller::Tbe *
L2Controller::findTbe(sim::Addr block_addr)
{
    for (Tbe &tbe : tbes)
        if (tbe.addr == block_addr)
            return &tbe;
    return nullptr;
}

L2Controller::Tbe &
L2Controller::newTbe(sim::Addr block_addr, BusCmd cmd)
{
    tbes.emplace_back();
    Tbe &tbe = tbes.back();
    tbe.addr = block_addr;
    tbe.issued = cmd;
    if (!waiterPool.empty()) {
        tbe.waiters = std::move(waiterPool.back());
        waiterPool.pop_back();
    }
    return tbe;
}

void
L2Controller::eraseTbe(std::size_t index)
{
    releaseWaiters(std::move(tbes[index].waiters));
    if (index != tbes.size() - 1)
        tbes[index] = std::move(tbes.back());
    tbes.pop_back();
}

void
L2Controller::releaseWaiters(std::vector<Waiter> &&waiters)
{
    if (waiters.capacity() == 0)
        return;
    waiters.clear();
    waiterPool.push_back(std::move(waiters));
}

// Inline: every timed and warm L1 miss probes through it.
inline L2Controller::Probe
L2Controller::lookup(sim::Addr block_addr, bool need_writable,
                     L1Cache *who)
{
    CacheLine *line = array.findAndTouch(block_addr);
    const bool hit =
        line != nullptr &&
        (need_writable ? line->state == LineState::Modified
                       : isValidState(line->state));
    if (hit) {
        ++numHits;
        line->aux |= l1Bit(who);
    }
    return {line, hit};
}

void
L2Controller::request(sim::Addr block_addr, bool need_writable,
                      L1Cache *who)
{
    if (lookup(block_addr, need_writable, who).hit) {
        DPRINTF(Cache, "L2 hit blk=%#llx w=%d",
                static_cast<unsigned long long>(block_addr),
                int(need_writable));
        who->l2Response(block_addr, need_writable, cfg.l2HitLatency);
        return;
    }

    Tbe *tbe = findTbe(block_addr);
    if (tbe == nullptr) {
        ++numMisses;
        const BusCmd cmd =
            need_writable ? BusCmd::GetM : BusCmd::GetS;
        newTbe(block_addr, cmd).waiters.push_back(
            {who, need_writable});
        issue(block_addr, cmd);
    } else {
        tbe->waiters.push_back({who, need_writable});
        // A demand request joining an in-flight prefetch makes it
        // a demand transaction (NACKs now retry).
        tbe->prefetch = false;
    }
}

void
L2Controller::issue(sim::Addr block_addr, BusCmd cmd)
{
    bus.sendRequest({cmd, block_addr, node});
}

void
L2Controller::maybePrefetch(sim::Addr filled_block)
{
    if (!cfg.l2NextLinePrefetch)
        return;
    const sim::Addr next = filled_block + cfg.blockBytes;
    if (array.find(next) != nullptr || findTbe(next) != nullptr)
        return;
    newTbe(next, BusCmd::GetS).prefetch = true;
    ++numPrefetches;
    issue(next, BusCmd::GetS);
}

void
L2Controller::handleNack(sim::Addr block_addr)
{
    Tbe *tbe = findTbe(block_addr);
    VARSIM_ASSERT(tbe != nullptr,
                  "NACK for block %#llx with no TBE",
                  static_cast<unsigned long long>(block_addr));
    if (tbe->prefetch && tbe->waiters.empty()) {
        // Prefetches are best-effort: drop on conflict.
        eraseTbe(static_cast<std::size_t>(tbe - tbes.data()));
        return;
    }
    ++numRetries;
    const BusCmd cmd = tbe->issued;
    DPRINTF(Coherence, "NACK blk=%#llx, retrying",
            static_cast<unsigned long long>(block_addr));
    callIn(cfg.retryDelay,
           [this, block_addr, cmd] { issue(block_addr, cmd); });
}

// Inline: every timed L2 miss fills through it.
inline L2Controller::Fill
L2Controller::fill(sim::Addr block_addr, bool writable)
{
    Fill done{array.find(block_addr), sim::invalidAddr};
    if (done.line == nullptr) {
        Victim victim;
        auto [fresh, hadVictim] = array.allocate(block_addr, victim);
        if (hadVictim) {
            backProbeL1s(victim.blockAddr, victim.aux, true);
            if (isOwnerState(victim.state)) {
                ++numWritebacks;
                done.writeback = victim.blockAddr;
            }
        }
        done.line = fresh;
        done.line->state =
            writable ? LineState::Modified : LineState::Shared;
    } else {
        // Upgrade completion: data was already local.
        VARSIM_ASSERT(writable, "GetS fill for a resident block");
        done.line->state = LineState::Modified;
        array.touch(*done.line);
    }
    return done;
}

void
L2Controller::fillArrived(sim::Addr block_addr, bool writable)
{
    const sim::Addr writeback = fill(block_addr, writable).writeback;
    if (writeback != sim::invalidAddr)
        issue(writeback, BusCmd::PutM);

    DPRINTF(Coherence, "fill blk=%#llx w=%d",
            static_cast<unsigned long long>(block_addr),
            int(writable));

    Tbe *tbe = findTbe(block_addr);
    VARSIM_ASSERT(tbe != nullptr,
                  "fill for block %#llx with no TBE",
                  static_cast<unsigned long long>(block_addr));
    std::vector<Waiter> waiters = std::move(tbe->waiters);
    const bool wasPrefetch = tbe->prefetch;
    // Erase before re-running the waiters: request() may create new
    // TBEs, reallocating the vector under any live slot pointer.
    eraseTbe(static_cast<std::size_t>(tbe - tbes.data()));

    // Re-run every waiter: reads (and writes, if the fill granted M)
    // hit and respond after the L2 access latency; writes that got
    // only a Shared fill start a GetM round.
    for (const Waiter &w : waiters)
        request(block_addr, w.needWritable, w.l1);
    releaseWaiters(std::move(waiters));

    // Demand fills trigger the next-line prefetcher (prefetch fills
    // do not, to avoid runaway chains).
    if (!wasPrefetch)
        maybePrefetch(block_addr);
}

void
L2Controller::handleRemoteSnoop(const BusMsg &msg)
{
    snoopAndHandle(msg, true);
}

LineState
L2Controller::snoopAndHandle(const BusMsg &msg, bool remote)
{
    CacheLine *line = array.find(msg.blockAddr);
    if (line == nullptr)
        return LineState::Invalid;
    const LineState before = line->state;
    if (remote) {
        if (msg.cmd == BusCmd::GetM) {
            backProbeL1s(msg.blockAddr, line->aux, true);
            array.invalidate(*line);
        } else if (msg.cmd == BusCmd::GetS) {
            if (before == LineState::Modified) {
                line->state = LineState::Owned;
                backProbeL1s(msg.blockAddr, line->aux, false);
            }
            // Shared/Owned copies are unaffected by a remote GetS.
        }
    }
    return before;
}

sim::Tick
L2Controller::warmRequest(sim::Addr block_addr, bool need_writable,
                          L1Cache *who)
{
    VARSIM_ASSERT(tbes.empty(),
                  "warm request on %s with %zu pending TBEs",
                  name().c_str(), tbes.size());
    const Probe probe = lookup(block_addr, need_writable, who);
    if (probe.hit)
        return cfg.l2HitLatency;

    ++numMisses;
    const bool hadCopy = probe.line != nullptr; // S/O -> M upgrade path
    const bool remote =
        bus.warmTransition(node, block_addr, need_writable);
    const Fill done = fill(block_addr, need_writable);
    if (done.writeback != sim::invalidAddr)
        bus.warmEvict(node, done.writeback);
    done.line->aux |= l1Bit(who);

    // Fixed-latency charge classified like the timed protocol would
    // have: upgrade, 3-hop owner forward, or memory fetch — without
    // ordering, occupancy, NACK or perturbation terms.
    if (hadCopy)
        return cfg.l2HitLatency + cfg.upgradeLatency;
    if (remote)
        return cfg.l2HitLatency + cfg.netTraversal +
               cfg.ownerLatency + cfg.netTraversal;
    return cfg.l2HitLatency + cfg.netTraversal + cfg.dramLatency +
           cfg.netTraversal;
}

LineState
L2Controller::snoopState(sim::Addr block_addr) const
{
    const CacheLine *line = array.find(block_addr);
    return line != nullptr ? line->state : LineState::Invalid;
}

void
L2Controller::backProbeL1s(sim::Addr block_addr, std::uint8_t aux,
                           bool invalidate_l1)
{
    if ((aux & l2AuxL1ICopy) && icache != nullptr)
        icache->backProbe(block_addr, invalidate_l1);
    if ((aux & l2AuxL1DCopy) && dcache != nullptr)
        dcache->backProbe(block_addr, invalidate_l1);
}

void
L2Controller::drain()
{
    VARSIM_ASSERT(tbes.empty(),
                  "draining L2 %s with %zu pending TBEs",
                  name().c_str(), tbes.size());
}

void
L2Controller::checkpoint(sim::CheckpointIo &cp)
{
    VARSIM_ASSERT(cp.loading() || tbes.empty(),
                  "checkpoint with pending L2 TBEs");
    array.checkpoint(cp);
    cp.field(numHits);
    cp.field(numMisses);
    cp.field(numWritebacks);
    cp.field(numRetries);
    cp.field(numPrefetches);
}

void
L2Controller::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".hits", &numHits);
    r.regScalar(n + ".misses", &numMisses);
    r.regScalar(n + ".writebacks", &numWritebacks);
    r.regScalar(n + ".retries", &numRetries,
                "requests re-issued after a NACK");
    r.regScalar(n + ".prefetches", &numPrefetches,
                "next-line prefetches issued");
    r.regFormula(n + ".miss_ratio", [this] {
        const double total =
            static_cast<double>(numHits + numMisses);
        return total > 0.0
                   ? static_cast<double>(numMisses) / total
                   : 0.0;
    });
}

} // namespace mem
} // namespace varsim
