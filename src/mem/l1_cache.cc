#include "mem/l1_cache.hh"

#include "mem/l2_controller.hh"
#include "sim/statistics.hh"
#include "sim/trace.hh"

namespace varsim
{
namespace mem
{

L1Cache::L1Cache(std::string name, sim::EventQueue &eq,
                 const MemConfig &config, L2Controller &l2_ref,
                 bool is_icache)
    : SimObject(std::move(name), eq), cfg(config), l2(l2_ref),
      isICache(is_icache),
      array(config.l1Size, config.l1Assoc, config.blockBytes)
{}

L1Cache::MshrEntry *
L1Cache::findMshr(sim::Addr block_addr)
{
    for (MshrEntry &entry : mshr)
        if (entry.addr == block_addr)
            return &entry;
    return nullptr;
}

void
L1Cache::eraseMshr(std::size_t index)
{
    std::vector<MemRequest> reqs = std::move(mshr[index].reqs);
    if (reqs.capacity() != 0) {
        reqs.clear();
        reqPool.push_back(std::move(reqs));
    }
    if (index != mshr.size() - 1)
        mshr[index] = std::move(mshr.back());
    mshr.pop_back();
}

bool
L1Cache::tryAccess(sim::Addr addr, bool write)
{
    VARSIM_ASSERT(!(isICache && write), "store to the icache");
    CacheLine *line = array.findAndTouch(array.blockAlign(addr));
    if (line == nullptr)
        return false;
    if (write && line->state != LineState::Modified)
        return false;
    ++numHits;
    return true;
}

void
L1Cache::access(const MemRequest &req)
{
    ++numMisses;
    const sim::Addr block = array.blockAlign(req.addr);
    MshrEntry *entry = findMshr(block);
    if (entry == nullptr) {
        mshr.emplace_back();
        MshrEntry &fresh = mshr.back();
        fresh.addr = block;
        if (!reqPool.empty()) {
            fresh.reqs = std::move(reqPool.back());
            reqPool.pop_back();
        }
        fresh.reqs.push_back(req);
        DPRINTF(Cache, "miss blk=%#llx w=%d",
                static_cast<unsigned long long>(block),
                int(req.write));
        // An L2 hit responds synchronously, re-entering l2Response
        // and mutating mshr — `fresh` is dead past this call.
        l2.request(block, req.write, this);
        return;
    }
    // Merge into the outstanding miss. If this request needs write
    // permission and only a read was requested so far, escalate.
    bool hadWrite = false;
    for (const MemRequest &r : entry->reqs)
        hadWrite |= r.write;
    entry->reqs.push_back(req);
    if (req.write && !hadWrite)
        l2.request(block, true, this);
}

// Inline: every timed L1 miss fills through it.
inline void
L1Cache::fill(sim::Addr block_addr, bool writable)
{
    CacheLine *line = array.find(block_addr);
    if (line == nullptr) {
        Victim victim;
        // L1 evictions are silent: the L2 is inclusive.
        line = array.allocate(block_addr, victim).first;
        line->state =
            writable ? LineState::Modified : LineState::Shared;
    } else {
        if (writable)
            line->state = LineState::Modified;
        array.touch(*line);
    }
}

void
L1Cache::l2Response(sim::Addr block_addr, bool writable,
                    sim::Tick delay)
{
    fill(block_addr, writable);

    MshrEntry *entry = findMshr(block_addr);
    if (entry == nullptr)
        return; // back-to-back grants can outrun the waiters

    // Respond to every satisfied request and compact the rest in
    // place (stable, preserving arrival order) — no scratch vector.
    std::vector<MemRequest> &reqs = entry->reqs;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const MemRequest &r = reqs[i];
        if (!r.write || writable) {
            const std::uint64_t tag = r.tag;
            MemClient *client = client_;
            VARSIM_ASSERT(client != nullptr,
                          "%s has no client", name().c_str());
            callIn(
                delay, [client, tag] { client->memResponse(tag); },
                sim::Event::memoryResponsePri);
        } else {
            reqs[keep++] = reqs[i];
        }
    }
    if (keep == 0)
        eraseMshr(static_cast<std::size_t>(entry - mshr.data()));
    else
        reqs.resize(keep);
}

sim::Tick
L1Cache::warmAccess(sim::Addr addr, bool write)
{
    VARSIM_ASSERT(mshr.empty(),
                  "warm access on %s with %zu pending misses",
                  name().c_str(), mshr.size());
    if (tryAccess(addr, write))
        return 0;
    ++numMisses;
    const sim::Addr block = array.blockAlign(addr);
    const sim::Tick lat = l2.warmRequest(block, write, this);
    fill(block, write);
    return lat;
}

void
L1Cache::backProbe(sim::Addr block_addr, bool invalidate)
{
    CacheLine *line = array.find(block_addr);
    if (line == nullptr)
        return;
    if (invalidate)
        array.invalidate(*line);
    else
        line->state = LineState::Shared;
}

void
L1Cache::drain()
{
    VARSIM_ASSERT(mshr.empty(),
                  "draining %s with %zu pending misses",
                  name().c_str(), mshr.size());
}

void
L1Cache::checkpoint(sim::CheckpointIo &cp)
{
    VARSIM_ASSERT(cp.loading() || mshr.empty(),
                  "checkpoint with pending L1 misses");
    array.checkpoint(cp);
    cp.field(numHits);
    cp.field(numMisses);
}

void
L1Cache::regStats(sim::statistics::Registry &r)
{
    const std::string &n = name();
    r.regScalar(n + ".hits", &numHits);
    r.regScalar(n + ".misses", &numMisses);
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
