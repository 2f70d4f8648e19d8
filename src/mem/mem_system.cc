#include "mem/mem_system.hh"

#include "mem/snoop_bus.hh"
#include "sim/logging.hh"
#include "sim/statistics.hh"

namespace varsim
{
namespace mem
{

MemSystem::MemSystem(std::string name, sim::EventQueue &eq,
                     MemConfig config)
    : SimObject(std::move(name), eq), cfg(config), pertRng(0)
{
    VARSIM_ASSERT(cfg.numNodes >= 1 && cfg.numNodes <= kMaxNodes,
                  "need 1..%zu nodes, got %zu", kMaxNodes,
                  cfg.numNodes);
    if (cfg.protocol == CoherenceProtocol::Snooping)
        fabric_ = std::make_unique<SnoopBus>(this->name() + ".bus", eq,
                                             cfg, pertRng);
    else
        fabric_ = std::make_unique<DirectoryFabric>(
            this->name() + ".dir", eq, cfg, pertRng);
    for (std::size_t n = 0; n < cfg.numNodes; ++n) {
        auto nodeName = this->name() + sim::format(".node%zu", n);
        l2s.push_back(std::make_unique<L2Controller>(
            nodeName + ".l2", eq, cfg, *fabric_,
            static_cast<int>(n)));
        icaches.push_back(std::make_unique<L1Cache>(
            nodeName + ".l1i", eq, cfg, *l2s.back(), true));
        dcaches.push_back(std::make_unique<L1Cache>(
            nodeName + ".l1d", eq, cfg, *l2s.back(), false));
        l2s.back()->setL1s(icaches.back().get(), dcaches.back().get());
        fabric_->addNode(l2s.back().get());
    }
}

DirectoryFabric &
MemSystem::directory()
{
    VARSIM_ASSERT(cfg.protocol == CoherenceProtocol::Directory,
                  "directory() on a snooping-protocol system");
    return static_cast<DirectoryFabric &>(*fabric_);
}

std::size_t
MemSystem::pendingTransactions() const
{
    std::size_t pending = 0;
    for (const auto &l2 : l2s)
        pending += l2->pendingTransactions();
    for (const auto &c : icaches)
        pending += c->pendingMisses();
    for (const auto &c : dcaches)
        pending += c->pendingMisses();
    return pending;
}

MemStats
MemSystem::totalStats() const
{
    MemStats s = fabric_->stats();
    for (const auto &c : icaches) {
        s.l1Hits += c->hits();
        s.l1Misses += c->misses();
    }
    for (const auto &c : dcaches) {
        s.l1Hits += c->hits();
        s.l1Misses += c->misses();
    }
    for (const auto &l2 : l2s) {
        s.l2Hits += l2->hits();
        s.prefetches += l2->prefetches();
    }
    return s;
}

void
MemSystem::drain()
{
    fabric_->drain();
    for (const auto &l2 : l2s)
        l2->drain();
    for (const auto &c : icaches)
        c->drain();
    for (const auto &c : dcaches)
        c->drain();
}

void
MemSystem::checkpoint(sim::CheckpointIo &cp)
{
    pertRng.checkpoint(cp);
    fabric_->checkpoint(cp);
    for (const auto &l2 : l2s)
        l2->checkpoint(cp);
    for (const auto &c : icaches)
        c->checkpoint(cp);
    for (const auto &c : dcaches)
        c->checkpoint(cp);
    // The snoop filter and the directory follow from every L2's tags.
    if (cp.loading())
        fabric_->postRestore();
}

void
MemSystem::regStats(sim::statistics::Registry &r)
{
    fabric_->regStats(r);
    for (const auto &l2 : l2s)
        l2->regStats(r);
    for (const auto &c : icaches)
        c->regStats(r);
    for (const auto &c : dcaches)
        c->regStats(r);
    // System-wide ratios over the same aggregation the harness
    // reports (totalStats), evaluated only at dump time.
    r.regFormula(name() + ".l1_miss_ratio",
                 [this] { return totalStats().l1MissRatio(); },
                 "misses over all L1 accesses, all nodes");
    r.regFormula(name() + ".l2_miss_ratio",
                 [this] { return totalStats().l2MissRatio(); },
                 "misses over all L2 lookups, all nodes");
}

} // namespace mem
} // namespace varsim
