/**
 * @file
 * Wiring for the complete memory hierarchy of the target system: one
 * coherence fabric (the snooping bus/crossbar or the directory), and
 * per node a split L1 pair plus a unified L2 controller, with
 * interleaved home-memory controllers.
 */

#ifndef VARSIM_MEM_MEM_SYSTEM_HH
#define VARSIM_MEM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/config.hh"
#include "mem/directory.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_controller.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace varsim
{
namespace mem
{

class MemSystem : public sim::SimObject
{
  public:
    MemSystem(std::string name, sim::EventQueue &eq, MemConfig cfg);

    /** Configuration in effect (immutable after construction). */
    const MemConfig &config() const { return cfg; }

    L1Cache &icache(std::size_t node) { return *icaches.at(node); }
    L1Cache &dcache(std::size_t node) { return *dcaches.at(node); }
    L2Controller &l2(std::size_t node) { return *l2s.at(node); }

    /** The protocol engine (whichever protocol is configured). */
    CoherenceFabric &fabric() { return *fabric_; }

    /** The directory (only valid when protocol == Directory). */
    DirectoryFabric &directory();

    /**
     * Seed the latency-perturbation stream for this run. Must be
     * called before simulation starts; each run of a
     * multiple-simulation experiment uses a unique seed
     * (Section 3.3).
     */
    void seedPerturbation(std::uint64_t seed) { pertRng.seed(seed); }

    /** Total in-flight transactions (0 when quiescent). */
    std::size_t pendingTransactions() const;

    /** Aggregate statistics across the bus and every cache. */
    MemStats totalStats() const;

    void drain() override;
    void checkpoint(sim::CheckpointIo &cp) override;

    /** Registers the fabric, every cache, and aggregate ratios. */
    void regStats(sim::statistics::Registry &r) override;

  private:
    MemConfig cfg;
    sim::Random pertRng;
    std::unique_ptr<CoherenceFabric> fabric_;
    std::vector<std::unique_ptr<L2Controller>> l2s;
    std::vector<std::unique_ptr<L1Cache>> icaches;
    std::vector<std::unique_ptr<L1Cache>> dcaches;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_MEM_SYSTEM_HH
