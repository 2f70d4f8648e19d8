/**
 * @file
 * The target-system configuration: everything Section 3.2 of the
 * paper specifies, in one value type. Experiments compare
 * SystemConfigs that differ in exactly one knob (L2 associativity,
 * ROB size, DRAM latency, ...).
 */

#ifndef VARSIM_CORE_CONFIG_HH
#define VARSIM_CORE_CONFIG_HH

#include <string>

#include "cpu/base_cpu.hh"
#include "mem/config.hh"
#include "os/kernel.hh"

namespace varsim
{
namespace core
{

struct SystemConfig
{
    mem::MemConfig mem;   ///< caches, coherence, DRAM, perturbation
    cpu::CpuConfig cpu;   ///< processor model and parameters
    os::OsConfig os;      ///< scheduler parameters

    /** Processors in the target (one per memory-system node). */
    std::size_t numCpus() const { return mem.numNodes; }

    /**
     * True when the simulator can build this system: 1..64 CPUs,
     * power-of-two block sizes and set counts for every cache, and a
     * nonzero ROB and scheduling quantum. Otherwise false, with @p why
     * naming the offending knob. Every front end checks here, so a
     * bad value is refused with a message instead of aborting in a
     * constructor.
     */
    bool check(std::string *why) const;

    /** The paper's baseline 16-processor E10000-like target. */
    static SystemConfig
    paperDefault()
    {
        return {};
    }

    /** A smaller 4-processor target, handy for unit tests. */
    static SystemConfig
    testDefault()
    {
        SystemConfig c;
        c.mem.numNodes = 4;
        c.mem.l2Size = 512 * 1024;
        c.mem.l1Size = 32 * 1024;
        return c;
    }
};

} // namespace core
} // namespace varsim

#endif // VARSIM_CORE_CONFIG_HH
