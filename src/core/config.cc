#include "core/config.hh"

#include "mem/cache_array.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace core
{

namespace
{

bool
isPow2(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** The set count CacheArray derives, or 0 if it would refuse. */
std::size_t
numSets(std::size_t size, std::size_t assoc, std::size_t block)
{
    if (!isPow2(block) || assoc == 0 || size % block != 0 ||
        (size / block) % assoc != 0)
        return 0;
    return size / block / assoc;
}

} // anonymous namespace

bool
SystemConfig::check(std::string *why) const
{
    auto bad = [&](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    if (mem.numNodes < 1 || mem.numNodes > mem::kMaxNodes)
        return bad(sim::format("cpus must be in 1..%zu (got %zu)",
                               mem::kMaxNodes, mem.numNodes));
    if (mem.l2Assoc > mem::CacheArray::kMaxWays)
        return bad(sim::format(
            "l2-assoc must be at most %zu, the ways an LRU rank can "
            "order (got %zu)",
            mem::CacheArray::kMaxWays, mem.l2Assoc));
    if (!isPow2(numSets(mem.l2Size, mem.l2Assoc, mem.blockBytes)))
        return bad(sim::format(
            "l2-size %zu with l2-assoc %zu and %zu-byte blocks does "
            "not give a power-of-two set count",
            mem.l2Size, mem.l2Assoc, mem.blockBytes));
    if (!isPow2(numSets(mem.l1Size, mem.l1Assoc, mem.blockBytes)))
        return bad(sim::format(
            "L1 size %zu with associativity %zu and %zu-byte blocks "
            "does not give a power-of-two set count",
            mem.l1Size, mem.l1Assoc, mem.blockBytes));
    if (cpu.robEntries == 0)
        return bad("rob must be nonzero");
    if (os.quantum == 0)
        return bad("quantum must be nonzero");
    return true;
}

} // namespace core
} // namespace varsim
