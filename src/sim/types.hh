/**
 * @file
 * Fundamental simulation types.
 *
 * The simulated target runs at a 1 GHz system clock (Section 3.2.1 of
 * Alameldeen & Wood, HPCA 2003), so one simulation tick equals one
 * nanosecond equals one system cycle. All latencies in the paper are
 * quoted in nanoseconds and map 1:1 onto ticks.
 */

#ifndef VARSIM_SIM_TYPES_HH
#define VARSIM_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace varsim
{
namespace sim
{

/** Simulated time, in ticks. One tick == 1 ns == 1 cycle at 1 GHz. */
using Tick = std::uint64_t;

/** Sentinel for "never" / "not scheduled". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** A physical memory address in the simulated target. */
using Addr = std::uint64_t;

/** Sentinel invalid address. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Identifier of a processor/node in the target system. */
using CpuId = std::int32_t;

/** Sentinel for "no cpu". */
constexpr CpuId invalidCpuId = -1;

/** Identifier of a software thread managed by the simulated OS. */
using ThreadId = std::int32_t;

/** Sentinel for "no thread". */
constexpr ThreadId invalidThreadId = -1;

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_TYPES_HH
