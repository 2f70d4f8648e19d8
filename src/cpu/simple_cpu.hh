/**
 * @file
 * The fast blocking processor model (paper Section 3.2.4): completes
 * one instruction per cycle at 1 GHz if the L1 caches are perfect,
 * and stalls completely on every miss. This is the model behind most
 * of the paper's results (Experiments in Sections 4.1.1, 4.2, 4.3).
 *
 * It is BaseCpu's blocking engine run timed; this class only gives
 * the model its name. Instruction cycles accumulate as "time debt"
 * that is settled whenever the CPU interacts with the outside world
 * (a cache miss, a syscall, a preemption, or when the debt crosses a
 * threshold), so L1 hits cost no event-queue traffic.
 */

#ifndef VARSIM_CPU_SIMPLE_CPU_HH
#define VARSIM_CPU_SIMPLE_CPU_HH

#include "cpu/base_cpu.hh"

namespace varsim
{
namespace cpu
{

class SimpleCpu final : public BaseCpu
{
  public:
    using BaseCpu::BaseCpu;
};

} // namespace cpu
} // namespace varsim

#endif // VARSIM_CPU_SIMPLE_CPU_HH
