/**
 * @file
 * The detailed out-of-order processor model, in the spirit of TFsim
 * (paper Section 3.2.4): a 4-wide superscalar core with a YAGS
 * direction predictor, an indirect-target predictor, a 64-entry
 * return address stack, and a parameterizable reorder buffer
 * (Experiment 2 varies 16/32/64 entries).
 *
 * Timing follows an interval model: computation dispatches at a
 * sustained issue rate; data misses do not stall dispatch — they
 * occupy ROB slots and overlap (memory-level parallelism) until the
 * ROB window or the MSHRs fill, at which point dispatch stalls until
 * the oldest miss retires. Instruction-fetch misses and OS-visible
 * ops (locks, transaction boundaries) serialize the pipeline.
 */

#ifndef VARSIM_CPU_OOO_CPU_HH
#define VARSIM_CPU_OOO_CPU_HH

#include <deque>

#include "cpu/base_cpu.hh"
#include "cpu/branch_predictor.hh"

namespace varsim
{
namespace cpu
{

class OoOCpu : public BaseCpu
{
  public:
    OoOCpu(std::string name, sim::EventQueue &eq,
           const CpuConfig &cfg, mem::L1Cache &icache,
           mem::L1Cache &dcache, sim::CpuId id);

    void memResponse(std::uint64_t tag) override;

    /** Direction predictor accuracy (for stats/tests). */
    const YagsPredictor &directionPredictor() const { return yags; }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;

    /** Base CPU counters plus branch-predictor accuracy. */
    void regStats(sim::statistics::Registry &r) override;

  protected:
    void resume() override;
    void resetPipeline() override;
    void warmBranch(const Op &op) override;

  private:
    enum class Phase : std::uint8_t
    {
        Start,
        Instr,
        Data,
        Finish,
    };

    struct MissEntry
    {
        std::uint64_t instrIdx;
        std::uint64_t tag;
        bool done;
    };

    bool payDebt();

    /** Drop completed entries from the ROB front. */
    void retireCompleted();

    /** Advance the dispatch frontier by @p n instructions. */
    void addDispatch(std::uint64_t n);

    YagsPredictor yags;
    ReturnAddressStack ras;
    IndirectPredictor indirect;

    Phase phase = Phase::Start;
    std::uint64_t remaining = 0;
    sim::Tick owed = 0;
    std::uint32_t ipcCarry = 0;
    std::uint64_t instrIdx = 0;
    std::deque<MissEntry> missQueue;
    bool awaitingIFetch = false;
    std::uint64_t ifetchTag = 0;
    bool awaitingRetire = false; ///< stalled on the oldest miss
    bool blockingData = false;   ///< Lock/Unlock store in flight
};

} // namespace cpu
} // namespace varsim

#endif // VARSIM_CPU_OOO_CPU_HH
