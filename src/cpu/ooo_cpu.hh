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
 *
 * The detailed loop is this model's own; its phase, debt and op
 * boundary are BaseCpu's, with pipelineEmpty() retiring the miss
 * queue. Control ops retire through one retireControl(), which the
 * detailed loop charges a refill penalty for a misprediction and
 * fast mode (BaseCpu's blocking engine, warming) does not.
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

class OoOCpu final : public BaseCpu
{
  public:
    OoOCpu(std::string name, sim::EventQueue &eq,
           const CpuConfig &cfg, mem::L1Cache &icache,
           mem::L1Cache &dcache, sim::CpuId id);

    void memResponse(std::uint64_t tag) override;

    /** Direction predictor accuracy (for stats/tests). */
    const YagsPredictor &directionPredictor() const { return yags; }

    void checkpoint(sim::CheckpointIo &cp) override;

    /** Base CPU counters plus branch-predictor accuracy. */
    void regStats(sim::statistics::Registry &r) override;

  protected:
    void resume() override;
    void resetPipeline() override;
    bool pipelineEmpty() override;
    bool retireControl(const Op &op) override;
    bool quiescent() const override;

  private:
    struct MissEntry
    {
        std::uint64_t instrIdx;
        std::uint64_t tag;
        bool done;
    };

    /** Drop completed entries from the ROB front. */
    void retireCompleted();

    /** Advance the dispatch frontier by @p n instructions. */
    void addDispatch(std::uint64_t n);

    YagsPredictor yags;
    ReturnAddressStack ras;
    IndirectPredictor indirect;

    std::uint32_t ipcCarry = 0;
    std::uint64_t instrIdx = 0;
    std::deque<MissEntry> missQueue;
    bool awaitingRetire = false; ///< stalled on the oldest miss
};

} // namespace cpu
} // namespace varsim

#endif // VARSIM_CPU_OOO_CPU_HH
