/**
 * @file
 * Branch prediction structures modelled after the TFsim configuration
 * the paper uses for its detailed processor model (Section 3.2.4):
 * a YAGS direction predictor, a cascaded indirect-branch predictor
 * (modelled as a tagged target cache), and a return address stack.
 */

#ifndef VARSIM_CPU_BRANCH_PREDICTOR_HH
#define VARSIM_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace varsim
{
namespace cpu
{

/**
 * YAGS (Yet Another Global Scheme) direction predictor: a choice PHT
 * indexed by PC selects between taken/not-taken biased caches, each a
 * small tagged table of 2-bit counters indexed by PC^history.
 */
class YagsPredictor : public sim::Serializable
{
  public:
    /**
     * @param choice_entries size of the choice PHT (power of two)
     * @param cache_entries  size of each direction cache
     * @param history_bits   global history length
     */
    YagsPredictor(std::size_t choice_entries = 4096,
                  std::size_t cache_entries = 1024,
                  std::size_t history_bits = 8);

    /** Predict the direction of the branch at @p pc. */
    bool predict(sim::Addr pc) const;

    /** Train with the actual @p taken outcome and update history. */
    void update(sim::Addr pc, bool taken);

    /** Lookups so far. */
    std::uint64_t lookups() const { return numLookups; }

    /** Correct predictions so far. */
    std::uint64_t correct() const { return numCorrect; }

    /** Record a lookup outcome (called by the CPU model). */
    void
    recordOutcome(bool was_correct)
    {
        ++numLookups;
        if (was_correct)
            ++numCorrect;
    }

    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    struct CacheEntry
    {
        std::uint16_t tag = 0;
        std::uint8_t counter = 1; ///< 2-bit saturating
        bool valid = false;
    };

    std::size_t choiceIndex(sim::Addr pc) const;
    std::size_t cacheIndex(sim::Addr pc) const;
    std::uint16_t cacheTag(sim::Addr pc) const;

    std::vector<std::uint8_t> choicePht; ///< 2-bit counters
    std::vector<CacheEntry> takenCache;  ///< exceptions to "taken"
    std::vector<CacheEntry> notTakenCache;
    std::uint32_t history = 0;
    std::uint32_t historyMask;
    std::uint64_t numLookups = 0;
    std::uint64_t numCorrect = 0;
};

/**
 * Return address stack (64 entries in the paper's TFsim setup).
 * Over/underflow wraps, as in real hardware.
 */
class ReturnAddressStack : public sim::Serializable
{
  public:
    explicit ReturnAddressStack(std::size_t entries = 64);

    /** Push a return address at a call. */
    void push(sim::Addr ra);

    /** Pop the predicted return address (0 if empty). */
    sim::Addr pop();

    /** Current depth (saturates at capacity). */
    std::size_t depth() const { return count; }

    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    std::vector<sim::Addr> stack;
    std::size_t top = 0;
    std::size_t count = 0;
};

/**
 * Indirect-branch target cache (the "cascaded indirect predictor" is
 * modelled as one tagged, history-indexed target table).
 */
class IndirectPredictor : public sim::Serializable
{
  public:
    explicit IndirectPredictor(std::size_t entries = 64,
                               std::size_t history_bits = 6);

    /** Predicted target for the indirect branch at @p pc. */
    sim::Addr predict(sim::Addr pc) const;

    /** Train with the actual target and update path history. */
    void update(sim::Addr pc, sim::Addr target);

    void checkpoint(sim::CheckpointIo &cp) override;

  private:
    struct Entry
    {
        sim::Addr tag = 0;
        sim::Addr target = 0;
        bool valid = false;
    };

    std::size_t index(sim::Addr pc) const;

    std::vector<Entry> table;
    std::uint32_t history = 0;
    std::uint32_t historyMask;
};

} // namespace cpu
} // namespace varsim

#endif // VARSIM_CPU_BRANCH_PREDICTOR_HH
