/** @file Unit tests for the TFsim-style predictors (Section 3.2.4). */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/branch_predictor.hh"

namespace varsim
{
namespace cpu
{
namespace
{

TEST(Yags, LearnsAlwaysTaken)
{
    YagsPredictor p;
    const sim::Addr pc = 0x1000;
    for (int i = 0; i < 8; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predict(pc));
}

TEST(Yags, LearnsAlwaysNotTaken)
{
    YagsPredictor p;
    const sim::Addr pc = 0x1000;
    for (int i = 0; i < 8; ++i)
        p.update(pc, false);
    EXPECT_FALSE(p.predict(pc));
}

TEST(Yags, LearnsLoopPattern)
{
    // Taken 7 times then not-taken once, repeated: with 8 bits of
    // history the exit is distinguishable.
    YagsPredictor p;
    const sim::Addr pc = 0x2000;
    int correct = 0, total = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 8; ++i) {
            const bool taken = i != 7;
            if (round >= 100) {
                ++total;
                correct += p.predict(pc) == taken;
            }
            p.update(pc, taken);
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(Yags, IndependentBranchesDoNotDestroyEachOther)
{
    YagsPredictor p;
    for (int i = 0; i < 64; ++i) {
        p.update(0x1000, true);
        p.update(0x5008, false);
    }
    EXPECT_TRUE(p.predict(0x1000));
    EXPECT_FALSE(p.predict(0x5008));
}

TEST(Yags, AccuracyCounters)
{
    YagsPredictor p;
    p.recordOutcome(true);
    p.recordOutcome(false);
    p.recordOutcome(true);
    EXPECT_EQ(p.lookups(), 3u);
    EXPECT_EQ(p.correct(), 2u);
}

TEST(Yags, SerializeRoundTrip)
{
    YagsPredictor a;
    for (int i = 0; i < 100; ++i)
        a.update(0x1000 + (i % 7) * 4, i % 3 != 0);

    sim::CheckpointOut out;
    a.serialize(out);
    YagsPredictor b;
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);

    for (int i = 0; i < 7; ++i) {
        const sim::Addr pc = 0x1000 + i * 4;
        EXPECT_EQ(a.predict(pc), b.predict(pc));
    }
}

TEST(Ras, LifoOrder)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u) << "empty stack predicts 0";
}

TEST(Ras, OverflowWrapsLikeHardware)
{
    ReturnAddressStack ras(4);
    for (sim::Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    // Entries 1 and 2 were overwritten.
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
    EXPECT_EQ(ras.depth(), 0u);
}

TEST(Ras, SerializeRoundTrip)
{
    ReturnAddressStack a(16);
    a.push(0x111);
    a.push(0x222);
    sim::CheckpointOut out;
    a.serialize(out);
    ReturnAddressStack b(16);
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);
    EXPECT_EQ(b.pop(), 0x222u);
    EXPECT_EQ(b.pop(), 0x111u);
}

// ---- restores of crafted, well-tagged images ----

/** A YAGS image with a @p choice-entry choice PHT and the default
 *  predictor's 2 x 1024 direction-cache entries. */
std::vector<std::uint8_t>
yagsImage(std::size_t choice)
{
    sim::CheckpointOut out;
    out.put(std::vector<std::uint8_t>(choice, 1));
    out.put(std::uint32_t{0});  // history
    out.put(std::uint64_t{0});  // lookups
    out.put(std::uint64_t{0});  // correct
    for (int i = 0; i < 2 * 1024; ++i) {
        out.put(std::uint16_t{0}); // tag
        out.put(std::uint8_t{1});  // counter
        out.put(false);            // valid
    }
    return out.bytes();
}

/** A RAS image of @p entries addresses with @p top and @p count. */
std::vector<std::uint8_t>
rasImage(std::size_t entries, std::size_t top, std::size_t count)
{
    sim::CheckpointOut out;
    out.put(std::vector<sim::Addr>(entries, 0));
    out.put(top);
    out.put(count);
    return out.bytes();
}

TEST(PredictorImages, CraftedImagesHaveTheSavedLayout)
{
    // The builders below write exactly what a fresh predictor saves,
    // so the death tests differ from a real image only where they
    // say.
    sim::CheckpointOut yags, ras;
    YagsPredictor().serialize(yags);
    ReturnAddressStack().serialize(ras);
    EXPECT_EQ(yags.bytes(), yagsImage(4096));
    EXPECT_EQ(ras.bytes(), rasImage(64, 0, 0));
}

TEST(PredictorImagesDeathTest, YagsChoiceTableOfAnotherLengthDies)
{
    // An empty table makes choiceIndex() mask with SIZE_MAX, so
    // predict() would read far past the buffer.
    for (std::size_t entries : {std::size_t{0}, std::size_t{2048}}) {
        const auto image = yagsImage(entries);
        EXPECT_DEATH(
            {
                YagsPredictor p;
                sim::CheckpointIn in(image);
                p.unserialize(in);
                p.update(0x4000, true);
                (void)p.predict(0x4000);
            },
            "choice PHT at offset 0 holds " + std::to_string(entries) +
                " entries, this predictor has 4096");
    }
}

TEST(PredictorImagesDeathTest, RasStackOfAnotherLengthDies)
{
    // An empty stack makes push() divide by zero.
    const auto image = rasImage(0, 0, 0);
    EXPECT_DEATH(
        {
            ReturnAddressStack ras;
            sim::CheckpointIn in(image);
            ras.unserialize(in);
            ras.push(0x100);
        },
        "return address stack at offset 0 holds 0 entries, this "
        "stack has 64");
}

TEST(PredictorImagesDeathTest, RasTopOrCountPastTheStackDies)
{
    // top's tag follows the stack: its vector tag, its tagged count
    // and 64 addresses.
    const std::string at = "offset " + std::to_string(1 + 9 + 64 * 8);
    const auto topPast = rasImage(64, 64, 1);
    EXPECT_DEATH(
        {
            ReturnAddressStack ras;
            sim::CheckpointIn in(topPast);
            ras.unserialize(in);
            (void)ras.pop();
        },
        at + " has top 64 and count 1, past its 64 entries");
    const auto countPast = rasImage(64, 3, 65);
    EXPECT_DEATH(
        {
            ReturnAddressStack ras;
            sim::CheckpointIn in(countPast);
            ras.unserialize(in);
            while (ras.depth() > 0)
                (void)ras.pop();
        },
        at + " has top 3 and count 65, past its 64 entries");
}

TEST(Indirect, LearnsStableTarget)
{
    IndirectPredictor p;
    p.update(0x4000, 0x9000);
    EXPECT_EQ(p.predict(0x4000), 0x9000u);
}

TEST(Indirect, ColdMissPredictsZero)
{
    IndirectPredictor p;
    EXPECT_EQ(p.predict(0x4000), 0u);
}

TEST(Indirect, RetrainsOnNewTarget)
{
    IndirectPredictor p;
    p.update(0x4000, 0x9000);
    p.update(0x4000, 0xa000);
    // History changed after the first update, so the new entry may
    // land elsewhere; we only require that *some* recent mapping is
    // recoverable after a stable sequence.
    for (int i = 0; i < 4; ++i)
        p.update(0x4000, 0xa000);
    // Probe: with the current history the prediction should be the
    // stable target (or a cold 0 at worst, never the stale target
    // under matching history).
    const sim::Addr pred = p.predict(0x4000);
    EXPECT_TRUE(pred == 0xa000u || pred == 0u);
}

TEST(Indirect, SerializeRoundTrip)
{
    IndirectPredictor a;
    a.update(0x4000, 0x9000);
    sim::CheckpointOut out;
    a.serialize(out);
    IndirectPredictor b;
    sim::CheckpointIn in(out.bytes());
    b.unserialize(in);
    EXPECT_EQ(b.predict(0x4000), a.predict(0x4000));
}

} // namespace
} // namespace cpu
} // namespace varsim
