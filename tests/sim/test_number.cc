/**
 * @file
 * The front ends' number rule: whole text only, counts digits only,
 * reals finite, ints range-checked, and a refused text leaves the
 * output untouched.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/number.hh"

namespace
{

using namespace varsim;

TEST(Number, CountIsDigitsOnly)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(sim::parseInteger("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(sim::parseInteger("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "-1", "+20", " 2", "2 ", "1e3", "0x10",
                            "18446744073709551616", "nan"}) {
        v = 7;
        EXPECT_FALSE(sim::parseInteger(bad, v)) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
}

TEST(Number, RealIsWhatStrtodReadsAndFinite)
{
    double v = 0.0;
    EXPECT_TRUE(sim::parseReal("0.95", v));
    EXPECT_DOUBLE_EQ(v, 0.95);
    EXPECT_TRUE(sim::parseReal("-0.5", v));
    EXPECT_DOUBLE_EQ(v, -0.5);
    EXPECT_TRUE(sim::parseReal(" 1e-3", v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    for (const char *bad : {"", " ", "nan", "-nan", "inf", "-Infinity",
                            "1e400", "0.5x", "0.5 "}) {
        v = 0.25;
        EXPECT_FALSE(sim::parseReal(bad, v)) << bad;
        EXPECT_EQ(v, 0.25) << bad;
    }
}

TEST(Number, IntIsSignedAndRangeChecked)
{
    int v = 0;
    EXPECT_TRUE(sim::parseInteger("-1", v));
    EXPECT_EQ(v, -1);
    EXPECT_TRUE(sim::parseInteger("5", v));
    EXPECT_EQ(v, 5);
    EXPECT_TRUE(sim::parseInteger("-2147483648", v));
    EXPECT_EQ(v, INT32_MIN);
    for (const char *bad : {"", "high", "1.5", "+2", " 2", "2147483648",
                            "99999999999"}) {
        v = 3;
        EXPECT_FALSE(sim::parseInteger(bad, v)) << bad;
        EXPECT_EQ(v, 3) << bad;
    }
}

} // namespace
