/** @file Tests for the ASCII-table helpers. */

#include <gtest/gtest.h>

#include "stats/table.hh"

namespace varsim
{
namespace stats
{
namespace
{

TEST(Table, RendersAlignedColumns)
{
    Table t({"Config", "WCR"});
    t.addRow({"2-way vs 4-way", "31%"});
    t.addRow({"DM vs 4-way", "10%"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| Config"), std::string::npos);
    EXPECT_NE(s.find("31%"), std::string::npos);
    EXPECT_NE(s.find("+--"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RuleRowsRender)
{
    Table t({"A"});
    t.addRow({"x"});
    t.addRule();
    t.addRow({"y"});
    const std::string s = t.render();
    // header rule + top + bottom + explicit = at least 4 rules
    std::size_t rules = 0;
    for (std::size_t at = s.find("+-"); at != std::string::npos;
         at = s.find("+-", at + 1))
        ++rules;
    EXPECT_GE(rules, 4u);
}

TEST(Table, MismatchedRowDies)
{
    Table t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only one"}), "row has");
}

TEST(Formatters, Basics)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtG(123456.0, 3), "1.23e+05");
    EXPECT_NE(fmtMeanSd(10.0, 0.5).find("+/-"), std::string::npos);
}

} // namespace
} // namespace stats
} // namespace varsim
