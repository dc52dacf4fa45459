#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nh::util {
namespace {

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.nextU64() == b.nextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(11);
  double sum = 0.0, sumSq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumSq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

// ---- table ------------------------------------------------------------------

TEST(AsciiTable, RendersAlignedRows) {
  AsciiTable t({"name", "value"});
  t.setTitle("Title");
  t.addRow({"a", "1"});
  t.addRow({"longer", "2"});
  t.addNote("note");
  const std::string s = t.render();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| a      |"), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
  EXPECT_NE(s.find("note"), std::string::npos);
}

TEST(AsciiTable, WidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, Formatters) {
  EXPECT_EQ(AsciiTable::fixed(1.234, 2), "1.23");
  EXPECT_EQ(AsciiTable::si(5e-8, "s", 0), "50 ns");
  EXPECT_EQ(AsciiTable::si(1.93e6, "K/W", 2), "1.93 MK/W");
  EXPECT_EQ(AsciiTable::grouped(1234567), "1,234,567");
  EXPECT_EQ(AsciiTable::grouped(-42), "-42");
}

// ---- units ------------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(nm(50.0), 50e-9);
  EXPECT_DOUBLE_EQ(ns(10.0), 1e-8);
  EXPECT_DOUBLE_EQ(celsius(26.85), 300.0);
  EXPECT_NEAR(thermalVoltage(300.0), 0.025852, 1e-5);
  EXPECT_NEAR(eV(1.0), 1.602176634e-19, 1e-28);
}

}  // namespace
}  // namespace nh::util
