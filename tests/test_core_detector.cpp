#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/patterns.hpp"

namespace nh::core {
namespace {

xbar::ArrayConfig config3x3() {
  xbar::ArrayConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  return cfg;
}

TEST(BitFlipDetector, ClassifiesDeepStates) {
  xbar::CrossbarArray array(config3x3());
  BitFlipDetector detector;
  array.setState(0, 0, xbar::CellState::Lrs);
  array.setState(0, 1, xbar::CellState::Hrs);
  EXPECT_EQ(detector.classify(array.cell(0, 0)), ReadState::Lrs);
  EXPECT_EQ(detector.classify(array.cell(0, 1)), ReadState::Hrs);
}

TEST(BitFlipDetector, IntermediateBandDetected) {
  xbar::CrossbarArray array(config3x3());
  BitFlipDetector detector;
  // Put a cell in the middle of the window (partially disturbed).
  const auto& p = array.config().cellParams;
  array.cell(1, 1).setNDisc(std::sqrt(p.nDiscMin * p.nDiscMax) * 2.0);
  EXPECT_EQ(detector.classify(array.cell(1, 1)), ReadState::Intermediate);
}

TEST(BitFlipDetector, ConfigValidation) {
  DetectorConfig bad;
  bad.rLrsMax = 1e6;
  bad.rHrsMin = 1e5;
  EXPECT_THROW(BitFlipDetector d(bad), std::invalid_argument);
}

TEST(BitFlipDetector, SnapshotAndFlips) {
  xbar::CrossbarArray array(config3x3());
  array.fill(xbar::CellState::Hrs);
  BitFlipDetector detector;
  const auto reference = detector.snapshot(array);
  ASSERT_EQ(reference.size(), 9u);
  EXPECT_TRUE(detector.flipsSince(array, reference).empty());

  array.setState(1, 2, xbar::CellState::Lrs);
  const auto events = detector.flipsSince(array, reference);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cell, (xbar::CellCoord{1, 2}));
  EXPECT_EQ(events[0].before, ReadState::Hrs);
  EXPECT_EQ(events[0].after, ReadState::Lrs);

  EXPECT_THROW(detector.flipsSince(array, std::vector<ReadState>(4)),
               std::invalid_argument);
}

TEST(BitFlipDetector, FirstLrsHonoursOrder) {
  xbar::CrossbarArray array(config3x3());
  array.fill(xbar::CellState::Hrs);
  BitFlipDetector detector;
  const std::vector<xbar::CellCoord> monitored{{0, 1}, {1, 1}, {2, 2}};
  EXPECT_FALSE(detector.firstLrs(array, monitored).has_value());
  array.setState(2, 2, xbar::CellState::Lrs);
  array.setState(1, 1, xbar::CellState::Lrs);
  const auto hit = detector.firstLrs(array, monitored);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (xbar::CellCoord{1, 1}));  // first in the monitored list
}

TEST(BitFlipDetector, FirstLrsReturnsEarliestVictimAcrossBlocks) {
  // 40x40 = 1600 victims, above the parallel threshold, listed in reverse
  // row-major order so list order and array order disagree. LRS victims sit
  // in several blocks; the earliest in the list must win.
  xbar::ArrayConfig cfg;
  cfg.rows = 40;
  cfg.cols = 40;
  xbar::CrossbarArray array(cfg);
  array.fill(xbar::CellState::Hrs);
  std::vector<xbar::CellCoord> monitored;
  for (std::size_t i = cfg.rows * cfg.cols; i-- > 0;) {
    monitored.push_back({i / cfg.cols, i % cfg.cols});
  }
  ASSERT_GE(monitored.size(), xbar::kParallelMinCells);
  BitFlipDetector detector;
  EXPECT_FALSE(detector.firstLrs(array, monitored).has_value());

  // Each new LRS victim sits earlier in the list than the ones before it.
  for (const std::size_t listIndex : {1550u, 1200u, 810u, 333u, 99u}) {
    array.setState(monitored[listIndex].row, monitored[listIndex].col,
                   xbar::CellState::Lrs);
    const auto hit = detector.firstLrs(array, monitored);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, monitored[listIndex]);
  }
}

// ---- patterns --------------------------------------------------------------------

TEST(Patterns, NamesAndEnumeration) {
  EXPECT_EQ(allPatterns().size(), 5u);
  EXPECT_EQ(patternName(AttackPattern::SingleAggressor), "single");
  EXPECT_EQ(patternName(AttackPattern::Ring), "ring");
}

TEST(Patterns, CentreVictimAggressorSets) {
  const xbar::CellCoord victim{2, 2};
  const auto single = patternAggressors(AttackPattern::SingleAggressor, victim, 5, 5);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].row, 2u);  // word-line neighbour

  const auto rowPair = patternAggressors(AttackPattern::RowPair, victim, 5, 5);
  ASSERT_EQ(rowPair.size(), 2u);
  EXPECT_EQ(rowPair[0], (xbar::CellCoord{2, 1}));
  EXPECT_EQ(rowPair[1], (xbar::CellCoord{2, 3}));

  const auto colPair = patternAggressors(AttackPattern::ColumnPair, victim, 5, 5);
  ASSERT_EQ(colPair.size(), 2u);
  EXPECT_EQ(colPair[0], (xbar::CellCoord{1, 2}));

  EXPECT_EQ(patternAggressors(AttackPattern::Cross, victim, 5, 5).size(), 4u);
  EXPECT_EQ(patternAggressors(AttackPattern::Ring, victim, 5, 5).size(), 8u);
}

TEST(Patterns, ClippedAtArrayEdge) {
  const xbar::CellCoord corner{0, 0};
  const auto cross = patternAggressors(AttackPattern::Cross, corner, 5, 5);
  ASSERT_EQ(cross.size(), 2u);  // only right and below fit
  const auto ring = patternAggressors(AttackPattern::Ring, corner, 5, 5);
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Patterns, NoAggressorFitsThrows) {
  EXPECT_THROW(patternAggressors(AttackPattern::RowPair, {0, 0}, 1, 1),
               std::invalid_argument);
}

TEST(Patterns, AggressorsNeverIncludeVictim) {
  const xbar::CellCoord victim{2, 2};
  for (const auto pattern : allPatterns()) {
    for (const auto& a : patternAggressors(pattern, victim, 5, 5)) {
      EXPECT_FALSE(a == victim);
    }
  }
}

}  // namespace
}  // namespace nh::core
