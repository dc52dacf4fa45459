#include "xbar/crosstalk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "fem/geometry.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace nh::xbar {
namespace {

TEST(AlphaTable, AnalyticMatchesCanonicalSpacings) {
  // At the canonical FEM spacings the interpolation must return the
  // extracted values themselves.
  const AlphaTable at50 = AlphaTable::analytic(50e-9);
  EXPECT_NEAR(at50.at(0, 1), 0.2572, 1e-4);
  EXPECT_NEAR(at50.at(1, 0), 0.1265, 1e-4);
  EXPECT_NEAR(at50.at(1, 1), 0.1011, 1e-4);
  EXPECT_NEAR(at50.at(2, 2), 0.0577, 1e-4);
  EXPECT_NEAR(at50.rTh(), 1.93e6, 1e4);

  const AlphaTable at10 = AlphaTable::analytic(10e-9);
  EXPECT_NEAR(at10.at(0, 1), 0.4362, 1e-4);
  const AlphaTable at90 = AlphaTable::analytic(90e-9);
  EXPECT_NEAR(at90.at(0, 1), 0.1609, 1e-4);
}

TEST(AlphaTable, AnalyticInterpolatesMonotonically) {
  double previous = 1.0;
  for (const double s : {10e-9, 30e-9, 50e-9, 70e-9, 90e-9}) {
    const AlphaTable t = AlphaTable::analytic(s);
    EXPECT_LT(t.at(0, 1), previous) << "spacing " << s;
    previous = t.at(0, 1);
    // Structure holds at every spacing.
    EXPECT_GT(t.at(0, 1), t.at(1, 0));   // word-line > bit-line coupling
    EXPECT_GT(t.at(1, 0), t.at(2, 2));   // near > far
    EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);   // self-coupling excluded
  }
}

TEST(AlphaTable, SymmetryOfOffsets) {
  const AlphaTable t = AlphaTable::analytic(50e-9);
  EXPECT_DOUBLE_EQ(t.at(0, 1), t.at(0, -1));
  EXPECT_DOUBLE_EQ(t.at(1, 0), t.at(-1, 0));
  EXPECT_DOUBLE_EQ(t.at(1, -2), t.at(-1, 2));
}

TEST(AlphaTable, OutsideRadiusIsZero) {
  const AlphaTable t = AlphaTable::analytic(50e-9);
  EXPECT_DOUBLE_EQ(t.at(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0, -3), 0.0);
}

TEST(AlphaTable, SetAndTruncate) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  t.set(2, 2, 0.5);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 0.5);
  EXPECT_THROW(t.set(0, 0, 0.1), std::invalid_argument);
  EXPECT_THROW(t.set(5, 0, 0.1), std::out_of_range);
  const double before = t.totalCoupling();
  t.truncate(1);
  EXPECT_LT(t.totalCoupling(), before);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 0.0);
  EXPECT_GT(t.at(1, 1), 0.0);
}

TEST(AlphaTable, FromExtractionPreservesOffsets) {
  fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = fem::CrossbarModel3D::build(layout);
  const auto extraction = fem::extractAlpha(model, fem::MaterialTable::defaults(),
                                            1, 1, {0.05e-3, 0.1e-3}, 300.0);
  const AlphaTable table = AlphaTable::fromExtraction(extraction);
  EXPECT_DOUBLE_EQ(table.at(0, 1), extraction.alpha(1, 2));
  EXPECT_DOUBLE_EQ(table.at(-1, -1), extraction.alpha(0, 0));
  EXPECT_DOUBLE_EQ(table.rTh(), extraction.rTh);
  EXPECT_DOUBLE_EQ(table.at(0, 0), 0.0);
}

TEST(CrosstalkHub, Eq5MatchesHandComputation) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix excess(5, 5, 0.0);
  excess(2, 2) = 200.0;  // only the centre cell is hot
  const auto tin = hub.inputTemperatures(excess);
  EXPECT_DOUBLE_EQ(tin(2, 2), 0.0);  // no self-coupling
  EXPECT_NEAR(tin(2, 1), t.at(0, 1) * 200.0, 1e-9);
  EXPECT_NEAR(tin(1, 2), t.at(1, 0) * 200.0, 1e-9);
  EXPECT_NEAR(tin(0, 0), t.at(2, 2) * 200.0, 1e-9);
}

TEST(CrosstalkHub, SuperpositionOfTwoSources) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix a(5, 5, 0.0), b(5, 5, 0.0), both(5, 5, 0.0);
  a(2, 1) = 100.0;
  b(2, 3) = 150.0;
  both(2, 1) = 100.0;
  both(2, 3) = 150.0;
  const auto ta = hub.inputTemperatures(a);
  const auto tb = hub.inputTemperatures(b);
  const auto tBoth = hub.inputTemperatures(both);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(tBoth(r, c), ta(r, c) + tb(r, c), 1e-9);
    }
  }
}

TEST(CrosstalkHub, EdgeCellsSeeFewerNeighbours) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix uniform(5, 5, 100.0);
  const auto tin = hub.inputTemperatures(uniform);
  EXPECT_GT(tin(2, 2), tin(0, 0));  // interior receives from all sides
}

TEST(CrosstalkHub, SolveCoupledExcessIncludesSelfAndNeighbours) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix power(5, 5, 0.0);
  power(2, 2) = 1e-4;
  const double rth = 2e6;
  const auto excess = hub.solveCoupledExcess(power, rth);
  EXPECT_NEAR(excess(2, 2), rth * 1e-4, 1e-6);
  EXPECT_NEAR(excess(2, 1), t.at(0, 1) * rth * 1e-4, 1e-6);
}

TEST(CrosstalkHub, ShapeValidation) {
  CrosstalkHub hub(3, 3, AlphaTable::analytic(50e-9));
  nh::util::Matrix wrong(2, 3, 0.0);
  EXPECT_THROW(hub.inputTemperatures(wrong), std::invalid_argument);
  EXPECT_THROW(hub.solveCoupledExcess(wrong, 1e6), std::invalid_argument);
  EXPECT_THROW(CrosstalkHub(0, 3, AlphaTable::analytic(50e-9)),
               std::invalid_argument);
}

/// Eq. 5 straight from the table: every offset of the (2r+1)^2 window in
/// dRow-major order through the bounds-checked AlphaTable::at, zeros
/// skipped. The hub's precomputed tap list must reproduce it bit for bit.
util::Matrix stencilOracle(const AlphaTable& table, const util::Matrix& excess) {
  const auto rows = static_cast<long long>(excess.rows());
  const auto cols = static_cast<long long>(excess.cols());
  const long long radius = table.radius();
  util::Matrix tin(excess.rows(), excess.cols(), 0.0);
  for (long long r = 0; r < rows; ++r) {
    for (long long c = 0; c < cols; ++c) {
      double acc = 0.0;
      for (long long dr = -radius; dr <= radius; ++dr) {
        const long long jr = r + dr;
        if (jr < 0 || jr >= rows) continue;
        for (long long dc = -radius; dc <= radius; ++dc) {
          const long long jc = c + dc;
          if (jc < 0 || jc >= cols) continue;
          const double a = table.at(dr, dc);
          if (a == 0.0) continue;
          acc += a * excess(static_cast<std::size_t>(jr), static_cast<std::size_t>(jc));
        }
      }
      tin(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = acc;
    }
  }
  return tin;
}

std::vector<std::uint64_t> bitsOf(const util::Matrix& m) {
  std::vector<std::uint64_t> bits;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      bits.push_back(std::bit_cast<std::uint64_t>(m(r, c)));
    }
  }
  return bits;
}

TEST(CrosstalkHub, TapListMatchesTableStencilBitForBit) {
  // Random tables (radius 0..4, about a third of the offsets zero), random
  // array shapes from 1x1 to 12x12, random excess maps with zeros and
  // negative entries.
  util::Rng rng = util::Rng::forStream(2026, 7);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t side = 1 + 2 * rng.uniformInt(5);
    fem::AlphaResult extraction;
    extraction.selectedRow = side / 2;
    extraction.selectedCol = side / 2;
    extraction.alpha.resize(side, side, 0.0);
    for (std::size_t r = 0; r < side; ++r) {
      for (std::size_t c = 0; c < side; ++c) {
        extraction.alpha(r, c) = rng.bernoulli(0.33) ? 0.0 : rng.uniform(0.0, 0.5);
      }
    }
    const AlphaTable table = AlphaTable::fromExtraction(extraction);
    const std::size_t rows = 1 + rng.uniformInt(12);
    const std::size_t cols = 1 + rng.uniformInt(12);
    util::Matrix excess(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (!rng.bernoulli(0.2)) excess(r, c) = rng.uniform(-5.0, 300.0);
      }
    }
    const CrosstalkHub hub(rows, cols, table);
    const util::Matrix expected = stencilOracle(table, excess);
    EXPECT_EQ(bitsOf(hub.inputTemperatures(excess)), bitsOf(expected))
        << "trial " << trial;
    // The row-range form fills the same values block by block.
    util::Matrix blocks(rows, cols, -1.0);
    const std::size_t split = rng.uniformInt(rows + 1);
    hub.inputTemperatures(excess, blocks, split, rows);
    hub.inputTemperatures(excess, blocks, 0, split);
    EXPECT_EQ(bitsOf(blocks), bitsOf(expected)) << "trial " << trial;
  }
}

/// A FEM-shaped table: radius 3, couplings falling off with distance, a few
/// offsets zero, word-line neighbours strongest (as fromExtraction gives).
AlphaTable femShapedTable(util::Rng& rng) {
  fem::AlphaResult extraction;
  extraction.selectedRow = 3;
  extraction.selectedCol = 3;
  extraction.alpha.resize(7, 7, 0.0);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const double d = std::hypot(static_cast<double>(r) - 3.0, 1.4 * (static_cast<double>(c) - 3.0));
      extraction.alpha(r, c) = rng.bernoulli(0.1) ? 0.0 : 0.3 * std::exp(-d) * rng.uniform(0.8, 1.2);
    }
  }
  return AlphaTable::fromExtraction(extraction);
}

/// Random excess field: mostly zero, a few hot sources, some tiny ones.
util::Matrix randomExcess(util::Rng& rng, std::size_t rows, std::size_t cols) {
  util::Matrix excess(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u = rng.uniform();
      if (u < 0.15) excess(r, c) = rng.uniform(0.0, 400.0);
      else if (u < 0.4) excess(r, c) = rng.uniform(0.0, 1e-9);
    }
  }
  return excess;
}

TEST(CrosstalkHub, ActiveScatterMatchesGatherBitForBit) {
  // With every nonzero source active the scatter sums each target's sources
  // in the gather's tap order: bit-identical on rows, columns, an array
  // smaller than the table and a 64x64 array, analytic and FEM-shaped.
  util::Rng rng = util::Rng::forStream(2026, 21);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 9}, {1, 64}, {9, 1}, {64, 1}, {3, 3}, {2, 5}, {64, 64}};
  for (int kind = 0; kind < 2; ++kind) {
    const AlphaTable table = kind == 0 ? AlphaTable::analytic(30e-9) : femShapedTable(rng);
    for (const auto& [rows, cols] : shapes) {
      const CrosstalkHub hub(rows, cols, table);
      const util::Matrix excess = randomExcess(rng, rows, cols);
      util::Matrix scattered(rows, cols, -1.0);
      hub.scatterActive(excess, 0.0, scattered, 0, rows);
      EXPECT_EQ(bitsOf(scattered), bitsOf(hub.inputTemperatures(excess)))
          << rows << "x" << cols << " table " << kind;
    }
  }
}

TEST(CrosstalkHub, ActiveScatterRowBlocksAreThreadInvariant) {
  // Row blocks of the scatter on 1 and 4 threads fill the same bits as the
  // whole-array call; a floor drops sources that move no target by more
  // than the floor.
  util::Rng rng = util::Rng::forStream(2026, 22);
  const std::size_t n = 64;
  const CrosstalkHub hub(n, n, femShapedTable(rng));
  const util::Matrix excess = randomExcess(rng, n, n);
  for (const double floorK : {0.0, 1e-8}) {
    util::Matrix whole(n, n, 0.0);
    hub.scatterActive(excess, floorK, whole, 0, n);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::Matrix blocks(n, n, -1.0);
      const std::size_t block = 5;
      util::parallelFor((n + block - 1) / block, [&](std::size_t b) {
        hub.scatterActive(excess, floorK, blocks, b * block, std::min(n, (b + 1) * block));
      }, threads);
      EXPECT_EQ(bitsOf(blocks), bitsOf(whole)) << threads << " threads, floor " << floorK;
    }
    const util::Matrix gathered = hub.inputTemperatures(excess);
    double worst = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        worst = std::max(worst, std::fabs(whole(r, c) - gathered(r, c)));
      }
    }
    EXPECT_LE(worst, floorK + 1e-10) << "floor " << floorK;
  }
}

TEST(CrosstalkHub, RowRangeNeedsSizedOutput) {
  const CrosstalkHub hub(3, 3, AlphaTable::analytic(50e-9));
  const util::Matrix excess(3, 3, 1.0);
  util::Matrix unsized;
  EXPECT_THROW(hub.inputTemperatures(excess, unsized, 0, 3), std::invalid_argument);
  util::Matrix tin(3, 3, 0.0);
  EXPECT_THROW(hub.inputTemperatures(excess, tin, 2, 4), std::invalid_argument);
}

TEST(AlphaTable, InvalidSpacingThrows) {
  EXPECT_THROW(AlphaTable::analytic(0.0), std::invalid_argument);
  EXPECT_THROW(AlphaTable::analytic(-1e-9), std::invalid_argument);
}

}  // namespace
}  // namespace nh::xbar
