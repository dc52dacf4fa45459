#include "fem/alpha.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "fem/quadrant.hpp"
#include "fem/thermal.hpp"

namespace nh::fem {
namespace {

/// Small, coarse model so the extraction runs in well under a second.
CrossbarModel3D smallModel(double spacing = 50e-9) {
  CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.spacing = spacing;
  layout.margin = 20e-9;
  layout.voxelSize = 5e-9;
  return CrossbarModel3D::build(layout);
}

TEST(SolveThermal, HeatsSelectedCellAboveNeighbours) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.ambientK = 300.0;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 0.1e-3;
  const auto sol = solveThermal(scenario);
  ASSERT_TRUE(sol.converged());
  const double centre = sol.cellTemperature(1, 1);
  EXPECT_GT(centre, 400.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GE(sol.cellTemperature(r, c), 300.0 - 1e-6);
      if (!(r == 1 && c == 1)) EXPECT_LT(sol.cellTemperature(r, c), centre);
    }
  }
}

TEST(SolveThermal, LinearInPower) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 0.05e-3;
  const auto a = solveThermal(scenario, {1e-10, 40000});
  scenario.cellPower(1, 1) = 0.10e-3;
  const auto b = solveThermal(scenario, {1e-10, 40000});
  ASSERT_TRUE(a.converged() && b.converged());
  const double riseA = a.cellTemperature(1, 1) - 300.0;
  const double riseB = b.cellTemperature(1, 1) - 300.0;
  EXPECT_NEAR(riseB / riseA, 2.0, 1e-3);
}

TEST(SolveThermal, InputValidation) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(2, 2, 0.0);  // wrong shape
  EXPECT_THROW(solveThermal(scenario), std::invalid_argument);
  // maxIterations = 1 lets a solve that did run return unconverged without
  // throwing, so invalid_argument proves the check came first.
  DiffusionOptions oneIteration;
  oneIteration.maxIterations = 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, nan, inf}) {
    scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
    scenario.cellPower(0, 0) = bad;
    EXPECT_THROW(solveThermal(scenario, oneIteration), std::invalid_argument) << bad;
  }
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;
  for (const double bad : {nan, inf, -inf}) {
    scenario.ambientK = bad;
    EXPECT_THROW(solveThermal(scenario, oneIteration), std::invalid_argument) << bad;
  }
  // The quadrant form checks the same inputs.
  const auto quadrant = MirrorQuadrant::detect(model, 1, 1);
  ASSERT_TRUE(quadrant.has_value());
  ThermalSolver solver;
  for (const double bad : {-1.0, nan, inf}) {
    EXPECT_THROW(solver.solve(*quadrant, MaterialTable::defaults(), 300.0, bad,
                              oneIteration),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(solver.solve(*quadrant, MaterialTable::defaults(), nan, 1e-4,
                            oneIteration),
               std::invalid_argument);
}

TEST(ExtractAlpha, LinearFitsAreNearPerfect) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3, 0.15e-3}, 300.0);
  EXPECT_GT(result.rTh, 1e5);
  EXPECT_GT(result.rThRSquared, 0.9999);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(result.alphaRSquared(r, c), 0.999) << r << "," << c;
    }
  }
}

TEST(ExtractAlpha, AlphaStructure) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3}, 300.0);
  EXPECT_DOUBLE_EQ(result.alpha(1, 1), 1.0);
  // Same-word-line neighbours couple more strongly than same-bit-line ones
  // (the filament sits on the bottom electrode).
  EXPECT_GT(result.alpha(1, 0), result.alpha(0, 1));
  // Nearest neighbours couple more strongly than diagonal ones.
  EXPECT_GT(result.alpha(1, 0), result.alpha(0, 0));
  EXPECT_GT(result.alpha(0, 1), result.alpha(0, 0));
  // All couplings in (0, 1).
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == 1 && c == 1) continue;
      EXPECT_GT(result.alpha(r, c), 0.0);
      EXPECT_LT(result.alpha(r, c), 1.0);
    }
  }
  // Geometry is mirror symmetric around the centre cell, and the quadrant
  // solve makes the mirror cells equal by construction.
  EXPECT_EQ(result.alpha(1, 0), result.alpha(1, 2));
  EXPECT_EQ(result.alpha(0, 1), result.alpha(2, 1));
}

TEST(ExtractAlpha, TighterSpacingCouplesMore) {
  const auto near = smallModel(10e-9);
  const auto far = smallModel(90e-9);
  const auto alphaNear = extractAlpha(near, MaterialTable::defaults(), 1, 1,
                                      {0.05e-3, 0.1e-3}, 300.0);
  const auto alphaFar = extractAlpha(far, MaterialTable::defaults(), 1, 1,
                                     {0.05e-3, 0.1e-3}, 300.0);
  EXPECT_GT(alphaNear.alpha(1, 0), 1.2 * alphaFar.alpha(1, 0));
  EXPECT_GT(alphaNear.alpha(0, 1), 1.2 * alphaFar.alpha(0, 1));
}

TEST(ExtractAlpha, PredictTemperaturesMatchesSolution) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3, 0.15e-3}, 300.0);
  const auto predicted = result.predictTemperatures(0.1e-3);
  const auto& actual = result.temperatureMatrices[1];
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(predicted(r, c), actual(r, c),
                  0.01 * (actual(r, c) - 300.0) + 0.05);
    }
  }
}

TEST(ExtractAlpha, Validation) {
  const auto model = smallModel();
  EXPECT_THROW(
      extractAlpha(model, MaterialTable::defaults(), 5, 1, {1e-4, 2e-4}, 300.0),
      std::out_of_range);
  EXPECT_THROW(extractAlpha(model, MaterialTable::defaults(), 1, 1, {1e-4}, 300.0),
               std::invalid_argument);
}

TEST(ExtractAlpha, RejectsBadPowersBeforeAnySolve) {
  // Each list would otherwise fail late: a repeated power only inside the
  // regression after every solve, a negative one inside the first solve.
  // maxIterations = 1 makes any solve that did run throw runtime_error
  // instead, so invalid_argument proves the check came first.
  const auto model = smallModel();
  DiffusionOptions oneIteration;
  oneIteration.maxIterations = 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      {1e-4, 1e-4, 1e-4}, {0.0, 0.0},  {-1e-4, 1e-4},
      {1e-4, nan},        {inf, 1e-4}, {1e-4, 2e-4, -inf}};
  for (const auto& powers : bad) {
    EXPECT_THROW(extractAlpha(model, MaterialTable::defaults(), 1, 1, powers,
                              300.0, oneIteration),
                 std::invalid_argument)
        << powers.front() << ", " << powers.back();
  }
}

TEST(ExtractAlpha, ZeroPowerPointIsAccepted) {
  // A zero point has no rise to scale into the next guess: the sweep falls
  // back to the plain warm start and the fit still sees T0 at P = 0.
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.0, 0.05e-3, 0.1e-3}, 300.0);
  ASSERT_EQ(result.cgIterations.size(), 3u);
  EXPECT_NEAR(result.temperatureMatrices[0](1, 1), 300.0, 1e-6);
  EXPECT_GT(result.rTh, 1e5);
  EXPECT_GT(result.rThRSquared, 0.9999);
}

TEST(ExtractAlpha, SuperpositionPredictorLeavesLaterPointsNearlyFree) {
  // The first point solves from scratch; every later point starts from the
  // previous rise scaled by the power ratio. Under GMG that start already
  // meets the CG tolerance up to a couple of iterations. This 46x46x36 model
  // (solved on its 19044-voxel mirror quadrant) is above
  // DiffusionOptions::multigridMinVoxels, so the default options auto-upgrade
  // IC(0) to GMG just as the forced low threshold does.
  const auto model = smallModel();
  const std::vector<double> powers = {0.05e-3, 0.10e-3, 0.15e-3};
  DiffusionOptions multigrid;
  multigrid.multigridMinVoxels = 1024;
  for (const DiffusionOptions& options : {DiffusionOptions{}, multigrid}) {
    const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                     powers, 300.0, options);
    ASSERT_EQ(result.cgIterations.size(), 3u);
    EXPECT_GT(result.cgIterations[0], 2u);
    EXPECT_LE(result.cgIterations[1], 2u);
    EXPECT_LE(result.cgIterations[2], 2u);
    EXPECT_GT(result.rThRSquared, 0.9999);
  }

  // IC(0) itself, with the upgrade disabled. Its later points are not
  // nearly free, so the bound is weaker: each later point needs fewer
  // iterations than the cold first point (measured 80/3/2).
  DiffusionOptions ic0;
  ic0.multigridMinVoxels = 0;
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   powers, 300.0, ic0);
  ASSERT_EQ(result.cgIterations.size(), 3u);
  EXPECT_LT(result.cgIterations[1], result.cgIterations[0]);
  EXPECT_LT(result.cgIterations[2], result.cgIterations[0]);
  EXPECT_GT(result.rThRSquared, 0.9999);
}

class CentreAlphaMirror : public ::testing::TestWithParam<double> {};

TEST_P(CentreAlphaMirror, IsExactlyMirrorEqualAtEverySpacing) {
  // The production extraction solves the centre cell's mirror quadrant and
  // rebuilds the full matrix by mirroring, so alpha is mirror-equal exactly.
  CrossbarLayout layout;  // the 5x5 geometry of the study and Fig. 2a
  layout.spacing = GetParam() * 1e-9;
  const auto result = extractCentreAlpha(layout, 300.0);
  EXPECT_EQ(4 * result.solvedVoxels, CrossbarModel3D::build(layout).grid().voxelCount());
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(result.alpha(r, c), result.alpha(r, 4 - c)) << r << "," << c;
      EXPECT_EQ(result.alpha(r, c), result.alpha(4 - r, c)) << r << "," << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spacings, CentreAlphaMirror, ::testing::Values(10.0, 50.0, 90.0));

TEST(SolveCoupled, SelectedLrsCellDominatesHeating) {
  const auto model = smallModel();
  CoupledScenario scenario;
  scenario.model = &model;
  scenario.ambientK = 300.0;
  // V/2 scheme around centre cell at 1.0 V.
  scenario.wordLineVoltage.assign(3, 0.5);
  scenario.bitLineVoltage.assign(3, 0.5);
  scenario.wordLineVoltage[1] = 1.0;
  scenario.bitLineVoltage[1] = 0.0;
  scenario.cellSigma = nh::util::Matrix(3, 3, 1.5e2);  // HRS-ish
  scenario.cellSigma(1, 1) = 1.5e5;                    // LRS
  const auto sol = solveCoupled(scenario);
  ASSERT_TRUE(sol.converged());
  EXPECT_GT(sol.cellPower(1, 1), 10.0 * sol.cellPower(0, 0));
  EXPECT_GT(sol.cellTemperature(1, 1), sol.cellTemperature(0, 1));
  EXPECT_GT(sol.totalPower, sol.cellPower(1, 1));
}

TEST(ExtractAlphaCoupled, ProducesPositiveCouplings) {
  const auto model = smallModel();
  const auto result = extractAlphaCoupled(model, MaterialTable::defaults(), 1, 1,
                                          {0.8, 1.0, 1.2}, 1.5e5, 1.5e2, 300.0);
  EXPECT_GT(result.rTh, 0.0);
  EXPECT_GT(result.rThRSquared, 0.99);
  EXPECT_GT(result.alpha(1, 0), 0.0);
  EXPECT_GT(result.alpha(1, 0), result.alpha(0, 0));
}

}  // namespace
}  // namespace nh::fem
