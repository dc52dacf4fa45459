/// The mirror-quadrant reduction of the centre-cell heat problems
/// (fem/quadrant.hpp): its voxel maps, the automatic fallback to the full
/// model, and the extraction held to the full-domain ThermalSolver oracle
/// at 10, 50 and 90 nm. The transient counterparts live in
/// test_fem_transient.

#include "fem/quadrant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "fem/alpha.hpp"
#include "fem/thermal.hpp"

namespace nh::fem {
namespace {

CrossbarLayout smallLayout(double spacing = 50e-9) {
  CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.spacing = spacing;
  layout.margin = 20e-9;
  return layout;
}

/// The full-domain power sweep: ThermalSolver on the whole model, each point
/// warm-started from the previous point's rise scaled by the power ratio --
/// extractAlpha's sweep without the reduction. It is the oracle the quadrant
/// is held to, and a model that fails the symmetry check must reproduce it
/// bit for bit.
struct FullSweep {
  std::vector<nh::util::Matrix> temperatures;
  std::vector<std::size_t> cgIterations;
};

FullSweep fullDomainSweep(const CrossbarModel3D& model, std::size_t row,
                          std::size_t col, const std::vector<double>& powers,
                          const DiffusionOptions& options = {}) {
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(model.layout().rows, model.layout().cols, 0.0);
  ThermalSolver solver;
  FullSweep out;
  std::vector<double> guess;
  for (std::size_t i = 0; i < powers.size(); ++i) {
    scenario.cellPower(row, col) = powers[i];
    const ThermalSolution sol =
        solver.solve(scenario, options, guess.empty() ? nullptr : &guess);
    EXPECT_TRUE(sol.converged());
    out.temperatures.push_back(sol.cellTemperature);
    out.cgIterations.push_back(sol.stats.iterations);
    guess = sol.temperature;
    if (i + 1 < powers.size()) {
      const double scale = powers[i + 1] / powers[i];
      for (double& t : guess) t = scenario.ambientK + scale * (t - scenario.ambientK);
    }
  }
  return out;
}

/// Eq. 3/4 slope of cell (r, c)'s temperature over the sweep.
double slopeOf(const FullSweep& sweep, const std::vector<double>& powers,
               std::size_t r, std::size_t c) {
  std::vector<double> t;
  for (const auto& m : sweep.temperatures) t.push_back(m(r, c));
  return nh::util::fitLinear(powers, t).slope;
}

TEST(MirrorQuadrant, CellAveragesAndSourceMatchTheFullModel) {
  const auto model = CrossbarModel3D::build(smallLayout());
  const auto quadrant = MirrorQuadrant::detect(model, 1, 1);
  ASSERT_TRUE(quadrant.has_value());
  const VoxelGrid& full = model.grid();
  const VoxelGrid& quarter = quadrant->grid();
  EXPECT_EQ(quarter.nx(), full.nx() / 2);
  EXPECT_EQ(quarter.ny(), full.ny() / 2);
  EXPECT_EQ(quarter.nz(), full.nz());
  EXPECT_EQ(4 * quarter.voxelCount(), full.voxelCount());

  // A mirror-equal field and its restriction to the quadrant.
  const auto value = [&](std::size_t i, std::size_t j, std::size_t k) {
    const double fi = static_cast<double>(std::min(i, full.nx() - 1 - i));
    const double fj = static_cast<double>(std::min(j, full.ny() - 1 - j));
    return 300.0 + 0.37 * fi + 0.011 * fj * fj + 1.3 * static_cast<double>(k);
  };
  std::vector<double> fullField(full.voxelCount());
  for (std::size_t v = 0; v < full.voxelCount(); ++v) {
    const Voxel p = full.voxel(v);
    fullField[v] = value(p.i, p.j, p.k);
  }
  std::vector<double> quarterField(quarter.voxelCount());
  for (std::size_t v = 0; v < quarter.voxelCount(); ++v) {
    const Voxel p = quarter.voxel(v);
    EXPECT_EQ(quarter.material(v), full.material(p.i, p.j, p.k));
    quarterField[v] = value(p.i, p.j, p.k);
  }
  const nh::util::Matrix cells = quadrant->cellTemperatures(quarterField);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(cells(r, c), model.cellAverage(fullField, r, c), 1e-10) << r << c;
    }
  }

  // The quadrant carries a quarter of the heated cell's power, at the full
  // problem's per-voxel density.
  const auto source = quadrant->heatSource(1e-4);
  double total = 0.0;
  for (const double q : source) total += q;
  EXPECT_NEAR(total, 0.25e-4, 1e-18);
  const double perVoxel =
      1e-4 / static_cast<double>(model.cell(1, 1).filamentVoxels.size());
  for (const std::size_t v : quadrant->cellVoxels(1, 1)) EXPECT_EQ(source[v], perVoxel);

  // The multigrid threshold applies to the full problem's voxel count.
  DiffusionOptions options;
  for (const auto& [full, quarter] : {std::pair<std::size_t, std::size_t>{32768, 8192},
                                      {32769, 8193}, {1, 1}, {0, 0}}) {
    options.multigridMinVoxels = full;
    EXPECT_EQ(MirrorQuadrant::solveOptions(options).multigridMinVoxels, quarter) << full;
  }
}

TEST(MirrorQuadrant, EveryBrokenSymmetryTakesTheFullDomain) {
  // Each model fails exactly one condition; extractAlpha must then solve
  // the full grid and reproduce the full-domain sweep exactly.
  const std::vector<double> powers = {0.05e-3, 0.10e-3};
  const double spacing = 10e-9;  // the smallest grids
  struct Case {
    const char* name;
    CrossbarModel3D model;
    std::size_t row, col;
  };
  CrossbarLayout even = smallLayout(spacing);
  even.rows = 4;
  even.cols = 4;
  CrossbarLayout oddNx = smallLayout(spacing);
  oddNx.margin = 22.5e-9;  // 155 nm: 31 voxels across
  CrossbarModel3D asymmetric = CrossbarModel3D::build(smallLayout(spacing));
  asymmetric.grid().setMaterial(0, 0, asymmetric.grid().nz() - 1, Material::Electrode);
  std::vector<Case> cases;
  cases.push_back({"off-centre cell", CrossbarModel3D::build(smallLayout(spacing)), 0, 1});
  cases.push_back({"even array", CrossbarModel3D::build(even), 2, 2});
  cases.push_back({"odd nx", CrossbarModel3D::build(oddNx), 1, 1});
  cases.push_back({"asymmetric voxel", std::move(asymmetric), 1, 1});
  ASSERT_EQ(cases[2].model.grid().nx() % 2, 1u);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_FALSE(MirrorQuadrant::detect(c.model, c.row, c.col).has_value());
    const auto result =
        extractAlpha(c.model, MaterialTable::defaults(), c.row, c.col, powers, 300.0);
    EXPECT_EQ(result.solvedVoxels, c.model.grid().voxelCount());
    const FullSweep oracle = fullDomainSweep(c.model, c.row, c.col, powers);
    EXPECT_EQ(result.cgIterations, oracle.cgIterations);
    EXPECT_TRUE(result.temperatureMatrices == oracle.temperatures);
  }

  // The full path keeps the caller's preconditioner policy: its first point
  // is the plain diffusion solve of the same problem (this 32400-voxel grid
  // sits below the multigrid threshold, so both run IC(0)).
  const CrossbarModel3D& model = cases[0].model;
  ASSERT_LT(model.grid().voxelCount(), DiffusionOptions{}.multigridMinVoxels);
  DiffusionProblem problem;
  problem.grid = &model.grid();
  for (std::size_t v = 0; v < model.grid().voxelCount(); ++v) {
    problem.coefficient.push_back(MaterialTable::defaults().kappa(model.grid().material(v)));
  }
  problem.bottomPlaneDirichlet = true;
  problem.bottomPlaneValue = 300.0;
  problem.sourcePerVoxel.assign(model.grid().voxelCount(), 0.0);
  const auto& heated = model.cell(cases[0].row, cases[0].col).filamentVoxels;
  for (const std::size_t v : heated) {
    problem.sourcePerVoxel[v] += powers[0] / static_cast<double>(heated.size());
  }
  const DiffusionSolution plain = solveDiffusion(problem);
  EXPECT_EQ(fullDomainSweep(model, cases[0].row, cases[0].col, powers).cgIterations.front(),
            plain.stats.iterations);
}

// Declared before the first comparison: how far the quadrant extraction may
// sit from the full-domain oracle. The two discrete problems are the same,
// so these leave room for the CG tolerance only.
constexpr double kRthRelEnvelope = 1e-6;
constexpr double kAlphaRelEnvelope = 5e-5;
constexpr double kCellTempEnvelopeK = 1e-6;

class QuadrantAlphaOracle : public ::testing::TestWithParam<double> {};

TEST_P(QuadrantAlphaOracle, MatchesTheFullDomain) {
  CrossbarLayout layout;  // the production 5x5 geometry of extractCentreAlpha
  layout.spacing = GetParam() * 1e-9;
  const auto model = CrossbarModel3D::build(layout);
  const auto result = extractCentreAlpha(layout, 300.0);
  ASSERT_EQ(4 * result.solvedVoxels, model.grid().voxelCount());

  // The oracle is solved to 1e-12: at the production relTol = 1e-8 a cell
  // temperature of either domain is only good to ~1e-4 K (the residual is
  // relative to a right-hand side dominated by the 300 K bottom plane), so
  // the 1e-6 K envelope compares the quadrant solved to the same 1e-12.
  DiffusionOptions tight;
  tight.relTol = 1e-12;
  const FullSweep oracle = fullDomainSweep(model, 2, 2, result.powers, tight);
  const auto tightQuadrant = extractAlpha(model, MaterialTable::defaults(), 2, 2,
                                          result.powers, 300.0, tight);
  ASSERT_EQ(tightQuadrant.solvedVoxels, result.solvedVoxels);

  const double oracleRth = slopeOf(oracle, result.powers, 2, 2);
  const double rthErr = std::abs(result.rTh - oracleRth) / oracleRth;
  EXPECT_LE(rthErr, kRthRelEnvelope);
  double alphaErr = 0.0;
  double tempErr = 0.0;
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      const double expected = slopeOf(oracle, result.powers, r, c) / oracleRth;
      const double err = std::abs(result.alpha(r, c) - expected) / expected;
      alphaErr = std::max(alphaErr, err);
      EXPECT_LE(err, kAlphaRelEnvelope) << r << "," << c;
      for (std::size_t i = 0; i < result.powers.size(); ++i) {
        const double dT = std::abs(tightQuadrant.temperatureMatrices[i](r, c) -
                                   oracle.temperatures[i](r, c));
        tempErr = std::max(tempErr, dT);
        EXPECT_LE(dT, kCellTempEnvelopeK) << r << "," << c << " point " << i;
      }
    }
  }
  std::printf("[ worst    ] %g nm: R_th %.2e rel, alpha %.2e rel, T %.2e K\n",
              GetParam(), rthErr, alphaErr, tempErr);
}

INSTANTIATE_TEST_SUITE_P(Spacings, QuadrantAlphaOracle,
                         ::testing::Values(10.0, 50.0, 90.0));

}  // namespace
}  // namespace nh::fem
