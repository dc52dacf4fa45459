#include "fem/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "util/linsolve.hpp"
#include "util/sparse.hpp"

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

CrossbarModel3D smallModel(double spacing = 50e-9) {
  return CrossbarModel3D::build(smallLayout(spacing));
}

TransientScenario quickScenario(const CrossbarModel3D& model) {
  TransientScenario s;
  s.model = &model;
  s.heatedRow = 1;
  s.heatedCol = 1;
  s.power = 1e-4;
  s.tStop = 10e-9;
  s.dt = 0.5e-9;
  return s;
}

TEST(HeatCapacity, DefaultsArePositive) {
  const auto t = HeatCapacityTable::defaults();
  for (int m = 0; m < static_cast<int>(Material::Count); ++m) {
    EXPECT_GT(t.capacity(static_cast<Material>(m)), 1e5);
  }
}

TEST(TransientThermal, MonotoneRiseTowardSteadyState) {
  const auto model = smallModel();
  const auto scenario = quickScenario(model);
  const auto sol = solveThermalStep(scenario);
  ASSERT_TRUE(sol.converged);
  ASSERT_GE(sol.cellTemperature.size(), 3u);
  const auto& heated = sol.cellTemperature[0];
  for (std::size_t i = 1; i < heated.size(); ++i) {
    EXPECT_GE(heated[i], heated[i - 1] - 1e-9);
  }
  // Final value matches the steady solver within a few percent.
  ThermalScenario steady;
  steady.model = &model;
  steady.cellPower = nh::util::Matrix(3, 3, 0.0);
  steady.cellPower(1, 1) = scenario.power;
  const auto ss = solveThermal(steady);
  ASSERT_TRUE(ss.converged());
  const double steadyRise = ss.cellTemperature(1, 1) - 300.0;
  const double transientRise = heated.back() - 300.0;
  EXPECT_GT(transientRise, 0.85 * steadyRise);
  EXPECT_LT(transientRise, 1.02 * steadyRise);
}

TEST(TransientThermal, FilamentTauIsNanoseconds) {
  const auto model = smallModel();
  const auto sol = solveThermalStep(quickScenario(model));
  ASSERT_TRUE(sol.converged);
  const double tau = sol.riseTimeConstant(0);
  ASSERT_FALSE(std::isnan(tau));
  // The compact model assumes tauThermal ~ 2 ns; the FEM should agree on
  // the order of magnitude.
  EXPECT_GT(tau, 0.2e-9);
  EXPECT_LT(tau, 10e-9);
}

TEST(TransientThermal, NeighbourLagsTheHeatedCell) {
  const auto model = smallModel();
  TransientScenario scenario = quickScenario(model);
  scenario.tStop = 20e-9;
  const auto sol = solveThermalStep(scenario);
  ASSERT_TRUE(sol.converged);
  const double tauHeated = sol.riseTimeConstant(0);
  const double tauNeighbour = sol.riseTimeConstant(1);
  ASSERT_FALSE(std::isnan(tauHeated));
  ASSERT_FALSE(std::isnan(tauNeighbour));
  EXPECT_GT(tauNeighbour, tauHeated);
}

TEST(TransientThermal, NeighbourOrderingMatchesAlphas) {
  const auto model = smallModel();
  TransientScenario scenario = quickScenario(model);
  scenario.tStop = 20e-9;
  const auto sol = solveThermalStep(scenario);
  ASSERT_TRUE(sol.converged);
  // Word-line neighbour ends hotter than bit-line, which ends hotter than
  // the diagonal -- same ordering as the steady alpha extraction.
  const double word = sol.cellTemperature[1].back();
  const double bit = sol.cellTemperature[2].back();
  const double diag = sol.cellTemperature[3].back();
  EXPECT_GT(word, bit);
  EXPECT_GT(bit, diag);
  EXPECT_GT(diag, 300.0);
}

TEST(TransientThermal, Validation) {
  const auto model = smallModel();
  TransientScenario bad = quickScenario(model);
  bad.dt = 0.0;
  EXPECT_THROW(solveThermalStep(bad), std::invalid_argument);
  bad = quickScenario(model);
  bad.heatedRow = 9;
  EXPECT_THROW(solveThermalStep(bad), std::out_of_range);
  bad = quickScenario(model);
  bad.model = nullptr;
  EXPECT_THROW(solveThermalStep(bad), std::invalid_argument);

  // Non-finite or out-of-range inputs are rejected before any assembly:
  // maxIterations = 1 would make a march that did start stop unconverged
  // instead of throwing.
  DiffusionOptions oneIteration;
  oneIteration.maxIterations = 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expectRejected = [&](TransientScenario s, const char* what) {
    EXPECT_THROW(solveThermalStep(s, oneIteration), std::invalid_argument) << what;
    ThermalTransientSolver solver;
    EXPECT_THROW(solver.solve(s, oneIteration), std::invalid_argument) << what;
  };
  bad = quickScenario(model);
  bad.tStop = inf;
  expectRejected(bad, "tStop = inf");
  bad = quickScenario(model);
  bad.tStop = 1.0;
  bad.dt = 1e-300;  // finite, but ceil(tStop / dt) overflows std::size_t
  expectRejected(bad, "tStop / dt overflows");
  for (const double power : {-1e-4, nan, inf}) {
    bad = quickScenario(model);
    bad.power = power;
    expectRejected(bad, "power");
  }
  for (const double ambient : {nan, inf, -inf}) {
    bad = quickScenario(model);
    bad.ambientK = ambient;
    expectRejected(bad, "ambientK");
  }
}

// ---- step predictor -----------------------------------------------------------

/// Implicit-Euler march without the step predictor: every step starts CG
/// from T_n. Assembled here from the finite-volume stamps (harmonic-mean
/// faces, Dirichlet ambient bottom, lumped capacity), with the production
/// preconditioner policy.
struct Reference {
  std::vector<std::vector<double>> cellTemperature;
  std::vector<double> time;
  std::size_t cgIterations = 0;
};

Reference noPredictorMarch(const TransientScenario& s) {
  const CrossbarModel3D& model = *s.model;
  const VoxelGrid& grid = model.grid();
  const std::size_t n = grid.voxelCount();
  const double h = grid.voxelSize();
  std::vector<double> kappa(n), cOverDt(n), fixedRhs(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    kappa[v] = s.materials.kappa(grid.material(v));
    cOverDt[v] = s.capacities.capacity(grid.material(v)) * h * h * h / s.dt;
  }
  nh::util::TripletBuilder builder(n, n);
  for (std::size_t v = 0; v < n; ++v) {
    const Voxel p = grid.voxel(v);
    double diag = cOverDt[v];
    const auto face = [&](std::size_t nv) {
      const double g = 2.0 * kappa[v] * kappa[nv] / (kappa[v] + kappa[nv]) * h;
      diag += g;
      builder.add(v, nv, -g);
    };
    if (p.i > 0) face(grid.index(p.i - 1, p.j, p.k));
    if (p.i + 1 < grid.nx()) face(grid.index(p.i + 1, p.j, p.k));
    if (p.j > 0) face(grid.index(p.i, p.j - 1, p.k));
    if (p.j + 1 < grid.ny()) face(grid.index(p.i, p.j + 1, p.k));
    if (p.k > 0) face(grid.index(p.i, p.j, p.k - 1));
    if (p.k + 1 < grid.nz()) face(grid.index(p.i, p.j, p.k + 1));
    if (p.k == 0) {
      diag += 2.0 * kappa[v] * h;
      fixedRhs[v] += 2.0 * kappa[v] * h * s.ambientK;
    }
    builder.add(v, v, diag);
  }
  const auto matrix = nh::util::SparseMatrix::fromTriplets(builder);
  const auto& heated = model.cell(s.heatedRow, s.heatedCol).filamentVoxels;
  for (const std::size_t v : heated) {
    fixedRhs[v] += s.power / static_cast<double>(heated.size());
  }

  const std::vector<std::pair<std::size_t, std::size_t>> cells = {
      {s.heatedRow, s.heatedCol},
      {s.heatedRow, s.heatedCol + 1},
      {s.heatedRow + 1, s.heatedCol},
      {s.heatedRow + 1, s.heatedCol + 1}};
  Reference out;
  out.cellTemperature.assign(cells.size(), {});
  nh::util::Vector t(n, s.ambientK), rhs(n);
  const auto record = [&](double time) {
    out.time.push_back(time);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.cellTemperature[i].push_back(
          model.cellAverage(t, cells[i].first, cells[i].second));
    }
  };
  record(0.0);
  nh::util::CgOptions cg = toCgOptions({}, grid.nx(), grid.ny(), grid.nz());
  nh::util::CgWorkspace workspace;
  const auto steps = static_cast<std::size_t>(std::ceil(s.tStop / s.dt));
  for (std::size_t step = 1; step <= steps; ++step) {
    for (std::size_t v = 0; v < n; ++v) rhs[v] = cOverDt[v] * t[v] + fixedRhs[v];
    const auto stats = nh::util::solveConjugateGradient(matrix, rhs, t, cg, &workspace);
    cg.reusePreconditioner = true;
    EXPECT_TRUE(stats.converged);
    out.cgIterations += stats.iterations;
    record(static_cast<double>(step) * s.dt);
  }
  return out;
}

/// The 63% rise time of \p series, as TransientSolution computes it.
double tauOf(const std::vector<double>& time, const std::vector<double>& series) {
  TransientSolution wrap;
  wrap.time = time;
  wrap.cellTemperature = {series};
  return wrap.riseTimeConstant(0);
}

TEST(TransientThermal, PredictorCutsIterationsAndKeepsTheTaus) {
  const auto model = smallModel();
  const TransientScenario scenario = quickScenario(model);
  ThermalTransientSolver solver;  // the full domain, as the reference
  const TransientSolution sol = solver.solve(scenario);
  ASSERT_TRUE(sol.converged);
  const Reference reference = noPredictorMarch(scenario);
  ASSERT_EQ(sol.cgIterations.size() + 1, reference.time.size());
  const std::size_t total =
      std::accumulate(sol.cgIterations.begin(), sol.cgIterations.end(), std::size_t{0});
  EXPECT_LT(total, reference.cgIterations);
  ASSERT_EQ(sol.cellTemperature.size(), reference.cellTemperature.size());
  for (std::size_t k = 0; k < sol.cellTemperature.size(); ++k) {
    const double expected = tauOf(reference.time, reference.cellTemperature[k]);
    EXPECT_NEAR(sol.riseTimeConstant(k), expected, 1e-4 * expected) << k;
  }
  std::printf("[ iters    ] predictor %zu, no predictor %zu\n", total,
              reference.cgIterations);
}

// ---- mirror-quadrant reduction ------------------------------------------------

// Declared before the first comparison: the four time constants of the
// quadrant march against the full-domain march.
constexpr double kTauRelEnvelope = 1e-4;

class QuadrantTransientOracle : public ::testing::TestWithParam<double> {};

TEST_P(QuadrantTransientOracle, TausMatchTheFullDomain) {
  const auto model = smallModel(GetParam() * 1e-9);
  const TransientScenario scenario = quickScenario(model);
  const TransientSolution quadrant = solveThermalStep(scenario);
  ThermalTransientSolver full;
  const TransientSolution oracle = full.solve(scenario);
  ASSERT_TRUE(quadrant.converged && oracle.converged);
  EXPECT_EQ(4 * quadrant.solvedVoxels, model.grid().voxelCount());
  EXPECT_EQ(oracle.solvedVoxels, model.grid().voxelCount());
  EXPECT_EQ(quadrant.cellLabels, oracle.cellLabels);
  ASSERT_EQ(quadrant.cellTemperature.size(), 4u);
  double worst = 0.0;
  for (std::size_t k = 0; k < 4; ++k) {
    const double expected = oracle.riseTimeConstant(k);
    ASSERT_FALSE(std::isnan(expected)) << k;
    const double err = std::abs(quadrant.riseTimeConstant(k) - expected) / expected;
    worst = std::max(worst, err);
    EXPECT_LE(err, kTauRelEnvelope) << k;
  }
  std::printf("[ worst    ] %g nm: tau %.2e rel\n", GetParam(), worst);
}

INSTANTIATE_TEST_SUITE_P(Spacings, QuadrantTransientOracle,
                         ::testing::Values(10.0, 50.0, 90.0));

TEST(TransientThermal, EveryBrokenSymmetryTakesTheFullDomain) {
  // Each model fails exactly one symmetry condition: solveThermalStep must
  // march the full grid, exactly as ThermalTransientSolver does.
  const double spacing = 10e-9;  // the smallest grids
  CrossbarLayout even = smallLayout(spacing);
  even.rows = 4;
  even.cols = 4;
  CrossbarLayout oddNx = smallLayout(spacing);
  oddNx.margin = 22.5e-9;  // 155 nm: 31 voxels across
  CrossbarModel3D asymmetric = smallModel(spacing);
  asymmetric.grid().setMaterial(0, 0, asymmetric.grid().nz() - 1, Material::Electrode);
  struct Case {
    const char* name;
    CrossbarModel3D model;
    std::size_t row, col;
  };
  std::vector<Case> cases;
  cases.push_back({"off-centre cell", smallModel(spacing), 1, 0});
  cases.push_back({"even array", CrossbarModel3D::build(even), 2, 2});
  cases.push_back({"odd nx", CrossbarModel3D::build(oddNx), 1, 1});
  cases.push_back({"asymmetric voxel", std::move(asymmetric), 1, 1});
  ASSERT_EQ(cases[2].model.grid().nx() % 2, 1u);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TransientScenario scenario = quickScenario(c.model);
    scenario.heatedRow = c.row;
    scenario.heatedCol = c.col;
    scenario.tStop = 2e-9;
    const TransientSolution sol = solveThermalStep(scenario);
    ThermalTransientSolver full;
    const TransientSolution oracle = full.solve(scenario);
    EXPECT_EQ(sol.solvedVoxels, c.model.grid().voxelCount());
    EXPECT_EQ(sol.cgIterations, oracle.cgIterations);
    EXPECT_EQ(sol.cellTemperature, oracle.cellTemperature);
  }
}

}  // namespace
}  // namespace nh::fem
