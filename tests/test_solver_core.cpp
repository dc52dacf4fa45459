/// Equivalence tests for the structure-reusing solver core: cached sparse
/// assembly vs fresh builds (bit-identical), IC(0)- vs Jacobi-preconditioned
/// CG (same solution, fewer iterations), dense LU refactor/solveInPlace vs
/// one-shot factor/solve, frozen-LU linear SPICE transients vs re-factoring
/// (bit-identical), and the Schur-complement line-network solve vs a dense
/// factorisation of the whole Jacobian.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fem/geometry.hpp"
#include "fem/thermal.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/fvstencil.hpp"
#include "util/linsolve.hpp"
#include "util/multigrid.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"
#include "xbar/fastsim.hpp"
#include "xbar/linenet.hpp"

#include "line_network_oracle.hpp"

namespace {

using nh::util::CgOptions;
using nh::util::CgPreconditioner;
using nh::util::CgWorkspace;
using nh::util::Matrix;
using nh::util::Rng;
using nh::util::SparseMatrix;
using nh::util::SparsityPattern;
using nh::util::TripletBuilder;
using nh::util::Vector;

// ---- cached assembly ---------------------------------------------------------

void stampRandom(TripletBuilder& b, Rng& rng, std::size_t n, int entries,
                 double scale) {
  for (int k = 0; k < entries; ++k) {
    b.add(rng.uniformInt(n), rng.uniformInt(n), scale * rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, scale * 10.0);
}

TEST(SparsityPattern, CachedRefillBitIdenticalToFreshBuild) {
  const std::size_t n = 30;
  Rng rng(321);
  TripletBuilder builder(n, n);
  stampRandom(builder, rng, n, 200, 1.0);

  const SparsityPattern pattern = SparsityPattern::fromTriplets(builder);
  SparseMatrix cached;
  pattern.assemble(builder, cached);
  const SparseMatrix fresh = SparseMatrix::fromTriplets(builder);

  ASSERT_EQ(cached.rowPtr(), fresh.rowPtr());
  ASSERT_EQ(cached.colIdx(), fresh.colIdx());
  ASSERT_EQ(cached.values(), fresh.values());  // bit-identical

  // Refill with different coefficients but the identical stamp sequence.
  Rng rng2(321);
  builder.clear();
  stampRandom(builder, rng2, n, 200, 3.5);
  pattern.assemble(builder, cached);
  const SparseMatrix fresh2 = SparseMatrix::fromTriplets(builder);
  ASSERT_EQ(cached.rowPtr(), fresh2.rowPtr());
  ASSERT_EQ(cached.colIdx(), fresh2.colIdx());
  ASSERT_EQ(cached.values(), fresh2.values());
}

TEST(SparsityPattern, MismatchedStampSequenceThrows) {
  TripletBuilder builder(4, 4);
  builder.add(0, 0, 1.0);
  builder.add(1, 2, 2.0);
  const SparsityPattern pattern = SparsityPattern::fromTriplets(builder);
  builder.add(3, 3, 4.0);  // extra entry: different sequence
  SparseMatrix out;
  EXPECT_THROW(pattern.assemble(builder, out), std::invalid_argument);
}

TEST(SparsityPattern, EmptyBuilderClearsKeepCapacity) {
  TripletBuilder builder(3, 3);
  builder.add(1, 1, 5.0);
  builder.clear();
  EXPECT_EQ(builder.entryCount(), 0u);
  builder.add(1, 1, 7.0);
  const auto m = SparseMatrix::fromTriplets(builder);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 7.0);
}

// ---- IC(0) preconditioned CG -------------------------------------------------

TEST(IncompleteCholesky, BreaksDownOnIndefiniteMatrix) {
  TripletBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(1, 1, 2.0);
  nh::util::IncompleteCholesky ic;
  EXPECT_FALSE(ic.compute(SparseMatrix::fromTriplets(b)));
  EXPECT_FALSE(ic.valid());
}

TEST(ConjugateGradient, Ic0MatchesJacobiAndConvergesFaster) {
  // The real FEM thermal system of a 3x3 crossbar model.
  nh::fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = nh::fem::CrossbarModel3D::build(layout);
  nh::fem::ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;

  nh::fem::DiffusionOptions jacobi;
  jacobi.relTol = 1e-10;
  jacobi.preconditioner = CgPreconditioner::Jacobi;
  nh::fem::DiffusionOptions ic0;
  ic0.relTol = 1e-10;
  ic0.preconditioner = CgPreconditioner::IncompleteCholesky;

  const auto a = nh::fem::solveThermal(scenario, jacobi);
  const auto b = nh::fem::solveThermal(scenario, ic0);
  ASSERT_TRUE(a.converged());
  ASSERT_TRUE(b.converged());
  // Strictly fewer iterations with the stronger preconditioner.
  EXPECT_LT(b.stats.iterations, a.stats.iterations);
  // Same solution within the CG tolerance (fields are O(300..600) K).
  ASSERT_EQ(a.temperature.size(), b.temperature.size());
  for (std::size_t v = 0; v < a.temperature.size(); ++v) {
    EXPECT_NEAR(a.temperature[v], b.temperature[v], 1e-3);
  }
}

TEST(ConjugateGradient, WorkspaceReuseAcrossDifferentSystems) {
  // A shared workspace must not leak state between unrelated solves.
  Rng rng(7);
  CgWorkspace workspace;
  for (std::size_t n : {10u, 25u, 10u}) {
    TripletBuilder b(n, n);
    std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < r; ++c) {
        const double v = rng.uniform(-0.5, 0.5);
        b.add(r, c, v);
        b.add(c, r, v);
        dense[r][c] = dense[c][r] = v;
      }
      b.add(r, r, static_cast<double>(n));
      dense[r][r] = static_cast<double>(n);
    }
    const auto a = SparseMatrix::fromTriplets(b);
    Vector rhs(n);
    for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);

    CgOptions options;
    options.relTol = 1e-12;
    options.preconditioner = CgPreconditioner::IncompleteCholesky;
    Vector x;
    const auto stats = nh::util::solveConjugateGradient(a, rhs, x, options,
                                                        &workspace);
    ASSERT_TRUE(stats.converged);
    const Vector ax = a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
  }
}

// ---- geometric multigrid -----------------------------------------------------

/// Steady FV heat operator on an m^3 grid: conditioning grows O(m^2), the
/// regime the multigrid preconditioner targets. Shared with the benchmarks
/// (util/fvstencil.hpp) so the asserted iteration scaling and the recorded
/// baseline describe the same operator.
SparseMatrix steadyFvOperator(std::size_t m, double scale) {
  return nh::util::makeSteadyFvOperator3d(m, scale);
}

TEST(GeometricMultigrid, ProlongationRowsSumToOne) {
  // Partition of unity: constants interpolate exactly, the property that
  // makes the coarse correction consistent.
  for (const auto [nx, ny, nz] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
        {7, 5, 9},
        {4, 4, 6}}) {
    const auto p = nh::util::buildTrilinearProlongation(
        nx, ny, nz, (nx + 1) / 2, (ny + 1) / 2, (nz + 1) / 2);
    ASSERT_EQ(p.rows(), nx * ny * nz);
    for (std::size_t r = 0; r < p.rows(); ++r) {
      double sum = 0.0;
      for (std::size_t k = p.rowPtr()[r]; k < p.rowPtr()[r + 1]; ++k) {
        sum += p.values()[k];
      }
      EXPECT_NEAR(sum, 1.0, 1e-14) << "row " << r;
    }
  }
}

/// The triplet-built trilinear prolongation the direct-CSR builder
/// replaced: per fine cell, the 1-D cell-centred weights along each axis
/// (fine centre i + 0.5 against coarse centres 2I + 1, clamped at the
/// boundaries), stamped as a tensor product and merged by fromTriplets.
SparseMatrix tripletProlongation(std::size_t nx, std::size_t ny, std::size_t nz,
                                 std::size_t ncx, std::size_t ncy,
                                 std::size_t ncz) {
  struct Line {
    std::vector<std::size_t> idx;
    std::vector<double> w;
  };
  const auto line = [](std::size_t i, std::size_t nc) {
    const double t = (static_cast<double>(i) - 0.5) / 2.0;
    const double fl = std::floor(t);
    const long last = static_cast<long>(nc) - 1;
    const long left = std::clamp(static_cast<long>(fl), 0L, last);
    const long right = std::clamp(static_cast<long>(fl) + 1, 0L, last);
    if (left == right) return Line{{static_cast<std::size_t>(left)}, {1.0}};
    return Line{{static_cast<std::size_t>(left), static_cast<std::size_t>(right)},
                {1.0 - (t - fl), t - fl}};
  };
  nh::util::TripletBuilder builder(nx * ny * nz, ncx * ncy * ncz);
  for (std::size_t k = 0; k < nz; ++k) {
    const Line wz = line(k, ncz);
    for (std::size_t j = 0; j < ny; ++j) {
      const Line wy = line(j, ncy);
      for (std::size_t i = 0; i < nx; ++i) {
        const Line wx = line(i, ncx);
        for (std::size_t a = 0; a < wz.idx.size(); ++a) {
          for (std::size_t b = 0; b < wy.idx.size(); ++b) {
            for (std::size_t c = 0; c < wx.idx.size(); ++c) {
              builder.add((k * ny + j) * nx + i,
                          (wz.idx[a] * ncy + wy.idx[b]) * ncx + wx.idx[c],
                          wz.w[a] * wy.w[b] * wx.w[c]);
            }
          }
        }
      }
    }
  }
  return SparseMatrix::fromTriplets(builder);
}

TEST(GeometricMultigrid, DirectCsrProlongationMatchesTripletOracle) {
  // Even, odd, mixed and 1-wide dimensions (a 1-wide axis clamps every
  // cell to one weight-1 entry).
  for (const auto& [nx, ny, nz] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
        {7, 5, 9},
        {6, 3, 4},
        {1, 6, 5},
        {5, 1, 1},
        {1, 1, 1},
        {86, 86, 36}}) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                 std::to_string(nz));
    const std::size_t ncx = (nx + 1) / 2, ncy = (ny + 1) / 2, ncz = (nz + 1) / 2;
    const auto direct = nh::util::buildTrilinearProlongation(nx, ny, nz, ncx, ncy, ncz);
    const auto oracle = tripletProlongation(nx, ny, nz, ncx, ncy, ncz);
    EXPECT_EQ(direct.rows(), oracle.rows());
    EXPECT_EQ(direct.cols(), oracle.cols());
    EXPECT_EQ(direct.rowPtr(), oracle.rowPtr());
    EXPECT_EQ(direct.colIdx(), oracle.colIdx());
    EXPECT_EQ(direct.values(), oracle.values());  // bit-identical
  }
}

TEST(GeometricMultigrid, AgreesWithIc0AndJacobiWithinTolerance) {
  const std::size_t m = 12;
  const std::size_t n = m * m * m;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(n);
  Rng rng(5);
  for (auto& v : b) v = rng.uniform(0.0, 1e-6);

  const auto solveWith = [&](CgPreconditioner pre, std::size_t* iters) {
    CgOptions options;
    options.relTol = 1e-10;
    options.preconditioner = pre;
    options.gridNx = m;
    options.gridNy = m;
    options.gridNz = m;
    Vector x(n, 0.0);
    CgWorkspace ws;
    const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
    EXPECT_TRUE(stats.converged);
    if (iters != nullptr) *iters = stats.iterations;
    return x;
  };

  std::size_t itersJacobi = 0, itersIc = 0, itersMg = 0;
  const Vector xJacobi = solveWith(CgPreconditioner::Jacobi, &itersJacobi);
  const Vector xIc = solveWith(CgPreconditioner::IncompleteCholesky, &itersIc);
  const Vector xMg = solveWith(CgPreconditioner::Multigrid, &itersMg);
  // Solutions agree within the CG tolerance; the preconditioner ladder
  // strictly cuts iterations at each rung on this operator.
  const double fieldScale = nh::util::normInf(xJacobi);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xIc[i], xJacobi[i], 1e-8 * fieldScale);
    EXPECT_NEAR(xMg[i], xJacobi[i], 1e-8 * fieldScale);
  }
  EXPECT_LT(itersIc, itersJacobi);
  EXPECT_LT(itersMg, itersIc);
}

TEST(GeometricMultigrid, IterationCountNearGridSizeIndependent) {
  // The whole point of GMG: iteration counts stay (near) flat as the grid
  // is refined, where IC(0)'s grow with the edge length.
  const auto iterationsAt = [](std::size_t m, CgPreconditioner pre) {
    const SparseMatrix a = steadyFvOperator(m, 2.0);
    Vector b(a.rows(), 1e-6);
    Vector x(a.rows(), 0.0);
    CgOptions options;
    options.relTol = 1e-8;
    options.preconditioner = pre;
    options.gridNx = m;
    options.gridNy = m;
    options.gridNz = m;
    CgWorkspace ws;
    const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
    EXPECT_TRUE(stats.converged) << "m=" << m;
    return stats.iterations;
  };
  const std::size_t mgCoarse = iterationsAt(12, CgPreconditioner::Multigrid);
  const std::size_t mgFine = iterationsAt(24, CgPreconditioner::Multigrid);
  const std::size_t icCoarse =
      iterationsAt(12, CgPreconditioner::IncompleteCholesky);
  const std::size_t icFine =
      iterationsAt(24, CgPreconditioner::IncompleteCholesky);
  // GMG: at most a couple of extra iterations after doubling the edge.
  EXPECT_LE(mgFine, mgCoarse + 3);
  // IC(0): the count visibly grows -- the wall GMG removes.
  EXPECT_GT(icFine, icCoarse + 3);
  EXPECT_LT(mgFine, icFine);
}

TEST(GeometricMultigrid, FallsBackWithoutGridDimensions) {
  // Multigrid requested but no dims supplied: the solve must silently run
  // on the IC(0) rung and still converge to the right answer.
  const std::size_t m = 8;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(a.rows(), 1e-6);
  Vector x(a.rows(), 0.0);
  CgOptions options;
  options.relTol = 1e-10;
  options.preconditioner = CgPreconditioner::Multigrid;  // gridN* left 0
  CgWorkspace ws;
  const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
  ASSERT_TRUE(stats.converged);
  EXPECT_TRUE(ws.multigrid() == nullptr || !ws.multigrid()->valid());
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < a.rows(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-12);
}

TEST(GeometricMultigrid, FrozenHierarchyRecomputeBitIdenticalToFreshBuild) {
  // Same grid, new operator values: the second compute() refills the
  // Galerkin chain through the cached SpGemm plans. The resulting V-cycle
  // must be bit-identical to one from a from-scratch hierarchy on the same
  // matrix -- the refill replays the exact SpGEMM accumulation order.
  const std::size_t m = 12;
  const SparseMatrix a1 = steadyFvOperator(m, 2.0);
  const SparseMatrix a2 = steadyFvOperator(m, 2.7);  // same structure
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = m;

  nh::util::GeometricMultigrid reused;
  ASSERT_TRUE(reused.compute(a1, options));
  ASSERT_TRUE(reused.compute(a2, options));  // frozen-structure recompute

  nh::util::GeometricMultigrid fresh;
  ASSERT_TRUE(fresh.compute(a2, options));

  Vector r(a2.rows());
  Rng rng(31);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  Vector zReused, zFresh;
  reused.apply(r, zReused);
  fresh.apply(r, zFresh);
  EXPECT_EQ(zReused, zFresh);  // bit-identical
}

TEST(GeometricMultigrid, RejectsTinyGrids) {
  nh::util::GeometricMultigrid mg;
  const SparseMatrix a = steadyFvOperator(4, 1.0);  // 64 rows
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = 4;
  EXPECT_FALSE(mg.compute(a, options));  // <= maxCoarseRows: IC(0) territory
  EXPECT_FALSE(mg.valid());
}

TEST(GeometricMultigrid, DiffusionSolverAutoUpgradeMatchesExplicitIc0Solution) {
  // A pin-free diffusion problem big enough to trip the auto-upgrade
  // (lowered threshold): the GMG solution must agree with IC(0)'s within
  // tolerance, and the upgrade must leave pinned problems alone.
  nh::fem::VoxelGrid grid(16, 16, 16, 2e-9);
  nh::fem::DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(grid.voxelCount(), 1.5);
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
  problem.sourcePerVoxel[grid.index(8, 8, 12)] = 3e-6;
  problem.bottomPlaneDirichlet = true;
  problem.bottomPlaneValue = 300.0;

  nh::fem::DiffusionOptions upgraded;
  upgraded.relTol = 1e-10;
  upgraded.multigridMinVoxels = 1024;  // force the upgrade at 16^3
  nh::fem::DiffusionOptions plain;
  plain.relTol = 1e-10;
  plain.multigridMinVoxels = 0;  // stay on IC(0)

  const auto viaMg = nh::fem::solveDiffusion(problem, upgraded);
  const auto viaIc = nh::fem::solveDiffusion(problem, plain);
  ASSERT_TRUE(viaMg.converged());
  ASSERT_TRUE(viaIc.converged());
  EXPECT_LT(viaMg.stats.iterations, viaIc.stats.iterations);
  for (std::size_t v = 0; v < viaMg.field.size(); ++v) {
    EXPECT_NEAR(viaMg.field[v], viaIc.field[v], 1e-6);
  }
}

// ---- warm-started re-solves --------------------------------------------------

TEST(ConjugateGradient, WarmStartReducesIterationsOnPerturbedResolve) {
  const std::size_t m = 16;
  const std::size_t n = m * m * m;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(n, 1e-6);
  CgOptions options;
  options.relTol = 1e-10;
  options.preconditioner = CgPreconditioner::IncompleteCholesky;
  CgWorkspace ws;

  Vector base(n, 0.0);
  const auto first = nh::util::solveConjugateGradient(a, b, base, options, &ws);
  ASSERT_TRUE(first.converged);

  // Perturb the load by 1% and re-solve cold vs warm.
  Vector bNext = b;
  for (auto& v : bNext) v *= 1.01;
  options.reusePreconditioner = true;  // matrix unchanged

  Vector cold(n, 0.0);
  const auto coldStats =
      nh::util::solveConjugateGradient(a, bNext, cold, options, &ws);
  Vector warm = base;
  const auto warmStats =
      nh::util::solveConjugateGradient(a, bNext, warm, options, &ws);
  ASSERT_TRUE(coldStats.converged);
  ASSERT_TRUE(warmStats.converged);
  EXPECT_LT(warmStats.iterations, coldStats.iterations);
  const double fieldScale = nh::util::normInf(cold);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(warm[i], cold[i], 1e-7 * fieldScale);
  }
}

TEST(ThermalSolver, WarmStartedPowerSweepReducesIterations) {
  // The alpha-extraction pattern: same model, stepped power, each solve
  // seeded with the previous field. The warm-started re-solve must converge
  // in fewer CG iterations and to the same field (within tolerance).
  nh::fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = nh::fem::CrossbarModel3D::build(layout);

  nh::fem::ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;

  nh::fem::ThermalSolver solver;
  const auto first = solver.solve(scenario);
  ASSERT_TRUE(first.converged());

  scenario.cellPower(1, 1) = 1.02e-4;  // next sweep point, 2% away
  const auto cold = solver.solve(scenario);
  const auto warm = solver.solve(scenario, {}, &first.temperature);
  ASSERT_TRUE(cold.converged());
  ASSERT_TRUE(warm.converged());
  EXPECT_LT(warm.stats.iterations, cold.stats.iterations);
  // Fields are O(300..600) K solved to relTol 1e-8: different CG
  // trajectories agree to ~1e-4 K absolute, not exactly.
  for (std::size_t v = 0; v < warm.temperature.size(); ++v) {
    EXPECT_NEAR(warm.temperature[v], cold.temperature[v], 5e-4);
  }
}

// ---- dense LU reuse ----------------------------------------------------------

TEST(LuFactorization, RefactorAndSolveInPlaceMatchOneShot) {
  Rng rng(99);
  nh::util::LuFactorization lu;
  for (const std::size_t n : {4u, 12u, 4u}) {  // shrinking size reuses storage
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += static_cast<double>(n);
    }
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);

    ASSERT_TRUE(lu.refactor(a));
    ASSERT_TRUE(lu.valid());
    const auto oneShot = nh::util::LuFactorization::factor(a);
    ASSERT_TRUE(oneShot.has_value());
    const Vector xRef = oneShot->solve(b);

    const Vector xSolve = lu.solve(b);
    Vector xInPlace = b;
    lu.solveInPlace(xInPlace);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(xSolve[i], xRef[i]);
      EXPECT_DOUBLE_EQ(xInPlace[i], xRef[i]);
    }
  }
}

TEST(LuFactorization, RefactorSingularReturnsFalse) {
  nh::util::LuFactorization lu;
  EXPECT_FALSE(lu.refactor(Matrix{{1.0, 2.0}, {2.0, 4.0}}));
  EXPECT_FALSE(lu.valid());
  // Recovers on the next nonsingular refactor.
  EXPECT_TRUE(lu.refactor(Matrix{{2.0, 1.0}, {1.0, 3.0}}));
  const Vector x = lu.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

// ---- SPICE factorisation reuse ----------------------------------------------

nh::spice::TransientResult runRcTransient(bool reuse) {
  using namespace nh::spice;
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  PulseSpec step;
  step.base = 0.0;
  step.amplitude = 1.0;
  step.delay = 0.0;
  step.rise = 1e-9;
  step.fall = 1e-9;
  step.width = 1.0;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(step));
  ckt.emplace<Resistor>("R1", in, out, 1000.0);
  ckt.emplace<Capacitor>("C1", out, ckt.ground(), 1e-9);
  TransientOptions opt;
  opt.tStop = 3e-6;
  opt.dtMax = 10e-9;
  opt.newton.reuseFactorization = reuse;
  return runTransient(ckt, opt, {probeNodeVoltage(ckt, "out")});
}

TEST(SpiceReuse, LinearTransientBitIdenticalWithFrozenLu) {
  const auto full = runRcTransient(false);
  const auto reused = runRcTransient(true);
  ASSERT_TRUE(full.completed);
  ASSERT_TRUE(reused.completed);
  ASSERT_EQ(full.time.size(), reused.time.size());
  const auto& a = full.seriesFor("v(out)");
  const auto& b = reused.seriesFor("v(out)");
  for (std::size_t k = 0; k < a.size(); ++k) {
    // A frozen LU solved against a freshly stamped rhs is the same
    // arithmetic as re-factoring the identical matrix: exact equality.
    EXPECT_DOUBLE_EQ(a[k], b[k]) << "at sample " << k;
  }
}

// ---- Schur-complement line-network solve ------------------------------------

TEST(SchurComplementSolver, MatchesDenseSolveOnRandomBlockSystems) {
  Rng rng(77);
  nh::util::SchurComplementSolver solver;
  for (const auto [n1, n2] : {std::pair<std::size_t, std::size_t>{5, 5},
                              {12, 7},
                              {3, 9}}) {
    Matrix g(n1, n2);
    Vector d1(n1, 0.02), d2(n2, 0.02);  // driver conductance
    for (std::size_t r = 0; r < n1; ++r) {
      for (std::size_t c = 0; c < n2; ++c) {
        const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
        g(r, c) = gc;
        d1[r] += gc;
        d2[c] += gc;
      }
    }
    Vector r(n1 + n2);
    for (auto& v : r) v = rng.uniform(-1e-3, 1e-3);

    // Reference: assemble the full Jacobian and solve densely.
    const std::size_t n = n1 + n2;
    Matrix j(n, n, 0.0);
    for (std::size_t i = 0; i < n1; ++i) j(i, i) = d1[i];
    for (std::size_t c = 0; c < n2; ++c) j(n1 + c, n1 + c) = d2[c];
    for (std::size_t i = 0; i < n1; ++i) {
      for (std::size_t c = 0; c < n2; ++c) {
        j(i, n1 + c) = -g(i, c);
        j(n1 + c, i) = -g(i, c);
      }
    }
    const Vector xRef = nh::util::solveDense(j, r);

    Vector x;
    ASSERT_TRUE(solver.solve(d1, d2, g, r, x));
    ASSERT_EQ(x.size(), xRef.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], xRef[i], 1e-9 * std::max(1.0, std::fabs(xRef[i])));
    }
  }
}

TEST(SchurComplementSolver, ShapeMismatchThrows) {
  nh::util::SchurComplementSolver solver;
  Vector x;
  EXPECT_THROW(solver.solve(Vector(2, 1.0), Vector(3, 1.0), Matrix(2, 2, 0.0),
                            Vector(5, 0.0), x),
               std::invalid_argument);
}

TEST(LineNetworkSolver, MatchesDenseJacobianNewtonOnRandomCrossbars) {
  // The Schur-complement Newton against the dense factorisation of the
  // whole Jacobian: driven (V/2 hammer bias) and partly floating lines.
  Rng rng(2024);
  for (int trial = 0; trial < 3; ++trial) {
    nh::xbar::ArrayConfig cfg;
    cfg.rows = 4 + static_cast<std::size_t>(trial);  // non-square too
    cfg.cols = 6;
    nh::xbar::CrossbarArray array(cfg);
    for (std::size_t r = 0; r < cfg.rows; ++r) {
      for (std::size_t c = 0; c < cfg.cols; ++c) {
        array.setState(r, c, rng.uniform(0.0, 1.0) < 0.5 ? nh::xbar::CellState::Hrs
                                                         : nh::xbar::CellState::Lrs);
      }
    }
    const auto bias = nh::xbar::selectBias(nh::xbar::BiasScheme::Half, cfg.rows,
                                           cfg.cols, 1, 2, 1.05);
    nh::xbar::LineDrivers drivers;
    drivers.level = bias.wordLine;
    drivers.level.insert(drivers.level.end(), bias.bitLine.begin(),
                         bias.bitLine.end());
    drivers.conductance.assign(cfg.rows + cfg.cols, 1.0 / cfg.driverResistance);
    for (const bool floating : {false, true}) {
      if (floating) {
        drivers.conductance[0] = 0.0;             // an unselected word line
        drivers.conductance[cfg.rows + 4] = 0.0;  // an unselected bit line
      }
      nh::xbar::LineNetworkSolver solver;
      Vector voltages;
      const auto solved =
          solver.solve(array, drivers, nh::xbar::FastEngineOptions{}, voltages);
      ASSERT_TRUE(solved.converged());
      EXPECT_EQ(solved.conductionNonConverged, 0u);
      const Vector ref = nh::xbar::oracle::denseLineNewton(array, drivers);
      ASSERT_EQ(voltages.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(voltages[i], ref[i], 1e-9) << "line " << i;
      }
    }
  }
}

TEST(LineNetworkSolver, ContractionEstimateNeedsAContractingStep) {
  // theta >= 1 (equal or growing steps) never yields a finite estimate, so
  // a stagnating or diverging Newton loop cannot stop on it; neither can the
  // first iteration, which has no previous step.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [step, prevStep] :
       {std::pair<double, double>{1e-12, 1e-12}, {2e-12, 1e-12}, {0.5, 0.5},
        {1e-3, 0.0}, {0.0, 0.0}, {nan, 1e-3}, {1e-12, nan}, {1e-12, inf}}) {
    EXPECT_EQ(nh::xbar::contractionErrorEstimate(step, prevStep), inf)
        << step << " after " << prevStep;
  }
  // A non-contracting sequence of tiny steps: no estimate along the way.
  double prev = 0.0;
  for (const double step : {1e-10, 1e-10, 3e-10, 3e-10, 5e-10}) {
    EXPECT_EQ(nh::xbar::contractionErrorEstimate(step, prev), inf) << step;
    prev = step;
  }
  // A contracting pair: theta / (1 - theta) * step.
  EXPECT_DOUBLE_EQ(nh::xbar::contractionErrorEstimate(1e-8, 1e-2),
                   1e-6 / (1.0 - 1e-6) * 1e-8);
  EXPECT_DOUBLE_EQ(nh::xbar::contractionErrorEstimate(0.25, 0.5), 0.25);
}

TEST(LineNetworkSolver, ZeroDriveSolutionIsPositiveZero) {
  // All drivers at 0 V on LRS/HRS mixes, some lines floating: the dense
  // oracle's Newton stays at +0.0 on every line (cell current at 0 V is
  // exactly zero), and the solver returns that without an iteration.
  Rng rng(404);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{3, 3},
                                   {5, 8},
                                   {16, 16}}) {
    nh::xbar::ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    nh::xbar::CrossbarArray array(cfg);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        array.setState(r, c, rng.uniform(0.0, 1.0) < 0.5 ? nh::xbar::CellState::Hrs
                                                         : nh::xbar::CellState::Lrs);
      }
    }
    nh::xbar::LineDrivers drivers{Vector(rows + cols, 0.0),
                                  Vector(rows + cols, 1.0 / cfg.driverResistance)};
    drivers.conductance[1] = 0.0;
    drivers.conductance[rows] = 0.0;
    const Vector ref = nh::xbar::oracle::denseLineNewton(array, drivers);
    nh::xbar::LineNetworkSolver solver;
    Vector voltages(rows + cols, 0.7);  // overwritten
    const auto solved =
        solver.solve(array, drivers, nh::xbar::FastEngineOptions{}, voltages);
    EXPECT_TRUE(solved.converged());
    EXPECT_EQ(solved.newtonIterations, 0u);
    EXPECT_EQ(solved.errorEstimate, 0.0);
    ASSERT_EQ(ref.size(), rows + cols);
    ASSERT_EQ(voltages.size(), rows + cols);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i], 0.0) << "line " << i;
      EXPECT_FALSE(std::signbit(ref[i])) << "line " << i;
      EXPECT_EQ(voltages[i], 0.0) << "line " << i;
      EXPECT_FALSE(std::signbit(voltages[i])) << "line " << i;
    }
  }
}

// ---- FEM structure reuse -----------------------------------------------------

TEST(DiffusionSolver, CachedSolveMatchesFreshSolveBitIdentical) {
  nh::fem::VoxelGrid grid(6, 6, 6, 2e-9);
  nh::fem::DiffusionSolver solver;
  for (int sweep = 0; sweep < 3; ++sweep) {
    nh::fem::DiffusionProblem problem;
    problem.grid = &grid;
    const double kappa = 1.0 + 0.5 * sweep;  // values change, structure fixed
    problem.coefficient.assign(grid.voxelCount(), kappa);
    problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
    problem.sourcePerVoxel[grid.index(3, 3, 4)] = 2e-6 * (1 + sweep);
    problem.bottomPlaneDirichlet = true;
    problem.bottomPlaneValue = 300.0;

    const auto cached = solver.solve(problem, {1e-12, 20000});
    const auto fresh = nh::fem::solveDiffusion(problem, {1e-12, 20000});
    ASSERT_TRUE(cached.converged());
    ASSERT_TRUE(fresh.converged());
    ASSERT_EQ(cached.field.size(), fresh.field.size());
    for (std::size_t v = 0; v < cached.field.size(); ++v) {
      // Identical assembly + identical CG trajectory => identical bits.
      EXPECT_DOUBLE_EQ(cached.field[v], fresh.field[v]);
    }
    EXPECT_EQ(cached.stats.iterations, fresh.stats.iterations);
  }
}

TEST(DiffusionSolver, DetectsStructureChange) {
  nh::fem::VoxelGrid gridA(4, 4, 4, 1e-9);
  nh::fem::VoxelGrid gridB(5, 5, 5, 1e-9);
  nh::fem::DiffusionSolver solver;
  for (const auto* grid : {&gridA, &gridB, &gridA}) {
    nh::fem::DiffusionProblem problem;
    problem.grid = grid;
    problem.coefficient.assign(grid->voxelCount(), 2.0);
    problem.sourcePerVoxel.assign(grid->voxelCount(), 0.0);
    problem.sourcePerVoxel[grid->index(1, 1, 2)] = 1e-6;
    problem.bottomPlaneDirichlet = true;
    problem.bottomPlaneValue = 300.0;
    const auto cached = solver.solve(problem);
    const auto fresh = nh::fem::solveDiffusion(problem);
    ASSERT_TRUE(cached.converged());
    for (std::size_t v = 0; v < cached.field.size(); ++v) {
      EXPECT_DOUBLE_EQ(cached.field[v], fresh.field[v]);
    }
  }
}

TEST(DiffusionSolver, PinValueChangesReuseStructure) {
  // Same pin locations, different pin values: the cached structure must be
  // reused and the result must match a fresh solve exactly.
  nh::fem::VoxelGrid grid(5, 5, 5, 1e-9);
  nh::fem::DiffusionSolver solver;
  for (const double pinV : {1.0, 0.5, 2.0}) {
    nh::fem::DiffusionProblem problem;
    problem.grid = &grid;
    problem.coefficient.assign(grid.voxelCount(), 1.0);
    problem.pins.push_back({grid.index(2, 2, 4), pinV});
    problem.pins.push_back({grid.index(0, 0, 0), 0.0});
    const auto cached = solver.solve(problem, {1e-12, 20000});
    const auto fresh = nh::fem::solveDiffusion(problem, {1e-12, 20000});
    ASSERT_TRUE(cached.converged());
    for (std::size_t v = 0; v < cached.field.size(); ++v) {
      EXPECT_DOUBLE_EQ(cached.field[v], fresh.field[v]);
    }
  }
}

// ---- banded / iterative Schur paths ------------------------------------------

// Shared fixture: a random diagonally dominant bipartite block system plus
// its dense reference solution.
struct BlockSystem {
  Vector d1, d2, r, xRef;
  Matrix g;
};

BlockSystem makeBlockSystem(Rng& rng, std::size_t n1, std::size_t n2) {
  BlockSystem s;
  s.g = Matrix(n1, n2);
  s.d1 = Vector(n1, 0.02);
  s.d2 = Vector(n2, 0.02);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t c = 0; c < n2; ++c) {
      const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
      s.g(i, c) = gc;
      s.d1[i] += gc;
      s.d2[c] += gc;
    }
  }
  s.r = Vector(n1 + n2);
  for (auto& v : s.r) v = rng.uniform(-1e-3, 1e-3);
  const std::size_t n = n1 + n2;
  Matrix j(n, n, 0.0);
  for (std::size_t i = 0; i < n1; ++i) j(i, i) = s.d1[i];
  for (std::size_t c = 0; c < n2; ++c) j(n1 + c, n1 + c) = s.d2[c];
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t c = 0; c < n2; ++c) {
      j(i, n1 + c) = -s.g(i, c);
      j(n1 + c, i) = -s.g(i, c);
    }
  }
  s.xRef = nh::util::solveDense(j, s.r);
  return s;
}

TEST(SchurComplementSolver, DegenerateShapesMatchDense) {
  // 1xN, Nx1, and the single-cell 1x1 block system: the Schur complement
  // machinery must not assume either block has more than one entry.
  Rng rng(321);
  nh::util::SchurComplementSolver solver;
  for (const auto [n1, n2] : {std::pair<std::size_t, std::size_t>{1, 9},
                              {9, 1},
                              {1, 1}}) {
    const BlockSystem s = makeBlockSystem(rng, n1, n2);
    Vector x;
    ASSERT_TRUE(solver.solve(s.d1, s.d2, s.g, s.r, x)) << n1 << "x" << n2;
    ASSERT_EQ(x.size(), s.xRef.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], s.xRef[i], 1e-9 * std::max(1.0, std::fabs(s.xRef[i])))
          << n1 << "x" << n2 << " entry " << i;
    }
    // The banded entry points must handle the same degenerate shapes.
    for (const auto mode : {nh::util::SchurOptions::Mode::Dense,
                            nh::util::SchurOptions::Mode::Iterative}) {
      solver.options().mode = mode;
      Vector xb;
      ASSERT_TRUE(solver.solveBanded(nh::util::TridiagonalView::diagonal(s.d1),
                                     nh::util::TridiagonalView::diagonal(s.d2),
                                     s.g, s.r, xb));
      for (std::size_t i = 0; i < xb.size(); ++i) {
        EXPECT_NEAR(xb[i], s.xRef[i],
                    1e-8 * std::max(1.0, std::fabs(s.xRef[i])));
      }
    }
  }
}

TEST(SchurComplementSolver, BandedAndIterativeMatchDenseReference) {
  Rng rng(99);
  for (const auto [n1, n2] : {std::pair<std::size_t, std::size_t>{24, 16},
                              {7, 31}}) {
    const BlockSystem s = makeBlockSystem(rng, n1, n2);
    for (const auto mode : {nh::util::SchurOptions::Mode::Dense,
                            nh::util::SchurOptions::Mode::Iterative}) {
      nh::util::SchurComplementSolver solver;
      solver.options().mode = mode;
      Vector x;
      ASSERT_TRUE(solver.solveBanded(nh::util::TridiagonalView::diagonal(s.d1),
                                     nh::util::TridiagonalView::diagonal(s.d2),
                                     s.g, s.r, x));
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(x[i], s.xRef[i], 1e-8 * std::max(1.0, std::fabs(s.xRef[i])));
      }
      if (mode == nh::util::SchurOptions::Mode::Iterative) {
        EXPECT_TRUE(solver.lastIterative().converged);
        EXPECT_GT(solver.lastIterative().iterations, 0u);
      }
    }
  }
}

TEST(TridiagonalFactor, MatchesOneShotThomasAndDense) {
  Rng rng(5);
  const std::size_t n = 40;
  Vector lower(n - 1), diag(n), upper(n - 1), b(n);
  for (std::size_t i = 0; i < n - 1; ++i) {
    lower[i] = rng.uniform(-1.0, -0.1);
    upper[i] = rng.uniform(-1.0, -0.1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 4.0 + rng.uniform(0.0, 1.0);  // diagonally dominant
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const Vector xRef = nh::util::solveTridiagonal(lower, diag, upper, b);

  nh::util::TridiagonalFactor f;
  ASSERT_TRUE(f.factor(nh::util::TridiagonalView::tridiagonal(lower, diag, upper)));
  Vector x = b;
  f.solveInPlace(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xRef[i], 1e-12);

  // Multi-RHS row sweep: every column solved exactly like the vector path.
  Matrix rhs(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    rhs(i, 0) = b[i];
    rhs(i, 1) = 2.0 * b[i];
    rhs(i, 2) = -b[i];
  }
  f.solveRowsInPlace(rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rhs(i, 0), xRef[i], 1e-12);
    EXPECT_NEAR(rhs(i, 1), 2.0 * xRef[i], 1e-11);
    EXPECT_NEAR(rhs(i, 2), -xRef[i], 1e-12);
  }

  // Diagonal-only view: solve is element-wise division.
  Vector d(4, 2.0), bd(4, 1.0);
  nh::util::TridiagonalFactor fd;
  ASSERT_TRUE(fd.factor(nh::util::TridiagonalView::diagonal(d)));
  fd.solveInPlace(bd);
  for (const double v : bd) EXPECT_DOUBLE_EQ(v, 0.5);

  // Singular diagonal must be rejected.
  Vector dz(3, 0.0);
  nh::util::TridiagonalFactor fz;
  EXPECT_FALSE(fz.factor(nh::util::TridiagonalView::diagonal(dz)));
}

// ---- FastEngine Schur-mode equivalence ---------------------------------------

TEST(FastEngineSchur, AllModesMatchTheSeedDensePath) {
  // Iterative and a forced-iterative Auto must reproduce the seed dense line
  // solve on the same crossbar within solver tolerance.
  using SchurMode = nh::xbar::FastEngineOptions::SchurMode;
  nh::xbar::ArrayConfig cfg;
  cfg.rows = 7;
  cfg.cols = 9;

  const auto runWith = [&](SchurMode mode, std::size_t minCols,
                           nh::xbar::CrossbarArray& array) {
    nh::xbar::FastEngineOptions opt;
    opt.schurMode = mode;
    opt.schurIterativeMinCols = minCols;
    nh::xbar::FastEngine engine(array, nh::xbar::AlphaTable::analytic(50e-9),
                                opt);
    const auto bias = nh::xbar::selectBias(nh::xbar::BiasScheme::Half, cfg.rows,
                                           cfg.cols, 3, 4, 1.05);
    engine.applyBias(bias, 10e-9);
    return engine.lastLineVoltages();
  };

  const auto makeArray = [&]() {
    nh::xbar::CrossbarArray array(cfg);
    array.fill(nh::xbar::CellState::Hrs);
    array.setState(3, 4, nh::xbar::CellState::Lrs);
    array.setState(2, 6, nh::xbar::CellState::Lrs);
    return array;
  };

  auto seedArray = makeArray();
  const auto seed = runWith(SchurMode::SeedDense, 128, seedArray);

  // Auto below the crossover threshold is the seed path bit for bit.
  auto autoArray = makeArray();
  const auto autoSmall = runWith(SchurMode::Auto, 128, autoArray);
  ASSERT_EQ(autoSmall.size(), seed.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_DOUBLE_EQ(autoSmall[i], seed[i]) << "line " << i;
  }

  for (const auto [mode, minCols] :
       {std::pair<SchurMode, std::size_t>{SchurMode::Iterative, 128},
        {SchurMode::Auto, 1}}) {  // Auto past the crossover goes iterative
    auto array = makeArray();
    const auto lv = runWith(mode, minCols, array);
    ASSERT_EQ(lv.size(), seed.size());
    for (std::size_t i = 0; i < seed.size(); ++i) {
      EXPECT_NEAR(lv[i], seed[i], 1e-9) << "line " << i;
    }
  }
}

/// The dense Schur solve as it was assembled before the row-order loop:
/// word lines outer, each scattering its rank-1 update over the whole upper
/// triangle, then the same LU solve and back-substitution.
Vector wordLineOuterSchurSolve(const Vector& d1, const Vector& d2,
                               const Matrix& g, const Vector& r) {
  const std::size_t n1 = d1.size();
  const std::size_t n2 = d2.size();
  Matrix schur(n2, n2, 0.0);
  Vector rhs(n2);
  for (std::size_t c = 0; c < n2; ++c) rhs[c] = r[n1 + c];
  for (std::size_t i = 0; i < n1; ++i) {
    const double invD = 1.0 / d1[i];
    const double scaledRes = r[i] * invD;
    const double* row = g.data() + i * n2;
    for (std::size_t c1 = 0; c1 < n2; ++c1) {
      const double gScaled = row[c1] * invD;
      rhs[c1] += row[c1] * scaledRes;
      double* s = schur.data() + c1 * n2;
      for (std::size_t c2 = c1; c2 < n2; ++c2) s[c2] -= gScaled * row[c2];
    }
  }
  for (std::size_t c1 = 0; c1 < n2; ++c1) {
    schur(c1, c1) += d2[c1];
    for (std::size_t c2 = 0; c2 < c1; ++c2) schur(c1, c2) = schur(c2, c1);
  }
  nh::util::LuFactorization lu;
  EXPECT_TRUE(lu.refactor(schur));
  lu.solveInPlace(rhs);
  Vector x(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* row = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += row[c] * rhs[c];
    x[i] = acc / d1[i];
  }
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = rhs[c];
  return x;
}

TEST(SchurComplementSolver, RowOrderAssemblyMatchesWordLineOuterOracleBitForBit) {
  // Square and not, from the 32x32 line network to the 128-column CG
  // crossover.
  Rng rng(4242);
  for (const auto& [n1, n2] : {std::pair<std::size_t, std::size_t>{24, 32},
                               {40, 63},
                               {64, 64},
                               {80, 65},
                               {33, 128}}) {
    const BlockSystem sys = makeBlockSystem(rng, n1, n2);
    const Vector want = wordLineOuterSchurSolve(sys.d1, sys.d2, sys.g, sys.r);

    nh::util::SchurComplementSolver solver;
    Vector x;
    ASSERT_TRUE(solver.solve(sys.d1, sys.d2, sys.g, sys.r, x));
    EXPECT_EQ(x, want) << n1 << "x" << n2;
    ASSERT_TRUE(solver.solve(sys.d1, sys.d2, sys.g, sys.r, x));  // reused workspace
    EXPECT_EQ(x, want) << n1 << "x" << n2 << " repeated";
  }
}

}  // namespace
