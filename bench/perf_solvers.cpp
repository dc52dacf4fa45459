/// Google-benchmark microbenchmarks of the numerical kernels: dense LU
/// (MNA), preconditioned CG on the FEM operator, the JART conduction solve,
/// device state integration, and one full fast-engine pulse on the 5x5
/// crossbar. These bound the cost model behind the sweep budgets quoted in
/// EXPERIMENTS.md.
///
/// The *Fresh/Cached, *Jacobi/Ic0, and reuse/full argument pairs benchmark
/// the structure-reusing solver core against the seed code paths: cached
/// sparse assembly vs sort-and-merge rebuilds, IC(0)- vs Jacobi-
/// preconditioned CG, SPICE transients with vs without factorisation reuse,
/// and the Schur-complement line-network solve vs the dense factorisation.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "fem/alpha.hpp"
#include "jart/device.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/fvstencil.hpp"
#include "util/linsolve.hpp"
#include "util/multigrid.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"
#include "util/spmv.hpp"
#include "xbar/fastsim.hpp"

namespace {

/// 7-point FV stencil on an m^3 grid -- the same structure the FEM thermal
/// solves assemble -- stamped in one fixed sequence.
void stampPoisson3d(nh::util::TripletBuilder& builder, std::size_t m,
                    double scale) {
  const auto idx = [m](std::size_t i, std::size_t j, std::size_t k) {
    return (k * m + j) * m + i;
  };
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t v = idx(i, j, k);
        double diag = 1.0;  // capacity/Dirichlet lump keeps the system SPD
        const auto visit = [&](std::size_t nv) {
          diag += scale;
          builder.add(v, nv, -scale);
        };
        if (i > 0) visit(idx(i - 1, j, k));
        if (i + 1 < m) visit(idx(i + 1, j, k));
        if (j > 0) visit(idx(i, j - 1, k));
        if (j + 1 < m) visit(idx(i, j + 1, k));
        if (k > 0) visit(idx(i, j, k - 1));
        if (k + 1 < m) visit(idx(i, j, k + 1));
        builder.add(v, v, diag);
      }
    }
  }
}

void BM_DenseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  nh::util::Rng rng(42);
  nh::util::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  nh::util::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nh::util::solveDense(a, b));
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(10)->Arg(50);

void BM_FemThermalSolve(benchmark::State& state) {
  nh::fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = nh::fem::CrossbarModel3D::build(layout);
  nh::fem::ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nh::fem::solveThermal(scenario));
  }
  state.counters["voxels"] = static_cast<double>(model.grid().voxelCount());
}
BENCHMARK(BM_FemThermalSolve)->Unit(benchmark::kMillisecond);

/// Same solve through a persistent ThermalSolver: after the first iteration
/// every call refills the cached CSR structure and reuses the CG workspace
/// -- the state an alpha-extraction power sweep runs in.
void BM_FemThermalSolveReused(benchmark::State& state) {
  nh::fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = nh::fem::CrossbarModel3D::build(layout);
  nh::fem::ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;
  nh::fem::ThermalSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(scenario));
  }
  state.counters["voxels"] = static_cast<double>(model.grid().voxelCount());
}
BENCHMARK(BM_FemThermalSolveReused)->Unit(benchmark::kMillisecond);

/// Seed-style assembly: bucket + sort + merge on every call.
void BM_FemAssemblyFresh(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  nh::util::TripletBuilder builder(m * m * m, m * m * m);
  stampPoisson3d(builder, m, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nh::util::SparseMatrix::fromTriplets(builder));
  }
  state.counters["rows"] = static_cast<double>(m * m * m);
}
BENCHMARK(BM_FemAssemblyFresh)->Arg(16)->Unit(benchmark::kMillisecond);

/// Structure-cached assembly: re-stamp and O(nnz) scatter into the cached
/// CSR, no sorting, no allocation.
void BM_FemAssemblyCached(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  nh::util::TripletBuilder builder(m * m * m, m * m * m);
  stampPoisson3d(builder, m, 2.0);
  const auto pattern = nh::util::SparsityPattern::fromTriplets(builder);
  nh::util::SparseMatrix matrix;
  pattern.assemble(builder, matrix);
  for (auto _ : state) {
    builder.clear();
    stampPoisson3d(builder, m, 2.0);
    pattern.assemble(builder, matrix);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["rows"] = static_cast<double>(m * m * m);
}
BENCHMARK(BM_FemAssemblyCached)->Arg(16)->Unit(benchmark::kMillisecond);

/// CG on the frozen FV operator, Jacobi vs IC(0) (arg: 0 = Jacobi, 1 = IC0),
/// with a persistent workspace as in the transient marching loop.
void BM_CgPreconditioner(benchmark::State& state) {
  const std::size_t m = 16;
  const std::size_t n = m * m * m;
  nh::util::TripletBuilder builder(n, n);
  stampPoisson3d(builder, m, 2.0);
  const auto matrix = nh::util::SparseMatrix::fromTriplets(builder);
  nh::util::Vector b(n, 1.0);
  nh::util::CgWorkspace workspace;
  nh::util::CgOptions options;
  options.relTol = 1e-8;
  options.preconditioner = state.range(0) == 0
                               ? nh::util::CgPreconditioner::Jacobi
                               : nh::util::CgPreconditioner::IncompleteCholesky;
  std::size_t iterations = 0;
  nh::util::Vector x;
  for (auto _ : state) {
    x.assign(n, 0.0);
    const auto result =
        nh::util::solveConjugateGradient(matrix, b, x, options, &workspace);
    options.reusePreconditioner = true;  // operator frozen, as in a transient
    iterations = result.iterations;
    benchmark::DoNotOptimize(x);
  }
  // Not "iterations": that key would collide with benchmark's own field in
  // the JSON output and corrupt the tracked baseline.
  state.counters["cg_iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CgPreconditioner)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The large-grid scaling wall: CG on the *steady* FV heat operator at
/// 32^3 / 64^3 / 96^3 voxels, IC(0) vs geometric multigrid (arg0: grid
/// edge, arg1: 0 = IC0, 1 = GMG). The cg_iterations counter is the story:
/// IC(0) grows with the edge length, GMG stays (near) flat, which is what
/// opens the 10^5-10^6-voxel regime. One untimed priming solve builds the
/// preconditioner, then the timed loop re-solves with it frozen -- the
/// state every transient march and sweep chain runs in (the one-time
/// hierarchy cost is BM_GmgHierarchySetup).
void BM_CgFvSteadyLargeGrid(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = m * m * m;
  const auto matrix = nh::util::makeSteadyFvOperator3d(m, 2.0);
  nh::util::Vector b(n, 1e-6);  // uniform heat load
  nh::util::CgWorkspace workspace;
  nh::util::CgOptions options;
  options.relTol = 1e-8;
  options.maxIter = 50000;
  options.preconditioner = state.range(1) == 0
                               ? nh::util::CgPreconditioner::IncompleteCholesky
                               : nh::util::CgPreconditioner::Multigrid;
  options.gridNx = m;
  options.gridNy = m;
  options.gridNz = m;
  nh::util::Vector x(n, 0.0);
  nh::util::solveConjugateGradient(matrix, b, x, options, &workspace);
  options.reusePreconditioner = true;

  std::size_t iterations = 0;
  bool converged = true;
  for (auto _ : state) {
    x.assign(n, 0.0);
    const auto result =
        nh::util::solveConjugateGradient(matrix, b, x, options, &workspace);
    iterations = result.iterations;
    converged = converged && result.converged;
    benchmark::DoNotOptimize(x);
  }
  state.counters["cg_iterations"] = static_cast<double>(iterations);
  state.counters["converged"] = converged ? 1.0 : 0.0;
  state.counters["rows"] = static_cast<double>(n);
}
BENCHMARK(BM_CgFvSteadyLargeGrid)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({96, 0})
    ->Args({96, 1})
    ->Unit(benchmark::kMillisecond);

/// One-time cost of building the GMG hierarchy (transfers + Galerkin
/// products + coarse LU) per grid size; amortised over a sweep or march it
/// is repaid after a handful of solves, but it is not free -- this keeps
/// the tradeoff visible in the baseline.
void BM_GmgHierarchySetup(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = m * m * m;
  const auto matrix = nh::util::makeSteadyFvOperator3d(m, 2.0);
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = m;
  for (auto _ : state) {
    nh::util::GeometricMultigrid mg;  // fresh: no transfer-operator reuse
    const bool ok = mg.compute(matrix, options);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["rows"] = static_cast<double>(n);
}
BENCHMARK(BM_GmgHierarchySetup)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Frozen-structure hierarchy recompute: the state a sweep or transient
/// march is in when the operator's *values* changed but the grid did not.
/// The transfers are reused (pre-existing) and the Galerkin chain refills
/// through the per-level SpGemm plans in O(nnz) -- compare against
/// BM_GmgHierarchySetup/64, which pays the full symbolic SpGEMM each time.
void BM_GmgHierarchyRecompute(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const auto matrix = nh::util::makeSteadyFvOperator3d(m, 2.0);
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = m;
  nh::util::GeometricMultigrid mg;  // persistent: transfers + plans reused
  if (!mg.compute(matrix, options)) {
    state.SkipWithError("GMG setup failed");
    return;
  }
  for (auto _ : state) {
    const bool ok = mg.compute(matrix, options);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["rows"] = static_cast<double>(m * m * m);
}
BENCHMARK(BM_GmgHierarchyRecompute)->Arg(64)->Unit(benchmark::kMillisecond);

/// Direct row-kernel A/B on the 7-point fine FV operator at 64^3 (arg:
/// 0 = scalar reference, 1 = the dispatched kernel -- AVX2 gather where the
/// CPU has it, see the spmv_kernel context entry). Rows here are <= 7
/// entries wide, so both arms use the 4-accumulator pattern; the SIMD win
/// is the vectorised gather+multiply itself.
void BM_SpMvSimdFine(benchmark::State& state) {
  const std::size_t m = 64;
  const std::size_t n = m * m * m;
  const auto matrix = nh::util::makeSteadyFvOperator3d(m, 2.0);
  const nh::util::spmv::RowRangeFn kernel =
      state.range(0) == 0 ? &nh::util::spmv::rowRangeReference
                          : nh::util::spmv::activeKernel();
  nh::util::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 1e-6 * static_cast<double>(i % 997);
  }
  nh::util::Vector y(n, 0.0);
  for (auto _ : state) {
    kernel(matrix.rowPtr().data(), matrix.colIdx().data(),
           matrix.values().data(), x.data(), y.data(), 0, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["nnz"] = static_cast<double>(matrix.nonZeros());
}
BENCHMARK(BM_SpMvSimdFine)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Same A/B on the 27-point Galerkin coarse operator of the 64^3 hierarchy
/// (32^3 rows, ~27 entries each): these rows clear the wide-row threshold,
/// so the dispatched arm runs the register-blocked 8-accumulator path --
/// the dense-ish shape the ISSUE targets for the double-digit SpMV gain.
void BM_SpMvSimdGalerkin(benchmark::State& state) {
  const std::size_t m = 64;
  const std::size_t mc = (m + 1) / 2;
  const auto fine = nh::util::makeSteadyFvOperator3d(m, 2.0);
  const auto p = nh::util::buildTrilinearProlongation(m, m, m, mc, mc, mc);
  const auto coarse =
      nh::util::multiplySparse(p.transposed(), nh::util::multiplySparse(fine, p));
  const std::size_t n = coarse.rows();
  const nh::util::spmv::RowRangeFn kernel =
      state.range(0) == 0 ? &nh::util::spmv::rowRangeReference
                          : nh::util::spmv::activeKernel();
  nh::util::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 1e-6 * static_cast<double>(i % 997);
  }
  nh::util::Vector y(n, 0.0);

  // The dispatched kernel must agree with the reference bit-for-bit; a
  // mismatch would mean the A/B compares different arithmetic.
  nh::util::Vector yRef(n, 0.0);
  nh::util::spmv::rowRangeReference(coarse.rowPtr().data(),
                                    coarse.colIdx().data(),
                                    coarse.values().data(), x.data(),
                                    yRef.data(), 0, n);
  kernel(coarse.rowPtr().data(), coarse.colIdx().data(),
         coarse.values().data(), x.data(), y.data(), 0, n);
  if (y != yRef) {
    state.SkipWithError("SIMD kernel disagrees with the scalar reference");
    return;
  }

  for (auto _ : state) {
    kernel(coarse.rowPtr().data(), coarse.colIdx().data(),
           coarse.values().data(), x.data(), y.data(), 0, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["nnz"] = static_cast<double>(coarse.nonZeros());
}
BENCHMARK(BM_SpMvSimdGalerkin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One level of the Galerkin chain A_c = R (A P) at 64^3 -> 32^3, fresh
/// SpGEMM vs plan refill (arg: 0 = fresh, 1 = refill). The refill arm also
/// carries the allocation-count assertion for the old multigrid.cpp
/// every-compute() reallocation: after the timed loop the plans must report
/// exactly one symbolic run each and the product's value storage must not
/// have moved -- any reallocation or re-run fails the bench.
void BM_GalerkinRefill(benchmark::State& state) {
  const std::size_t m = 64;
  const std::size_t mc = (m + 1) / 2;
  const auto fine = nh::util::makeSteadyFvOperator3d(m, 2.0);
  const auto p = nh::util::buildTrilinearProlongation(m, m, m, mc, mc, mc);
  const auto r = p.transposed();

  if (state.range(0) == 0) {
    for (auto _ : state) {
      const auto coarse =
          nh::util::multiplySparse(r, nh::util::multiplySparse(fine, p));
      benchmark::DoNotOptimize(coarse.values().data());
    }
    state.counters["rows"] = static_cast<double>(mc * mc * mc);
    return;
  }

  nh::util::SpGemmPlan apPlan, rapPlan;
  nh::util::SparseMatrix ap, coarse;
  apPlan.multiply(fine, p, ap);       // symbolic prime
  rapPlan.multiply(r, ap, coarse);
  const auto freshCoarse =
      nh::util::multiplySparse(r, nh::util::multiplySparse(fine, p));
  if (coarse.values() != freshCoarse.values() ||
      coarse.colIdx() != freshCoarse.colIdx()) {
    state.SkipWithError("plan product disagrees with fresh SpGEMM");
    return;
  }
  const double* valuesPtr = coarse.values().data();
  for (auto _ : state) {
    apPlan.multiply(fine, p, ap);
    rapPlan.multiply(r, ap, coarse);
    benchmark::DoNotOptimize(coarse.values().data());
  }
  if (apPlan.symbolicCount() != 1 || rapPlan.symbolicCount() != 1 ||
      !apPlan.lastWasRefill() || !rapPlan.lastWasRefill()) {
    state.SkipWithError("refill arm re-ran the symbolic SpGEMM");
    return;
  }
  if (coarse.values().data() != valuesPtr) {
    state.SkipWithError("refill arm reallocated the product storage");
    return;
  }
  state.counters["rows"] = static_cast<double>(mc * mc * mc);
}
BENCHMARK(BM_GalerkinRefill)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Warm-started sweep re-solve: the steady FV system solved to convergence,
/// then re-solved after a small load change, starting CG from the previous
/// field vs from zero (arg: 0 = cold, 1 = warm) -- the state the Fig. 3
/// sweeps' chained alpha extractions run in.
void BM_CgWarmStartResolve(benchmark::State& state) {
  const std::size_t m = 32;
  const std::size_t n = m * m * m;
  const auto matrix = nh::util::makeSteadyFvOperator3d(m, 2.0);
  nh::util::CgWorkspace workspace;
  nh::util::CgOptions options;
  options.relTol = 1e-8;
  options.maxIter = 50000;
  options.preconditioner = nh::util::CgPreconditioner::IncompleteCholesky;

  // Converged base field for load 1.0.
  nh::util::Vector b(n, 1e-6);
  nh::util::Vector base(n, 0.0);
  nh::util::solveConjugateGradient(matrix, b, base, options, &workspace);
  options.reusePreconditioner = true;
  // The next sweep point: 5% more power.
  nh::util::Vector bNext = b;
  for (auto& v : bNext) v *= 1.05;

  const bool warm = state.range(0) == 1;
  std::size_t iterations = 0;
  nh::util::Vector x;
  for (auto _ : state) {
    if (warm) {
      x = base;
    } else {
      x.assign(n, 0.0);
    }
    const auto result =
        nh::util::solveConjugateGradient(matrix, bNext, x, options, &workspace);
    iterations = result.iterations;
    benchmark::DoNotOptimize(x);
  }
  state.counters["cg_iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CgWarmStartResolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_JartConduction(benchmark::State& state) {
  const nh::jart::Model model(nh::jart::Params::paperDefaults());
  double n = 1e25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solveConduction(0.525, n, 360.0));
  }
}
BENCHMARK(BM_JartConduction);

void BM_JartAdvancePulse(benchmark::State& state) {
  nh::jart::JartDevice device(nh::jart::Params::paperDefaults(), 300.0);
  device.setCrosstalk(60.0);
  for (auto _ : state) {
    device.advance(0.525, 50e-9);
    if (device.normalisedState() > 0.9) device.setHrs();  // keep mid-window
  }
}
BENCHMARK(BM_JartAdvancePulse);

void BM_FastEnginePulse(benchmark::State& state) {
  nh::xbar::ArrayConfig cfg;
  nh::xbar::CrossbarArray array(cfg);
  array.fill(nh::xbar::CellState::Hrs);
  array.setState(2, 2, nh::xbar::CellState::Lrs);
  nh::xbar::FastEngine engine(array, nh::xbar::AlphaTable::analytic(50e-9));
  const auto bias =
      nh::xbar::selectBias(nh::xbar::BiasScheme::Half, 5, 5, 2, 2, 1.05);
  for (auto _ : state) {
    engine.applyPulse(bias, 50e-9, 50e-9);
    // Reset drifting victims occasionally so the workload stays stationary.
    if (array.cell(2, 1).normalisedState() > 0.5) {
      array.fill(nh::xbar::CellState::Hrs);
      array.setState(2, 2, nh::xbar::CellState::Lrs);
    }
  }
}
BENCHMARK(BM_FastEnginePulse)->Unit(benchmark::kMicrosecond);

/// Toy memristive load for the ladder bench: conductance grows with the
/// time integral of |v| (cheap to evaluate, keeps the circuit nonlinear).
class BenchMemristor final : public nh::spice::MemristiveModel {
 public:
  double current(double v) const override { return g_ * v; }
  void advance(double v, double dt) override {
    g_ += 1e-2 * std::fabs(v) * dt / 1e-9;
  }

 private:
  double g_ = 1e-4;
};

/// Linear SPICE transient of a 40-stage RC ladder (~42 MNA unknowns): with
/// factorisation reuse the Jacobian is factored once per (dt, analysis) and
/// never re-stamped, vs the seed's factor-every-step
/// (arg: 0 = refactor every step, 1 = frozen LU).
void BM_SpiceTransientLinear(benchmark::State& state) {
  using namespace nh::spice;
  constexpr std::size_t kStages = 40;
  for (auto _ : state) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    PulseSpec pulse;
    pulse.base = 0.0;
    pulse.amplitude = 1.0;
    pulse.delay = 5e-9;
    pulse.rise = 0.5e-9;
    pulse.fall = 0.5e-9;
    pulse.width = 30e-9;
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                               std::make_unique<PulseWaveform>(pulse));
    NodeId prev = in;
    for (std::size_t s = 0; s < kStages; ++s) {
      const NodeId node = ckt.node("n" + std::to_string(s));
      ckt.emplace<Resistor>("R" + std::to_string(s), prev, node, 50.0);
      ckt.emplace<Capacitor>("C" + std::to_string(s), node, ckt.ground(), 1e-12);
      prev = node;
    }
    TransientOptions opt;
    opt.tStop = 60e-9;
    opt.dtMax = 0.5e-9;
    opt.newton.reuseFactorization = state.range(0) == 1;
    benchmark::DoNotOptimize(runTransient(ckt, opt));
  }
}
BENCHMARK(BM_SpiceTransientLinear)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// SPICE transient of an 80-stage RC/memristor ladder (~82 MNA unknowns):
/// full Newton, re-stamping and re-factoring on every iteration.
void BM_SpiceTransientNewton(benchmark::State& state) {
  using namespace nh::spice;
  constexpr std::size_t kStages = 80;
  for (auto _ : state) {
    Circuit ckt;
    std::vector<BenchMemristor> models(kStages);
    const NodeId in = ckt.node("in");
    PulseSpec pulse;
    pulse.base = 0.0;
    pulse.amplitude = 1.0;
    pulse.delay = 5e-9;
    pulse.rise = 0.5e-9;
    pulse.fall = 0.5e-9;
    pulse.width = 30e-9;
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                               std::make_unique<PulseWaveform>(pulse));
    NodeId prev = in;
    for (std::size_t s = 0; s < kStages; ++s) {
      const NodeId node = ckt.node("n" + std::to_string(s));
      ckt.emplace<Resistor>("R" + std::to_string(s), prev, node, 50.0);
      ckt.emplace<Memristor>("M" + std::to_string(s), node, ckt.ground(),
                             &models[s]);
      prev = node;
    }
    TransientOptions opt;
    opt.tStop = 60e-9;
    opt.dtMax = 0.5e-9;
    benchmark::DoNotOptimize(runTransient(ckt, opt));
  }
}
BENCHMARK(BM_SpiceTransientNewton)->Unit(benchmark::kMillisecond);

/// The line-network Newton update kernel in isolation (device model
/// evaluation excluded): dense factorisation of the full (rows+cols)
/// Jacobian vs the Schur complement on the bit-line block
/// (arg0: array edge, arg1: 0 = dense, 1 = Schur).
void BM_LineNetworkSolve(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const bool schur = state.range(1) == 1;
  nh::util::Rng rng(7);
  nh::util::Matrix g(m, m);
  nh::util::Vector d1(m, 0.02), d2(m, 0.02);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
      g(r, c) = gc;
      d1[r] += gc;
      d2[c] += gc;
    }
  }
  nh::util::Vector residual(2 * m);
  for (auto& v : residual) v = rng.uniform(-1e-3, 1e-3);

  if (schur) {
    nh::util::SchurComplementSolver solver;
    nh::util::Vector x;
    for (auto _ : state) {
      solver.solve(d1, d2, g, residual, x);
      benchmark::DoNotOptimize(x);
    }
  } else {
    nh::util::Matrix j(2 * m, 2 * m, 0.0);
    for (auto _ : state) {
      j.fill(0.0);
      for (std::size_t i = 0; i < m; ++i) j(i, i) = d1[i];
      for (std::size_t c = 0; c < m; ++c) j(m + c, m + c) = d2[c];
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < m; ++c) {
          j(i, m + c) = -g(i, c);
          j(m + c, i) = -g(i, c);
        }
      }
      benchmark::DoNotOptimize(nh::util::solveDense(j, residual));
    }
  }
}
BENCHMARK(BM_LineNetworkSolve)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMicrosecond);

/// The Schur backends head to head at real part sizes (arg0: array edge,
/// arg1: 0 = seed dense complement, 1 = banded Thomas + dense complement,
/// 2 = matrix-free Jacobi-CG). The dense complement is O(m^3) assembly +
/// factorisation per Newton update; the CG path is O(m^2) per iteration
/// with an iteration count that stays in the tens for these diagonally
/// dominant networks -- the crossover is what makes the 1024x1024
/// scaling_array_size row tractable, and the win is already decisive at
/// 256x256.
void BM_SchurLineSolveLarge(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  nh::util::Rng rng(7);
  nh::util::Matrix g(m, m);
  nh::util::Vector d1(m, 0.02), d2(m, 0.02);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
      g(r, c) = gc;
      d1[r] += gc;
      d2[c] += gc;
    }
  }
  nh::util::Vector residual(2 * m);
  for (auto& v : residual) v = rng.uniform(-1e-3, 1e-3);

  nh::util::SchurComplementSolver solver;
  solver.options().mode = mode == 2 ? nh::util::SchurOptions::Mode::Iterative
                                    : nh::util::SchurOptions::Mode::Dense;
  const auto a1 = nh::util::TridiagonalView::diagonal(d1);
  const auto a2 = nh::util::TridiagonalView::diagonal(d2);
  nh::util::Vector x;
  for (auto _ : state) {
    const bool ok = mode == 0 ? solver.solve(d1, d2, g, residual, x)
                              : solver.solveBanded(a1, a2, g, residual, x);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(x);
  }
  if (mode == 2) {
    state.counters["cg_iterations"] =
        static_cast<double>(solver.lastIterative().iterations);
  }
  state.counters["rows"] = static_cast<double>(2 * m);
}
BENCHMARK(BM_SchurLineSolveLarge)
    ->Args({64, 0})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({512, 0})
    ->Args({512, 2})
    ->Unit(benchmark::kMillisecond);

/// Full-array distributed-line MNA DC solve of an m x m crossbar (arg0:
/// array edge m) through the SPICE engine's dense Jacobian and dense LU. The
/// netlist mirrors xbar::SpiceCrossbar: every line is a chain of per-cell
/// segments, the device at (r, c) bridges word segment (r, c) and bit
/// segment (c, r) -- ~2 m^2 unknowns. The O(n^2) re-stamp and O(n^3)
/// factorisation per Newton iteration bound the oracle to small arrays: at
/// m = 32 (~2.1k unknowns) one solve already takes over half a second,
/// while the circuit-level checks stay at 3x3 to 16x16.
void BM_CrossbarDcMna(benchmark::State& state) {
  using namespace nh::spice;
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Circuit ckt;
  std::vector<BenchMemristor> models(m * m);
  const auto wl = [m](std::size_t r, std::size_t c) {
    return "wl" + std::to_string(r) + "_" + std::to_string(c);
  };
  const auto bl = [m](std::size_t c, std::size_t r) {
    return "bl" + std::to_string(c) + "_" + std::to_string(r);
  };
  for (std::size_t r = 0; r < m; ++r) {
    const NodeId src = ckt.node("vw" + std::to_string(r));
    ckt.emplace<VoltageSource>("Vw" + std::to_string(r), src, ckt.ground(),
                               std::make_unique<DcWaveform>(0.2));
    ckt.emplace<Resistor>("Rwdrv" + std::to_string(r), src,
                          ckt.node(wl(r, 0)), 50.0);
    for (std::size_t c = 0; c + 1 < m; ++c) {
      ckt.emplace<Resistor>("Rw" + std::to_string(r * m + c),
                            ckt.node(wl(r, c)), ckt.node(wl(r, c + 1)), 2.5);
    }
  }
  for (std::size_t c = 0; c < m; ++c) {
    ckt.emplace<Resistor>("Rbdrv" + std::to_string(c), ckt.node(bl(c, 0)),
                          ckt.ground(), 50.0);
    for (std::size_t r = 0; r + 1 < m; ++r) {
      ckt.emplace<Resistor>("Rb" + std::to_string(c * m + r),
                            ckt.node(bl(c, r)), ckt.node(bl(c, r + 1)), 2.5);
    }
  }
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      ckt.emplace<Memristor>("M" + std::to_string(r * m + c),
                             ckt.node(wl(r, c)), ckt.node(bl(c, r)),
                             &models[r * m + c]);
    }
  }
  std::size_t iterations = 0;
  std::size_t unknowns = 0;
  for (auto _ : state) {
    const SolveResult result = solveDc(ckt);
    iterations = result.iterations;
    unknowns = result.x.size();
    benchmark::DoNotOptimize(result.x);
  }
  state.counters["newton_iterations"] = static_cast<double>(iterations);
  state.counters["rows"] = static_cast<double>(unknowns);
}
BENCHMARK(BM_CrossbarDcMna)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_AlphaTableHub(benchmark::State& state) {
  nh::xbar::CrosstalkHub hub(5, 5, nh::xbar::AlphaTable::analytic(50e-9));
  nh::util::Matrix excess(5, 5, 10.0);
  excess(2, 2) = 230.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hub.inputTemperatures(excess));
  }
}
BENCHMARK(BM_AlphaTableHub);

}  // namespace

/// Custom main (instead of benchmark_main): every run also writes the
/// machine-readable perf baseline BENCH_perf_solvers.json (overridable with
/// NH_BENCH_OUT or an explicit --benchmark_out=...), so successive PRs have
/// a kernel-cost trajectory to compare against.
///
/// The JSON's own context.library_build_type describes the *installed
/// libbenchmark*, not this code -- a Release nh linked against a Debian
/// debug libbenchmark reports "debug" there, which mislabelled the perf
/// trajectory. nh_build_type records how the nh kernels themselves were
/// compiled (CMAKE_BUILD_TYPE, with an NDEBUG-derived fallback).
int main(int argc, char** argv) {
#ifdef NH_BUILD_TYPE
  const char* nhBuildType = NH_BUILD_TYPE[0] != '\0' ? NH_BUILD_TYPE : nullptr;
#else
  const char* nhBuildType = nullptr;
#endif
  if (nhBuildType == nullptr) {
#ifdef NDEBUG
    nhBuildType = "release(ndebug)";
#else
    nhBuildType = "debug(assertions)";
#endif
  }
  benchmark::AddCustomContext("nh_build_type", nhBuildType);
  // Which SpMV row kernel the dispatcher picked on this machine ("avx2" or
  // "scalar") -- the BM_SpMvSimd* arg-1 arms measure this kernel.
  benchmark::AddCustomContext("spmv_kernel",
                              nh::util::spmv::activeKernelName());
  std::vector<std::string> args(argv, argv + argc);
  bool hasOut = false;
  bool hasFormat = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--benchmark_out=", 0) == 0) hasOut = true;
    if (arg.rfind("--benchmark_out_format=", 0) == 0) hasFormat = true;
  }
  if (!hasOut) {
    const char* out = std::getenv("NH_BENCH_OUT");
    args.push_back(std::string("--benchmark_out=") +
                   (out ? out : "BENCH_perf_solvers.json"));
  }
  if (!hasFormat) args.push_back("--benchmark_out_format=json");

  std::vector<char*> rewritten;
  rewritten.reserve(args.size());
  for (std::string& arg : args) rewritten.push_back(arg.data());
  int rewrittenCount = static_cast<int>(rewritten.size());
  benchmark::Initialize(&rewrittenCount, rewritten.data());
  if (benchmark::ReportUnrecognizedArguments(rewrittenCount, rewritten.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
