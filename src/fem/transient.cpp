#include "fem/transient.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/linsolve.hpp"

namespace nh::fem {

HeatCapacityTable HeatCapacityTable::defaults() {
  HeatCapacityTable t;
  const auto set = [&t](Material m, double v) {
    t.values[static_cast<std::size_t>(m)] = v;
  };
  // rho * c_p [J m^-3 K^-1], thin-film literature values.
  set(Material::SiSubstrate, 1.63e6);    // 2330 * 700
  set(Material::SiO2, 1.63e6);           // 2200 * 740
  set(Material::Electrode, 2.85e6);      // Pt: 21450 * 133
  set(Material::SwitchingOxide, 2.7e6);  // HfO2: 9680 * 280
  set(Material::Filament, 2.7e6);        // oxide-like
  return t;
}

double HeatCapacityTable::capacity(Material m) const {
  const auto i = static_cast<std::size_t>(m);
  if (i >= static_cast<std::size_t>(Material::Count)) {
    throw std::out_of_range("HeatCapacityTable::capacity");
  }
  return values[i];
}

double TransientSolution::riseTimeConstant(std::size_t index) const {
  if (index >= cellTemperature.size() || time.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto& series = cellTemperature[index];
  const double start = series.front();
  const double final = series.back();
  const double mark = start + (final - start) * 0.632;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if ((series[i - 1] < mark && series[i] >= mark) ||
        (series[i - 1] > mark && series[i] <= mark)) {
      // Linear interpolation between samples.
      const double f = (mark - series[i - 1]) / (series[i] - series[i - 1]);
      return time[i - 1] + f * (time[i] - time[i - 1]);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

/// Bound on ceil(tStop / dt), far above any useful march and well inside
/// what std::size_t holds exactly.
constexpr double kMaxSteps = 1e9;

void validateScenario(const TransientScenario& scenario) {
  if (scenario.model == nullptr) {
    throw std::invalid_argument("solveThermalStep: null model");
  }
  if (!(scenario.dt > 0.0) || !(scenario.tStop > scenario.dt) ||
      !std::isfinite(scenario.tStop)) {
    throw std::invalid_argument("solveThermalStep: need 0 < dt < tStop < inf");
  }
  if (!(std::ceil(scenario.tStop / scenario.dt) <= kMaxSteps)) {
    throw std::invalid_argument("solveThermalStep: tStop / dt exceeds the step limit");
  }
  if (!std::isfinite(scenario.power) || scenario.power < 0.0) {
    throw std::invalid_argument("solveThermalStep: power must be finite and >= 0");
  }
  if (!std::isfinite(scenario.ambientK)) {
    throw std::invalid_argument("solveThermalStep: ambient temperature must be finite");
  }
  const auto& layout = scenario.model->layout();
  if (scenario.heatedRow >= layout.rows || scenario.heatedCol >= layout.cols) {
    throw std::out_of_range("solveThermalStep: heated cell out of range");
  }
}

/// The recorded cells: the heated one and its three characteristic
/// neighbours, where they exist.
std::vector<std::pair<std::size_t, std::size_t>> observedCells(
    const TransientScenario& scenario, std::vector<std::string>& labels) {
  const auto& layout = scenario.model->layout();
  const std::size_t r = scenario.heatedRow;
  const std::size_t c = scenario.heatedCol;
  std::vector<std::pair<std::size_t, std::size_t>> observed;
  observed.emplace_back(r, c);
  labels.push_back("heated");
  if (c + 1 < layout.cols) {
    observed.emplace_back(r, c + 1);
    labels.push_back("word-line neighbour");
  }
  if (r + 1 < layout.rows) {
    observed.emplace_back(r + 1, c);
    labels.push_back("bit-line neighbour");
  }
  if (r + 1 < layout.rows && c + 1 < layout.cols) {
    observed.emplace_back(r + 1, c + 1);
    labels.push_back("diagonal neighbour");
  }
  return observed;
}

}  // namespace

struct ThermalTransientSolver::State {
  // Structural cache key: the FV adjacency is a pure function of the grid
  // dimensions (a pointer would falsely match a different grid reusing the
  // same address; voxelCount alone would match permuted dimensions).
  std::size_t nx = 0, ny = 0, nz = 0;
  nh::util::TripletBuilder builder{0, 0};
  nh::util::SparsityPattern pattern;
  nh::util::SparseMatrix matrix;
  nh::util::Vector kappa, cOverDt, steadyRhs, temperature, previous, rhs;
  nh::util::CgWorkspace cg;

  /// March the step response on \p grid with the per-voxel heat \p source,
  /// recording the mean temperature over each of \p observed's voxel sets.
  TransientSolution march(const VoxelGrid& grid, const TransientScenario& scenario,
                          const std::vector<double>& source,
                          const std::vector<const std::vector<std::size_t>*>& observed,
                          const DiffusionOptions& options);
};

TransientSolution ThermalTransientSolver::State::march(
    const VoxelGrid& grid, const TransientScenario& scenario,
    const std::vector<double>& source,
    const std::vector<const std::vector<std::size_t>*>& observed,
    const DiffusionOptions& options) {
  const std::size_t n = grid.voxelCount();
  const double h = grid.voxelSize();
  const double voxelVolume = h * h * h;

  // Assemble the steady FV operator A (same stamps as solveDiffusion, no
  // pinned voxels; Dirichlet bottom plane) plus the capacity lump C/dt. The
  // stamp sequence is fixed by the grid, so a repeated run refills the
  // cached CSR structure in O(nnz) without sorting or allocating.
  kappa.resize(n);
  cOverDt.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Material m = grid.material(v);
    kappa[v] = scenario.materials.kappa(m);
    cOverDt[v] = scenario.capacities.capacity(m) * voxelVolume / scenario.dt;
  }

  const bool reuseStructure = nx == grid.nx() && ny == grid.ny() && nz == grid.nz();
  if (!reuseStructure || builder.rows() != n) {
    builder = nh::util::TripletBuilder(n, n);
  } else {
    builder.clear();
  }
  steadyRhs.assign(n, 0.0);
  const auto faceCoefficient = [](double a, double b) {
    return (a <= 0.0 || b <= 0.0) ? 0.0 : 2.0 * a * b / (a + b);
  };
  for (std::size_t k = 0; k < grid.nz(); ++k) {
    for (std::size_t j = 0; j < grid.ny(); ++j) {
      for (std::size_t i = 0; i < grid.nx(); ++i) {
        const std::size_t v = grid.index(i, j, k);
        double diag = cOverDt[v];
        // Zero-conductance faces are stamped too (explicit zeros), keeping
        // the structure a function of the grid alone.
        const auto visit = [&](std::size_t nv) {
          const double g = faceCoefficient(kappa[v], kappa[nv]) * h;
          diag += g;
          builder.add(v, nv, -g);
        };
        if (i > 0) visit(grid.index(i - 1, j, k));
        if (i + 1 < grid.nx()) visit(grid.index(i + 1, j, k));
        if (j > 0) visit(grid.index(i, j - 1, k));
        if (j + 1 < grid.ny()) visit(grid.index(i, j + 1, k));
        if (k > 0) visit(grid.index(i, j, k - 1));
        if (k + 1 < grid.nz()) visit(grid.index(i, j, k + 1));
        if (k == 0) {  // Dirichlet ambient at the substrate bottom
          const double g = 2.0 * kappa[v] * h;
          diag += g;
          steadyRhs[v] += g * scenario.ambientK;
        }
        builder.add(v, v, diag);
      }
    }
  }
  if (!reuseStructure) {
    pattern = nh::util::SparsityPattern::fromTriplets(builder);
    nx = grid.nx();
    ny = grid.ny();
    nz = grid.nz();
  }
  pattern.assemble(builder, matrix);

  TransientSolution out;
  out.solvedVoxels = n;
  out.cellTemperature.assign(observed.size(), {});

  // March: (C/dt + A) T_new = C/dt T_old + q + dirichletRhs. The operator is
  // frozen for the whole march, so the preconditioner (IC(0) by default) is
  // computed on the first step and reused afterwards; the CG scratch lives
  // in the persistent workspace.
  temperature.assign(n, scenario.ambientK);
  previous.resize(n);
  rhs.resize(n);
  const auto steps =
      static_cast<std::size_t>(std::ceil(scenario.tStop / scenario.dt));
  out.converged = true;
  const auto record = [&](double t) {
    out.time.push_back(t);
    for (std::size_t si = 0; si < observed.size(); ++si) {
      double acc = 0.0;
      for (const std::size_t v : *observed[si]) acc += temperature[v];
      out.cellTemperature[si].push_back(acc / static_cast<double>(observed[si]->size()));
    }
  };
  record(0.0);
  // The transient operator always covers the whole structured grid, so the
  // multigrid auto-upgrade applies exactly as in DiffusionSolver; with the
  // operator frozen across steps the hierarchy is built only once.
  nh::util::CgOptions cgOptions = toCgOptions(options, grid.nx(), grid.ny(), grid.nz());
  for (std::size_t step = 1; step <= steps; ++step) {
    for (std::size_t v = 0; v < n; ++v) {
      rhs[v] = cOverDt[v] * temperature[v] + source[v] + steadyRhs[v];
    }
    // Initial guess: the linear extrapolation 2 T_n - T_{n-1} (T_n on the
    // first step). CG still runs to relTol on every step.
    if (step > 1) {
      for (std::size_t v = 0; v < n; ++v) {
        const double t = temperature[v];
        temperature[v] = 2.0 * t - previous[v];
        previous[v] = t;
      }
    } else {
      previous = temperature;
    }
    const auto stats =
        nh::util::solveConjugateGradient(matrix, rhs, temperature, cgOptions, &cg);
    cgOptions.reusePreconditioner = true;  // operator frozen across steps
    out.cgIterations.push_back(stats.iterations);
    if (!stats.converged) {
      out.converged = false;
      break;
    }
    record(static_cast<double>(step) * scenario.dt);
  }
  return out;
}

ThermalTransientSolver::ThermalTransientSolver() : state_(std::make_unique<State>()) {}
ThermalTransientSolver::~ThermalTransientSolver() = default;
ThermalTransientSolver::ThermalTransientSolver(ThermalTransientSolver&&) noexcept =
    default;
ThermalTransientSolver& ThermalTransientSolver::operator=(
    ThermalTransientSolver&&) noexcept = default;

TransientSolution ThermalTransientSolver::solve(const TransientScenario& scenario,
                                                const DiffusionOptions& options) {
  validateScenario(scenario);
  const CrossbarModel3D& model = *scenario.model;
  const auto& heated = model.cell(scenario.heatedRow, scenario.heatedCol);
  std::vector<double> source(model.grid().voxelCount(), 0.0);
  const double perVoxel =
      scenario.power / static_cast<double>(heated.filamentVoxels.size());
  for (const std::size_t v : heated.filamentVoxels) source[v] += perVoxel;

  std::vector<std::string> labels;
  std::vector<const std::vector<std::size_t>*> observed;
  for (const auto& [r, c] : observedCells(scenario, labels)) {
    observed.push_back(&model.cell(r, c).filamentVoxels);
  }
  TransientSolution out =
      state_->march(model.grid(), scenario, source, observed, options);
  out.cellLabels = std::move(labels);
  return out;
}

TransientSolution ThermalTransientSolver::solve(const MirrorQuadrant& quadrant,
                                                const TransientScenario& scenario,
                                                const DiffusionOptions& options) {
  validateScenario(scenario);
  std::vector<std::string> labels;
  std::vector<const std::vector<std::size_t>*> observed;
  for (const auto& [r, c] : observedCells(scenario, labels)) {
    observed.push_back(&quadrant.cellVoxels(r, c));
  }
  TransientSolution out = state_->march(quadrant.grid(), scenario,
                                        quadrant.heatSource(scenario.power), observed,
                                        MirrorQuadrant::solveOptions(options));
  out.cellLabels = std::move(labels);
  return out;
}

TransientSolution solveThermalStep(const TransientScenario& scenario,
                                   const DiffusionOptions& options) {
  validateScenario(scenario);
  ThermalTransientSolver solver;
  const auto quadrant = MirrorQuadrant::detect(*scenario.model, scenario.heatedRow,
                                               scenario.heatedCol);
  return quadrant ? solver.solve(*quadrant, scenario, options)
                  : solver.solve(scenario, options);
}

}  // namespace nh::fem
