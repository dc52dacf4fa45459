#include "fem/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nh::fem {

namespace {

nh::util::Matrix cellAverages(const CrossbarModel3D& model,
                              const std::vector<double>& field) {
  const auto& layout = model.layout();
  nh::util::Matrix out(layout.rows, layout.cols, 0.0);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      out(r, c) = model.cellAverage(field, r, c);
    }
  }
  return out;
}

void validateAmbient(double ambientK) {
  if (!std::isfinite(ambientK)) {
    throw std::invalid_argument("solveThermal: ambient temperature must be finite");
  }
}

void validatePower(double power) {
  if (!std::isfinite(power) || power < 0.0) {
    throw std::invalid_argument("solveThermal: cell power must be finite and >= 0");
  }
}

/// The heat problem every thermal solve shares: kappa per voxel, insulated
/// sides and top, the substrate bottom held at ambient, and no source yet.
void setUpHeatProblem(DiffusionProblem& problem, const VoxelGrid& grid,
                      const MaterialTable& materials, double ambientK) {
  problem.grid = &grid;
  problem.coefficient.resize(grid.voxelCount());
  for (std::size_t v = 0; v < grid.voxelCount(); ++v) {
    problem.coefficient[v] = materials.kappa(grid.material(v));
  }
  problem.bottomPlaneDirichlet = true;
  problem.bottomPlaneValue = ambientK;
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
}

}  // namespace

ThermalSolution ThermalSolver::solve(const ThermalScenario& scenario,
                                     const DiffusionOptions& options,
                                     const std::vector<double>* initialGuess) {
  if (scenario.model == nullptr) throw std::invalid_argument("solveThermal: null model");
  const CrossbarModel3D& model = *scenario.model;
  const auto& layout = model.layout();
  if (scenario.cellPower.rows() != layout.rows ||
      scenario.cellPower.cols() != layout.cols) {
    throw std::invalid_argument("solveThermal: cellPower shape mismatch");
  }

  validateAmbient(scenario.ambientK);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) validatePower(scenario.cellPower(r, c));
  }

  setUpHeatProblem(problem_, model.grid(), scenario.materials, scenario.ambientK);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const double p = scenario.cellPower(r, c);
      if (p == 0.0) continue;
      const auto& voxels = model.cell(r, c).filamentVoxels;
      const double perVoxel = p / static_cast<double>(voxels.size());
      for (const std::size_t v : voxels) problem_.sourcePerVoxel[v] += perVoxel;
    }
  }

  const DiffusionSolution sol = diffusion_.solve(problem_, options, initialGuess);

  ThermalSolution out;
  out.temperature = sol.field;
  out.stats = sol.stats;
  out.cellTemperature = cellAverages(model, sol.field);
  return out;
}

ThermalSolution ThermalSolver::solve(const MirrorQuadrant& quadrant,
                                     const MaterialTable& materials, double ambientK,
                                     double power, const DiffusionOptions& options,
                                     const std::vector<double>* initialGuess) {
  validateAmbient(ambientK);
  validatePower(power);
  setUpHeatProblem(problem_, quadrant.grid(), materials, ambientK);
  problem_.sourcePerVoxel = quadrant.heatSource(power);

  DiffusionSolution sol =
      diffusion_.solve(problem_, MirrorQuadrant::solveOptions(options), initialGuess);

  ThermalSolution out;
  out.cellTemperature = quadrant.cellTemperatures(sol.field);
  out.temperature = std::move(sol.field);
  out.stats = sol.stats;
  return out;
}

ThermalSolution solveThermal(const ThermalScenario& scenario,
                             const DiffusionOptions& options,
                             const std::vector<double>* initialGuess) {
  ThermalSolver solver;
  return solver.solve(scenario, options, initialGuess);
}

CoupledSolution CoupledSolver::solve(const CoupledScenario& scenario,
                                     const DiffusionOptions& options,
                                     const CoupledSolution* warmStart) {
  if (scenario.model == nullptr) throw std::invalid_argument("solveCoupled: null model");
  const CrossbarModel3D& model = *scenario.model;
  const auto& layout = model.layout();
  const VoxelGrid& grid = model.grid();
  if (scenario.wordLineVoltage.size() != layout.rows ||
      scenario.bitLineVoltage.size() != layout.cols) {
    throw std::invalid_argument("solveCoupled: line voltage size mismatch");
  }
  if (scenario.cellSigma.rows() != layout.rows ||
      scenario.cellSigma.cols() != layout.cols) {
    throw std::invalid_argument("solveCoupled: cellSigma shape mismatch");
  }

  // ---- potential solve (Eq. 2) ---------------------------------------------
  electric_.grid = &grid;
  electric_.coefficient.assign(grid.voxelCount(), 0.0);
  double sigmaMax = 0.0;
  for (std::size_t v = 0; v < grid.voxelCount(); ++v) {
    electric_.coefficient[v] = scenario.materials.sigma(grid.material(v));
    sigmaMax = std::max(sigmaMax, electric_.coefficient[v]);
  }
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const double s = scenario.cellSigma(r, c);
      if (!(s > 0.0)) throw std::invalid_argument("solveCoupled: cellSigma must be > 0");
      sigmaMax = std::max(sigmaMax, s);
      for (const std::size_t v : model.cell(r, c).filamentVoxels) {
        electric_.coefficient[v] = s;
      }
    }
  }
  // Conductivity floor bounds the condition number (see header).
  const double sigmaFloor = sigmaMax * scenario.sigmaFloorRatio;
  for (auto& s : electric_.coefficient) s = std::max(s, sigmaFloor);

  // Ideal line drivers: pin every electrode voxel at its line voltage. The
  // pin *sequence* is identical for every solve on this model, so the cached
  // assembly structure stays valid across voltage sweeps.
  electric_.pins.clear();
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (const std::size_t v : model.wordLineVoxels(r)) {
      electric_.pins.push_back({v, scenario.wordLineVoltage[r]});
    }
  }
  for (std::size_t c = 0; c < layout.cols; ++c) {
    for (const std::size_t v : model.bitLineVoxels(c)) {
      electric_.pins.push_back({v, scenario.bitLineVoltage[c]});
    }
  }

  const DiffusionSolution phi = electricSolver_.solve(
      electric_, options,
      warmStart != nullptr && warmStart->potential.size() == grid.voxelCount()
          ? &warmStart->potential
          : nullptr);
  const std::vector<double> joule = phi.dissipationPerVoxel(electric_);

  // ---- heat solve (Eq. 1) -----------------------------------------------------
  setUpHeatProblem(heat_, grid, scenario.materials, scenario.ambientK);
  // Filament kappa from Wiedemann-Franz at ambient (per-cell sigma).
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const double kWf = MaterialTable::wiedemannFranz(scenario.cellSigma(r, c),
                                                       scenario.ambientK);
      const double kBase = scenario.materials.kappa(Material::Filament);
      for (const std::size_t v : model.cell(r, c).filamentVoxels) {
        heat_.coefficient[v] = std::max(kBase, kWf);
      }
    }
  }
  heat_.sourcePerVoxel = joule;

  const DiffusionSolution temp = heatSolver_.solve(
      heat_, options,
      warmStart != nullptr && warmStart->temperature.size() == grid.voxelCount()
          ? &warmStart->temperature
          : nullptr);

  CoupledSolution out;
  out.potential = phi.field;
  out.temperature = temp.field;
  out.potentialStats = phi.stats;
  out.thermalStats = temp.stats;
  out.cellTemperature = nh::util::Matrix(layout.rows, layout.cols, 0.0);
  out.cellPower = nh::util::Matrix(layout.rows, layout.cols, 0.0);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      out.cellTemperature(r, c) = model.cellAverage(temp.field, r, c);
    }
  }
  // Attribute Joule power to cells: sum over each cell's oxide column
  // (filament voxels plus the oxide immediately around them carry the
  // current between the pinned electrodes).
  for (double p : joule) out.totalPower += p;
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      double acc = 0.0;
      for (const std::size_t v : model.cell(r, c).filamentVoxels) acc += joule[v];
      out.cellPower(r, c) = acc;
    }
  }
  return out;
}

CoupledSolution solveCoupled(const CoupledScenario& scenario,
                             const DiffusionOptions& options) {
  CoupledSolver solver;
  return solver.solve(scenario, options);
}

}  // namespace nh::fem
