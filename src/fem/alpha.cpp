#include "fem/alpha.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nh::fem {

namespace {

/// Shared regression step: given powers and temperature matrices, fit Eq. 3
/// on the selected cell and Eq. 4 on every other cell.
void fitAlphas(AlphaResult& result) {
  const std::size_t rows = result.temperatureMatrices.front().rows();
  const std::size_t cols = result.temperatureMatrices.front().cols();

  std::vector<double> tSelected;
  tSelected.reserve(result.powers.size());
  for (const auto& tm : result.temperatureMatrices) {
    tSelected.push_back(tm(result.selectedRow, result.selectedCol));
  }
  const nh::util::LinearFit rthFit = nh::util::fitLinear(result.powers, tSelected);
  result.rTh = rthFit.slope;
  result.rThRSquared = rthFit.rSquared;

  result.alpha.resize(rows, cols, 0.0);
  result.alphaRSquared.resize(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r == result.selectedRow && c == result.selectedCol) {
        result.alpha(r, c) = 1.0;
        result.alphaRSquared(r, c) = rthFit.rSquared;
        continue;
      }
      std::vector<double> tCell;
      tCell.reserve(result.powers.size());
      for (const auto& tm : result.temperatureMatrices) tCell.push_back(tm(r, c));
      const nh::util::LinearFit fit = nh::util::fitLinear(result.powers, tCell);
      // Eq. 4: Tij = T0 + Rth * P * alpha_ij  ->  alpha_ij = slope_ij / Rth.
      result.alpha(r, c) = result.rTh != 0.0 ? fit.slope / result.rTh : 0.0;
      result.alphaRSquared(r, c) = fit.rSquared;
    }
  }
}

/// The power list must support the Eq. 3 regression before any solve runs:
/// finite, non-negative values (solveThermal rejects negative power), at
/// least two points, and at least two distinct values.
void validatePowers(const std::vector<double>& powers) {
  if (powers.size() < 2) {
    throw std::invalid_argument("extractAlpha: need >= 2 power points");
  }
  for (const double p : powers) {
    if (!std::isfinite(p) || p < 0.0) {
      throw std::invalid_argument("extractAlpha: powers must be finite and >= 0");
    }
  }
  if (std::all_of(powers.begin(), powers.end(),
                  [&](double p) { return p == powers.front(); })) {
    throw std::invalid_argument("extractAlpha: need at least two distinct powers");
  }
}

}  // namespace

nh::util::Matrix AlphaResult::predictTemperatures(double p) const {
  nh::util::Matrix out(alpha.rows(), alpha.cols(), ambientK);
  for (std::size_t r = 0; r < alpha.rows(); ++r) {
    for (std::size_t c = 0; c < alpha.cols(); ++c) {
      out(r, c) = ambientK + rTh * p * alpha(r, c);
    }
  }
  return out;
}

AlphaResult extractAlpha(const CrossbarModel3D& model,
                         const MaterialTable& materials, std::size_t selectedRow,
                         std::size_t selectedCol, const std::vector<double>& powers,
                         double ambientK, const DiffusionOptions& options) {
  const auto& layout = model.layout();
  if (selectedRow >= layout.rows || selectedCol >= layout.cols) {
    throw std::out_of_range("extractAlpha: selected cell out of range");
  }
  validatePowers(powers);
  if (!std::isfinite(ambientK)) {
    throw std::invalid_argument("extractAlpha: ambient temperature must be finite");
  }

  AlphaResult result;
  result.selectedRow = selectedRow;
  result.selectedCol = selectedCol;
  result.ambientK = ambientK;
  result.powers = powers;

  // A centre-heated symmetric model solves its mirror quadrant; anything
  // else solves the full model.
  const auto quadrant = MirrorQuadrant::detect(model, selectedRow, selectedCol);
  result.solvedVoxels =
      quadrant ? quadrant->grid().voxelCount() : model.grid().voxelCount();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.materials = materials;
  scenario.ambientK = ambientK;
  scenario.cellPower = nh::util::Matrix(layout.rows, layout.cols, 0.0);

  std::vector<double> guess;
  // One solver for the whole power sweep: the FV assembly is symbolic-phased
  // once and every later power point only refills values.
  ThermalSolver solver;
  for (std::size_t i = 0; i < powers.size(); ++i) {
    const double p = powers[i];
    const std::vector<double>* start = guess.empty() ? nullptr : &guess;
    scenario.cellPower(selectedRow, selectedCol) = p;
    const ThermalSolution sol =
        quadrant ? solver.solve(*quadrant, materials, ambientK, p, options, start)
                 : solver.solve(scenario, options, start);
    if (!sol.converged()) {
      throw std::runtime_error("extractAlpha: thermal solve did not converge");
    }
    result.cgIterations.push_back(sol.stats.iterations);
    result.temperatureMatrices.push_back(sol.cellTemperature);

    // Warm start for the next point. The rise over ambient is linear in the
    // power, so scaling this point's rise predicts the next field to within
    // this point's CG tolerance. The next point still runs CG to relTol on
    // its own system; a zero power has no rise to scale and hands over its
    // field as is.
    guess = sol.temperature;
    if (i + 1 < powers.size() && p != 0.0) {
      const double scale = powers[i + 1] / p;
      for (double& t : guess) t = ambientK + scale * (t - ambientK);
    }
  }

  fitAlphas(result);
  return result;
}

AlphaResult extractCentreAlpha(const CrossbarLayout& layout, double ambientK,
                               const DiffusionOptions& options) {
  const auto model = CrossbarModel3D::build(layout);
  return extractAlpha(model, MaterialTable::defaults(), layout.rows / 2,
                      layout.cols / 2, {0.05e-3, 0.10e-3, 0.15e-3}, ambientK,
                      options);
}

AlphaResult extractAlphaCoupled(const CrossbarModel3D& model,
                                const MaterialTable& materials,
                                std::size_t selectedRow, std::size_t selectedCol,
                                const std::vector<double>& setVoltages,
                                double lrsSigma, double hrsSigma, double ambientK,
                                const DiffusionOptions& options) {
  const auto& layout = model.layout();
  if (selectedRow >= layout.rows || selectedCol >= layout.cols) {
    throw std::out_of_range("extractAlphaCoupled: selected cell out of range");
  }
  if (setVoltages.size() < 2) {
    throw std::invalid_argument("extractAlphaCoupled: need >= 2 voltage points");
  }

  AlphaResult result;
  result.selectedRow = selectedRow;
  result.selectedCol = selectedCol;
  result.ambientK = ambientK;
  result.solvedVoxels = model.grid().voxelCount();

  // Shared solver: both diffusion systems (potential + heat) keep their
  // cached assemblies across the voltage sweep, and each voltage point
  // warm-starts its CG iterations from the previous point's fields. The
  // sweep is a single serial chain, so results are independent of any
  // caller-side threading.
  CoupledSolver solver;
  CoupledSolution previous;
  bool havePrevious = false;
  for (const double vSet : setVoltages) {
    CoupledScenario scenario;
    scenario.model = &model;
    scenario.materials = materials;
    scenario.ambientK = ambientK;
    // V/2 scheme: selected word line at V, selected bit line at 0, all other
    // lines at V/2 (paper Sec. V).
    scenario.wordLineVoltage.assign(layout.rows, vSet / 2.0);
    scenario.bitLineVoltage.assign(layout.cols, vSet / 2.0);
    scenario.wordLineVoltage[selectedRow] = vSet;
    scenario.bitLineVoltage[selectedCol] = 0.0;
    // Selected cell in LRS ("switched to LRS to maximize the resulting
    // current"), every other cell HRS.
    scenario.cellSigma = nh::util::Matrix(layout.rows, layout.cols, hrsSigma);
    scenario.cellSigma(selectedRow, selectedCol) = lrsSigma;

    CoupledSolution sol =
        solver.solve(scenario, options, havePrevious ? &previous : nullptr);
    if (!sol.converged()) {
      throw std::runtime_error("extractAlphaCoupled: solve did not converge");
    }
    result.powers.push_back(sol.cellPower(selectedRow, selectedCol));
    result.cgIterations.push_back(sol.thermalStats.iterations);
    result.temperatureMatrices.push_back(sol.cellTemperature);
    previous = std::move(sol);
    havePrevious = true;
  }

  fitAlphas(result);
  return result;
}

}  // namespace nh::fem
