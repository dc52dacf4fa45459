#include "xbar/linenet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/threadpool.hpp"
#include "xbar/fastsim.hpp"

namespace nh::xbar {

bool LineSolveResult::converged() const {
  return !capHit && std::isfinite(lastStep);
}

double contractionErrorEstimate(double step, double prevStep) {
  const double none = std::numeric_limits<double>::infinity();
  if (!(prevStep > 0.0) || !std::isfinite(prevStep)) return none;
  const double theta = step / prevStep;
  // Negated so a NaN rate counts as no contraction.
  if (!(theta < 1.0)) return none;
  return theta / (1.0 - theta) * step;
}

LineSolveResult LineNetworkSolver::solve(const CrossbarArray& array,
                                         const LineDrivers& drivers,
                                         const FastEngineOptions& options,
                                         nh::util::Vector& voltages) {
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  const std::size_t n = rows + cols;
  if (drivers.level.size() != n || drivers.conductance.size() != n) {
    throw std::invalid_argument("LineNetworkSolver: driver shape mismatch");
  }

  LineSolveResult result;
  // All drivers at 0 V: with every line at +0.0 each cell sees 0 V and
  // carries exactly zero current, so the residual and the update are zero.
  if (std::all_of(drivers.level.begin(), drivers.level.end(),
                  [](double v) { return v == 0.0; })) {
    voltages.assign(n, 0.0);
    return result;
  }

  // Start from the driver levels: the previous solution can belong to a
  // very different bias (e.g. after a scheme change).
  voltages = drivers.level;
  if (gMat_.rows() != rows || gMat_.cols() != cols) gMat_.resize(rows, cols, 0.0);
  dRow_.resize(rows);
  dCol_.resize(cols);
  residual_.resize(n);
  delta_.resize(n);
  cellCurrent_.resize(rows * cols);
  rowNonConverged_.resize(rows);

  double prevStep = 0.0;  // none before the first iteration
  for (std::size_t iter = 0; iter < options.maxNewtonIterations; ++iter) {
    result.conductionNonConverged += fillJacobian(array, drivers, voltages);
    solveUpdate(options);

    double maxStep = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::clamp(delta_[i], -0.5, 0.5);
      voltages[i] -= d;
      // std::max drops a NaN second argument; keep it so the guard sees it.
      maxStep = std::isnan(d) ? d : std::max(maxStep, std::fabs(d));
    }
    ++result.newtonIterations;
    result.lastStep = maxStep;
    result.errorEstimate = std::min(maxStep, contractionErrorEstimate(maxStep, prevStep));
    // NaN/Inf guard: std::clamp passes NaN through, so a poisoned solve
    // would otherwise iterate to the cap and leave NaN line voltages behind.
    if (!std::isfinite(maxStep) || result.errorEstimate < options.newtonTol) {
      return result;
    }
    prevStep = maxStep;
  }
  result.capHit = true;
  return result;
}

std::size_t LineNetworkSolver::fillJacobian(const CrossbarArray& array,
                                            const LineDrivers& drivers,
                                            const nh::util::Vector& voltages) {
  // A word line's residual and diagonal sum its own cells in column order,
  // so row blocks fill them independently.
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  const nh::util::Vector& level = drivers.level;
  const nh::util::Vector& gDrv = drivers.conductance;
  nh::util::forBlocks(rows, (kParallelMinCells + cols - 1) / cols,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double res = 0.0;
      res += gDrv[r] * (voltages[r] - level[r]);
      double diag = gDrv[r];
      std::size_t nonConverged = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double v = voltages[r] - voltages[rows + c];
        const nh::spice::CurrentAndConductance e = array.cell(r, c).evaluate(v);
        if (!e.converged) ++nonConverged;
        double g = e.conductance;
        if (!(g > 0.0)) g = 1e-12;
        res += e.current;
        diag += g;
        cellCurrent_[r * cols + c] = e.current;
        gMat_(r, c) = g;
      }
      residual_[r] = res;
      dRow_[r] = diag;
      rowNonConverged_[r] = nonConverged;
    }
  });
  // A bit line sums over rows: one serial pass in row order, the order of
  // the row-by-row serial fill.
  for (std::size_t c = 0; c < cols; ++c) {
    double res = 0.0;
    res += gDrv[rows + c] * (voltages[rows + c] - level[rows + c]);
    residual_[rows + c] = res;
    dCol_[c] = gDrv[rows + c];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      residual_[rows + c] -= cellCurrent_[r * cols + c];
      dCol_[c] += gMat_(r, c);
    }
  }
  std::size_t nonConverged = 0;
  for (const std::size_t k : rowNonConverged_) nonConverged += k;
  return nonConverged;
}

void LineNetworkSolver::solveUpdate(const FastEngineOptions& options) {
  // The bipartite block system costs O(rows*cols^2) through the dense Schur
  // complement instead of the O((rows+cols)^3) dense factorisation; from
  // schurIterativeMinCols bit lines the matrix-free CG complement drops that
  // to O(rows*cols) per iteration.
  using SchurMode = FastEngineOptions::SchurMode;
  const bool iterative =
      options.schurMode == SchurMode::Iterative ||
      (options.schurMode == SchurMode::Auto &&
       dCol_.size() >= options.schurIterativeMinCols);
  bool ok = false;
  if (iterative) {
    schurSolver_.options().mode = nh::util::SchurOptions::Mode::Iterative;
    ok = schurSolver_.solveBanded(nh::util::TridiagonalView::diagonal(dRow_),
                                  nh::util::TridiagonalView::diagonal(dCol_),
                                  gMat_, residual_, delta_);
  } else {
    ok = schurSolver_.solve(dRow_, dCol_, gMat_, residual_, delta_);
  }
  if (!ok) {
    // The iterative path carries CG diagnostics; the dense path reports a
    // plain singular factorisation (iterations/residual stay zero).
    const nh::util::IterativeResult& cg = schurSolver_.lastIterative();
    throw nh::util::SolverError(
        "linenet.schur",
        cg.iterations > 0 ? "line-network Schur CG did not converge"
                          : "singular line-network Schur complement",
        cg.iterations, cg.residualNorm);
  }
}

}  // namespace nh::xbar
