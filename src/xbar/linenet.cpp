#include "xbar/linenet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/threadpool.hpp"
#include "util/units.hpp"
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

void QuiescentCells::setBudgets(const CrossbarArray& array, const LineDrivers& drivers,
                                double newtonTol) {
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  if (rows_.size() != rows || cols_ != cols) {
    rows_.assign(rows, {});
    cols_ = cols;
  }
  rowBudget_.resize(rows);
  colBudget_.resize(cols);
  // A word line carries cols cells, a bit line rows cells.
  double maxBudget = 0.0;
  for (std::size_t i = 0; i < rows + cols; ++i) {
    const double cells = static_cast<double>(i < rows ? cols : rows);
    const double b = kQuiescentBudgetFraction * newtonTol * drivers.conductance[i] / cells;
    (i < rows ? rowBudget_[i] : colBudget_[i - rows]) = b > 0.0 ? b : 0.0;
    maxBudget = std::max(maxBudget, b);
  }
  const jart::JartDevice& ref = array.cell(0, 0);
  const double kappa =
      ref.model().zeroBias(ref.model().params().nDiscMin, ref.ambient()).curvature;
  // A cell with at least a quarter of the reference (deep HRS at ambient)
  // curvature passes only at |v| <= 2 * sqrt(2 * budget / curvature).
  vCap_ = kappa > 0.0 ? 2.0 * std::sqrt(2.0 * maxBudget / kappa)
                      : std::numeric_limits<double>::infinity();
}

bool QuiescentCells::linearise(std::size_t row, std::size_t col,
                               const jart::Model& model, double v, double nDisc,
                               double temperatureK, double budget, double gHint,
                               jart::Conduction& out) {
  const double a = std::fabs(v);
  // Negated so a NaN voltage fails.
  if (!(budget > 0.0) || !(a <= vCap_)) return false;
  std::vector<Entry>& entries = rows_[row];
  const bool fresh = !entries.empty() && entries[col].nDisc == nDisc &&
                     std::fabs(temperatureK - entries[col].temperatureK) <= kQuiescentDeltaTK;
  if (!fresh) {
    // At exactly 0 V the solve is exact and cheaper than a new entry. A
    // forward branch with the hinted slope has curvature >= gHint / vt, so
    // a remainder above the budget fails without computing the entry.
    const double vtForward = model.params().idealityFwd * nh::util::kBoltzmannEv * temperatureK;
    if (a == 0.0 || 0.5 * a * a * gHint / vtForward > budget) return false;
    // A zero N_disc key never matches a state (N_disc >= nDiscMin > 0).
    if (entries.empty()) entries.resize(cols_);
    Entry& e = entries[col];
    e.nDisc = nDisc;
    e.temperatureK = temperatureK;
    e.zeroBias = model.zeroBias(nDisc, temperatureK);
  }
  const jart::ZeroBias& z = entries[col].zeroBias;
  const double x = a * z.invVt;
  if (!(x < 1.0)) return false;
  const double remainder =
      0.5 * a * a * z.curvature / (1.0 - x) + z.dgdT * kQuiescentDeltaTK * a;
  if (!(remainder <= budget)) return false;
  const double g = z.conductance(v);
  out.current = g * v;
  out.vDisc = out.current * z.rDisc;
  out.powerFilament = std::fabs(out.current * (v - out.current * model.params().rSeries));
  out.conductance = g;
  out.converged = true;
  return true;
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
  quiescent_.setBudgets(array, drivers, options.newtonTol);
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
  rowQuiescent_.resize(rows);

  double prevStep = 0.0;  // none before the first iteration
  for (std::size_t iter = 0; iter < options.maxNewtonIterations; ++iter) {
    fillJacobian(array, drivers, voltages, result);
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

void LineNetworkSolver::fillJacobian(const CrossbarArray& array,
                                     const LineDrivers& drivers,
                                     const nh::util::Vector& voltages,
                                     LineSolveResult& result) {
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
      std::size_t linear = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double v = voltages[r] - voltages[rows + c];
        const jart::JartDevice& device = array.cell(r, c);
        jart::Conduction lin;
        nh::spice::CurrentAndConductance e;
        // gMat_ still holds the cell's slope of the previous fill.
        if (quiescent_.linearise(r, c, device.model(), v, device.nDisc(),
                                 device.temperature(), quiescent_.budget(r, c), gMat_(r, c),
                                 lin)) {
          e = {lin.current, lin.conductance, true};
          ++linear;
        } else {
          e = device.evaluate(v);
        }
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
      rowQuiescent_[r] = linear;
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
  for (std::size_t r = 0; r < rows; ++r) {
    result.conductionNonConverged += rowNonConverged_[r];
    result.quiescentEvaluations += rowQuiescent_[r];
  }
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
