#pragma once
/// \file linenet.hpp
/// The resistive line network of the crossbar: one node per word line and
/// per bit line, a JART cell between every word/bit pair, and a driver (a
/// voltage level behind a source conductance) on each line. Word lines
/// couple only to bit lines, so each Newton update is the bipartite block
/// system SchurComplementSolver solves through the bit-line Schur
/// complement. The attack engine (FastEngine) and the read analysis
/// (analyzeSneak, worstCaseReadMargin) both solve the network here.
///
/// Stop rule: see FastEngineOptions::newtonTol. An all-zero drive returns
/// +0.0 V on every line without a fill: cell current at 0 V is exactly
/// zero, so that is the exact solution.
///
/// Quiescent cells: a cell whose zero-bias linearisation is certified
/// (QuiescentCells) enters the fill as I = g(sign v) * v with the cached
/// branch slope g, without a conduction solve. The certificate keeps the
/// error within 1% of what newtonTol lets through the line's driver; see
/// docs/kernels.md, "Quiescent-cell bypass".
///
/// Parallelism: from kParallelMinCells cells up, the Jacobian fill runs in
/// contiguous row blocks on the shared thread pool. A word line's sums stay
/// inside its row block and the bit-line sums run in a serial pass in row
/// order, so the result is bit-identical to a serial solve at every thread
/// count. The Schur solve itself stays serial.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "jart/model.hpp"
#include "util/linsolve.hpp"
#include "util/matrix.hpp"
#include "xbar/array.hpp"

namespace nh::xbar {

struct FastEngineOptions;  // xbar/fastsim.hpp

/// Line drivers of one solve, word lines first, then bit lines (rows + cols
/// entries each). A line with a zero conductance floats; its level is then
/// only the Newton start value.
struct LineDrivers {
  nh::util::Vector level;        ///< Driver voltage [V].
  nh::util::Vector conductance;  ///< Driver source conductance [S].
};

/// Counters of one line-network solve.
struct LineSolveResult {
  std::size_t newtonIterations = 0;
  /// The Newton loop reached maxNewtonIterations without meeting newtonTol.
  bool capHit = false;
  /// Largest clamped |update| of the last iteration [V]; NaN/Inf when the
  /// update went non-finite (the loop stops at once then).
  double lastStep = 0.0;
  /// Bound on the remaining line-voltage error after the last iteration
  /// [V]: the smaller of lastStep and its contraction estimate. Below
  /// newtonTol on a converged solve; 0 for an all-zero drive.
  double errorEstimate = 0.0;
  /// Compact-model conduction solves of the Jacobian fills that did not
  /// converge.
  std::size_t conductionNonConverged = 0;
  /// Cell evaluations of the fills that took the certified linear path.
  std::size_t quiescentEvaluations = 0;

  /// Met newtonTol with a finite update.
  bool converged() const;
};

/// theta / (1 - theta) * step with theta = step / prevStep, the error
/// bound of the stop rule (FastEngineOptions::newtonTol). +Inf when no
/// contraction has been observed: no previous step (prevStep <= 0),
/// theta >= 1, or a step that is not finite.
double contractionErrorEstimate(double step, double prevStep);

/// Share of a line's KCL tolerance (newtonTol times its driver conductance)
/// that the linearisation error of all its cells together may use. A KCL
/// error e on a line moves its voltage by at most e / g_driver, so the
/// linearised cells of a line shift it by at most 1% of newtonTol: the stop
/// rule keeps its meaning.
inline constexpr double kQuiescentBudgetFraction = 0.01;
/// Temperature drift [K] a cached linearisation may see before it is
/// recomputed. Its staleness enters the certificate as |dg/dT| * dT * |v|;
/// for a cell at 300 K that is 0.045 * dT = 4.5e-5 of the cell's own
/// current, below the second-order remainder of a cell at 1e-5 V (1.2e-4
/// of its current), so the staleness term never decides the certificate of
/// an idle cell. A cell next to a heated line sees its crosstalk move by
/// kelvins per substep and is recomputed anyway.
inline constexpr double kQuiescentDeltaTK = 1e-3;

/// Per-cell cache of the zero-bias linearisation (jart::ZeroBias) and its
/// certificate, the quiescent-cell bypass of SPICE (Nagel, SPICE2, 1975)
/// applied to the line network. Allocated row by row on first use; an entry is
/// recomputed when the cell's N_disc changes or its temperature moves by
/// more than kQuiescentDeltaTK. A cell is certified while
///   v^2 / 2 * curvature / (1 - |v| * invVt) + |dg/dT| * dT * |v| <= budget,
/// (1 / (1 - x) bounds exp(x) for 0 <= x < 1), with the budget the smaller
/// of its two lines' kQuiescentBudgetFraction * newtonTol * g_driver /
/// (cells on the line). A floating line (g_driver = 0) has no budget. The
/// limits depend only on newtonTol, the driver conductances and the array
/// size. NaN voltages, states and temperatures are never certified.
class QuiescentCells {
 public:
  /// Take the budgets of a solve under \p drivers for \p array's shape.
  void setBudgets(const CrossbarArray& array, const LineDrivers& drivers,
                  double newtonTol);
  /// Certificate budget of cell (row, col) [A]; 0 before any solve.
  double budget(std::size_t row, std::size_t col) const {
    return rows_.empty() ? 0.0 : std::min(rowBudget_[row], colBudget_[col]);
  }
  /// When cell (\p row, \p col) of \p model at (\p nDisc,
  /// \p temperatureK) under \p v meets \p budget, write the linear
  /// operating point (current g * v, V_disc, filament power, conductance
  /// g; vSchottky is not set) to \p out and return true. Otherwise false:
  /// the caller takes the full conduction solve. \p gHint, a recent small-
  /// signal conductance of the cell (0 when none), lets a cell whose entry
  /// is stale fail without recomputing it. Only the caller that owns \p row
  /// may call this concurrently with it.
  bool linearise(std::size_t row, std::size_t col, const jart::Model& model, double v,
                 double nDisc, double temperatureK, double budget, double gHint,
                 jart::Conduction& out);

 private:
  struct Entry {
    double nDisc = 0.0;         ///< Operating point the entry was made at.
    double temperatureK = 0.0;
    jart::ZeroBias zeroBias;
  };
  /// One entry per cell, a row allocated when its first cell passes the
  /// pre-filters, so rows of cells that fail them allocate nothing.
  std::vector<std::vector<Entry>> rows_;
  std::size_t cols_ = 0;
  nh::util::Vector rowBudget_;
  nh::util::Vector colBudget_;
  /// Pre-filter: |v| above it fails the certificate for any cell whose
  /// curvature is at least a quarter of a deep-HRS cell's at ambient, so
  /// such cells go to the full solve without touching their entry. It only
  /// ever sends cells to the full solve.
  double vCap_ = 0.0;
};

/// Newton solver of the line network with a workspace that persists across
/// solves, so the million-pulse sweeps never reallocate it.
class LineNetworkSolver {
 public:
  /// Solve the KCL equations of \p array's line network under \p drivers,
  /// starting from the driver levels, with the Newton and Schur settings of
  /// \p options (newtonTol, maxNewtonIterations, schurMode,
  /// schurIterativeMinCols). The cells are evaluated at their current
  /// state; \p array is not modified. \p voltages receives the line
  /// voltages, word lines then bit lines. Throws nh::util::SolverError
  /// ("linenet.schur") when a Newton update's Schur solve fails.
  LineSolveResult solve(const CrossbarArray& array, const LineDrivers& drivers,
                        const FastEngineOptions& options,
                        nh::util::Vector& voltages);

  /// The quiescent-cell cache of the last solve; the attack engine's
  /// device advance reads it under the same budgets.
  QuiescentCells& quiescentCells() { return quiescent_; }

 private:
  /// Evaluate the Newton Jacobian and KCL residual at \p voltages; adds the
  /// non-converged conduction solves and the linearised cells to \p result.
  void fillJacobian(const CrossbarArray& array, const LineDrivers& drivers,
                    const nh::util::Vector& voltages, LineSolveResult& result);
  /// Newton update via the bit-line Schur complement; fills delta_.
  void solveUpdate(const FastEngineOptions& options);

  // The Jacobian in factored block form [diag(dRow_), -G; -G^T, diag(dCol_)].
  nh::util::Matrix gMat_;      ///< Device small-signal conductances (rows x cols).
  nh::util::Vector dRow_;      ///< Word-line block diagonal.
  nh::util::Vector dCol_;      ///< Bit-line block diagonal.
  nh::util::Vector residual_;  ///< KCL residual (rows + cols).
  nh::util::Vector delta_;     ///< Newton update (rows + cols).
  /// Per cell, the fill's currents (bit-line residuals, reduced serially);
  /// per row, the non-converged conduction solves and the linearised cells.
  std::vector<double> cellCurrent_;
  std::vector<std::size_t> rowNonConverged_;
  std::vector<std::size_t> rowQuiescent_;
  QuiescentCells quiescent_;
  nh::util::SchurComplementSolver schurSolver_;
};

}  // namespace nh::xbar
