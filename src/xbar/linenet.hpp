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
/// Parallelism: from kParallelMinCells cells up, the Jacobian fill runs in
/// contiguous row blocks on the shared thread pool. A word line's sums stay
/// inside its row block and the bit-line sums run in a serial pass in row
/// order, so the result is bit-identical to a serial solve at every thread
/// count. The Schur solve itself stays serial.

#include <cstddef>
#include <vector>

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

  /// Met newtonTol with a finite update.
  bool converged() const;
};

/// theta / (1 - theta) * step with theta = step / prevStep, the error
/// bound of the stop rule (FastEngineOptions::newtonTol). +Inf when no
/// contraction has been observed: no previous step (prevStep <= 0),
/// theta >= 1, or a step that is not finite.
double contractionErrorEstimate(double step, double prevStep);

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

 private:
  /// Evaluate the Newton Jacobian and KCL residual at \p voltages; returns
  /// the non-converged conduction solves.
  std::size_t fillJacobian(const CrossbarArray& array, const LineDrivers& drivers,
                           const nh::util::Vector& voltages);
  /// Newton update via the bit-line Schur complement; fills delta_.
  void solveUpdate(const FastEngineOptions& options);

  // The Jacobian in factored block form [diag(dRow_), -G; -G^T, diag(dCol_)].
  nh::util::Matrix gMat_;      ///< Device small-signal conductances (rows x cols).
  nh::util::Vector dRow_;      ///< Word-line block diagonal.
  nh::util::Vector dCol_;      ///< Bit-line block diagonal.
  nh::util::Vector residual_;  ///< KCL residual (rows + cols).
  nh::util::Vector delta_;     ///< Newton update (rows + cols).
  /// Per cell, the fill's currents (bit-line residuals, reduced serially);
  /// per row, the non-converged conduction solves.
  std::vector<double> cellCurrent_;
  std::vector<std::size_t> rowNonConverged_;
  nh::util::SchurComplementSolver schurSolver_;
};

}  // namespace nh::xbar
