#pragma once
/// \file fastsim.hpp
/// Fast quasi-static crossbar engine. Pulse lengths (10-100 ns) are much
/// longer than both the electrical line time constants (~ps) and the
/// filament thermal time constant (~ns), so within a pulse the circuit is
/// solved quasi-statically: a Newton solve of the line network
/// (LineNetworkSolver, xbar/linenet.hpp), the crosstalk hub update (Eq. 5), then state/temperature integration inside
/// each compact model. A deterministic pulse-batching accelerator with
/// bounded state-drift per batch makes the 10^5..10^6-pulse sweeps of
/// Fig. 3 tractable; tests verify it against the unbatched engine and the
/// full SPICE transient.
///
/// Quiescent cells: a cell whose zero-bias linearisation the line-network
/// solve certifies (QuiescentCells, xbar/linenet.hpp) is advanced with that
/// linear current instead of a conduction solve, the idle gap runs no
/// conduction solve at all (0 V), and the crosstalk hub scatters from the
/// sources above kHubSourceFloorK only. See docs/kernels.md,
/// "Quiescent-cell bypass".
///
/// Parallelism: from kParallelMinCells (1,024) cells up, the per-cell loops
/// of one attack -- the Jacobian fill, the crosstalk gather and stencil, the
/// device advance -- run in contiguous row blocks on the shared thread pool
/// (util::ThreadPool::shared(), sized by NH_THREADS). Every floating-point
/// sum keeps the element order of the cell-by-cell loop: word-line sums run
/// inside a row block, bit-line sums and the energy total in a serial pass
/// in row-major order. Results are therefore bit-identical to a serial run
/// at every thread count. An engine driven from inside a pool task (an
/// nh_sweep grid point, a campaign trial) runs its blocks inline, so
/// multi-point grids keep point-level parallelism only. The Schur solve of
/// each Newton update stays serial.

#include <cstddef>
#include <functional>
#include <vector>

#include "util/matrix.hpp"
#include "xbar/array.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/linenet.hpp"
#include "xbar/scheme.hpp"

namespace nh::xbar {

/// Crosstalk sources whose self-heating excess times the table's coupling
/// sum is at or below this [K] are left out of the hub update. Together
/// they move no cell's crosstalk input by more than the floor. Through the
/// Arrhenius factors (E_a / (k T^2) = 0.14 /K for the SET barrier at 300 K,
/// about 0.045 /K for the interface current) 1e-8 K moves a switching rate
/// by at most 1.4e-9 relative. An idle cell at |v| ~ 1e-5 V self-heats by
/// about 1e-12 K, and a half-selected cell cools below the floor within a
/// few tens of thermal time constants of its idle gap.
inline constexpr double kHubSourceFloorK = 1e-8;

/// Hard cap on the number of pulses one batch replays (applyPulseTrain).
inline constexpr std::size_t kMaxBatch = 1024;

struct FastEngineOptions {
  /// Crosstalk-hub refresh points per pulse.
  std::size_t substepsPerPulse = 4;
  /// Solve the resistive line network (driver impedance) instead of
  /// assuming ideal drivers.
  bool solveLineNetwork = true;
  /// Pulse-batching accelerator (see applyPulseTrain). A batch replays at
  /// most kMaxBatch pulses.
  bool enableBatching = true;
  /// Max fraction of the N_disc window any cell may drift per batch.
  double batchDriftLimit = 0.002;
  /// Newton controls for the line-network solve (xbar/linenet.hpp): the
  /// loop stops once the largest line-voltage step, or its contraction
  /// estimate theta / (1 - theta) * step with theta the ratio of the last
  /// two steps (Hairer & Wanner, Solving ODEs II, Sec. IV.8), is below
  /// newtonTol [V]. newtonTol so bounds the line-voltage error left in the
  /// solution.
  double newtonTol = 1e-9;
  std::size_t maxNewtonIterations = 60;
  /// Which Schur-complement backend carries each Newton update. SeedDense
  /// assembles and LU-factors the dense complement, O(rows*cols^2) per
  /// update; Iterative runs the matrix-free Jacobi-CG complement, O(rows*cols)
  /// per CG iteration, which takes 1024x1024 arrays past the dense-assembly
  /// wall. Auto takes SeedDense below schurIterativeMinCols bit lines
  /// (bit-identical where the paper's figures live) and Iterative from
  /// there. The values are pinned: the config digest hashes them.
  enum class SchurMode { SeedDense = 0, Iterative = 2, Auto = 3 };
  SchurMode schurMode = SchurMode::Auto;
  /// Auto crossover: bit-line count at which the solve goes iterative.
  std::size_t schurIterativeMinCols = 128;

  /// Exact comparison (study-dedup cache key component).
  bool operator==(const FastEngineOptions&) const = default;
};

/// Result of an applyPulseTrain run.
struct PulseTrainResult {
  std::size_t pulsesApplied = 0;     ///< Includes batched (extrapolated) pulses.
  std::size_t pulsesSimulated = 0;   ///< Pulses integrated in full detail.
  bool stoppedEarly = false;         ///< Callback requested stop.
};

/// Quasi-static simulation engine bound to one array.
class FastEngine {
 public:
  /// \p table provides the crosstalk alphas; when the table carries a FEM
  /// R_th it overrides the compact-model default for every cell's Eq. 6,
  /// mirroring the paper's COMSOL -> Virtuoso parameter hand-off.
  FastEngine(CrossbarArray& array, AlphaTable table,
             FastEngineOptions options = {});

  CrossbarArray& array() { return *array_; }
  const CrossbarArray& array() const { return *array_; }
  const CrosstalkHub& hub() const { return hub_; }
  const FastEngineOptions& options() const { return options_; }
  /// Accumulated simulated time [s].
  double time() const { return time_; }

  /// Hold \p bias for \p duration (no pulse shape; used for reads and for
  /// the idle gap).
  void applyBias(const LineBias& bias, double duration);

  /// One rectangular pulse: \p bias for \p width, then idle for \p gap.
  void applyPulse(const LineBias& bias, double width, double gap);

  /// Called after every applied pulse with the 1-based cumulative pulse
  /// count; return true to stop the train (e.g. a bit-flip was detected).
  using PulseCallback = std::function<bool(std::size_t pulseIndex)>;

  /// Apply \p count identical pulses. With batching enabled, stretches of
  /// near-identical pulses are extrapolated: one pulse is integrated in
  /// detail, the per-cell state delta is replayed M-1 times with M chosen so
  /// no cell drifts more than batchDriftLimit of its window per batch. The
  /// callback fires after every detailed pulse and after every batch.
  PulseTrainResult applyPulseTrain(const LineBias& bias, double width, double gap,
                                   std::size_t count,
                                   const PulseCallback& callback = {});

  /// Line node voltages of the last network solve (diagnostics/tests):
  /// word lines then bit lines.
  const nh::util::Vector& lastLineVoltages() const { return lineVoltages_; }
  /// Total Newton iterations spent in line-network solves. The idle gap
  /// adds none: its all-zero drive is solved without an iteration.
  std::size_t newtonIterationsTotal() const { return newtonTotal_; }
  /// Compact-model conduction solves that did not converge, counted from the
  /// Jacobian fill and from every device advance. 0 on a healthy run. The
  /// idle gap has no fill, so a cell with a NaN state counts there only
  /// through its advance.
  std::size_t conductionNonConvergedTotal() const { return conductionNonConverged_; }
  /// Line-network solves that left the Newton loop at maxNewtonIterations
  /// without meeting newtonTol. 0 on a healthy run.
  std::size_t newtonCapHitsTotal() const { return newtonCapHits_; }
  /// Cell evaluations that took the certified zero-bias linearisation
  /// (QuiescentCells, xbar/linenet.hpp) instead of a conduction solve: one
  /// per cell of a Jacobian fill, one per substep of a device advance. 0
  /// without a line-network solve.
  std::size_t quiescentEvaluationsTotal() const { return quiescentTotal_; }

  /// Energy dissipated in the array since construction / resetEnergy() [J].
  /// Batched pulses contribute their extrapolated share, so the value is
  /// meaningful for attack-cost accounting (see the attack_energy experiment).
  double totalEnergy() const { return totalEnergy_; }
  /// Per-cell energy breakdown [J] (rows x cols).
  const nh::util::Matrix& energyByCell() const { return energyByCell_; }
  void resetEnergy();

 private:
  /// One quasi-static substep of length h under the drivers_ levels.
  void step(double h);
  /// body(begin, end) over row blocks: on the shared pool from
  /// kParallelMinCells cells, else one inline call.
  template <typename Body>
  void forRowBlocks(const Body& body) const;
  /// Add rowNonConverged_ to the non-converged total.
  void addRowNonConverged();
  /// Update every device's crosstalk input from the hub, running rowWork(r)
  /// on each row once its inputs are set; the work may change that row's
  /// devices (the crosstalk sources are read first).
  template <typename RowWork>
  void refreshCrosstalk(const RowWork& rowWork);
  /// Solve the line network under the drivers_ levels; fills lineVoltages_.
  void solveNetwork();

  CrossbarArray* array_;
  CrosstalkHub hub_;
  FastEngineOptions options_;
  nh::util::Vector lineVoltages_;
  double time_ = 0.0;
  std::size_t newtonTotal_ = 0;
  std::size_t conductionNonConverged_ = 0;
  std::size_t newtonCapHits_ = 0;
  std::size_t quiescentTotal_ = 0;
  double totalEnergy_ = 0.0;
  nh::util::Matrix energyByCell_;
  /// energyByCell_ before the last detailed pulse (batch replay).
  nh::util::Matrix energyBeforeByCell_;
  /// Crosstalk-hub input/output buffers, reused by every crosstalk refresh.
  nh::util::Matrix selfExcess_;
  nh::util::Matrix crosstalkIn_;
  /// Results of the last row-block loop, reduced by a serial pass in
  /// row-major order: per cell, a substep's energy (totalEnergy_); per row,
  /// the non-converged conduction solves and the linearised evaluations.
  std::vector<double> cellScratch_;
  std::vector<std::size_t> rowNonConverged_;
  std::vector<std::size_t> rowQuiescent_;

  /// Line-network solver and its driver buffer, persistent across substeps
  /// and pulses so the million-pulse sweeps never reallocate them.
  LineNetworkSolver network_;
  LineDrivers drivers_;
};

}  // namespace nh::xbar
