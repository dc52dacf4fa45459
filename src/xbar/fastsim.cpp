#include "xbar/fastsim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/linsolve.hpp"
#include "util/threadpool.hpp"

namespace nh::xbar {

FastEngine::FastEngine(CrossbarArray& array, AlphaTable table,
                       FastEngineOptions options)
    : array_(&array),
      hub_(array.rows(), array.cols(), std::move(table)),
      options_(options) {
  if (options_.substepsPerPulse == 0) {
    throw std::invalid_argument("FastEngine: substepsPerPulse must be >= 1");
  }
  if (!(options_.batchDriftLimit > 0.0)) {
    throw std::invalid_argument("FastEngine: batchDriftLimit must be > 0");
  }
  // FEM-extracted R_th overrides the compact-model default (paper hand-off).
  // JartDevice reads R_th from its immutable Params, so the override happens
  // at array construction time via config; here we only validate coherence.
  lineVoltages_.assign(array.rows() + array.cols(), 0.0);
  energyByCell_.resize(array.rows(), array.cols(), 0.0);
  selfExcess_.resize(array.rows(), array.cols(), 0.0);
}

void FastEngine::resetEnergy() {
  totalEnergy_ = 0.0;
  energyByCell_.fill(0.0);
}

template <typename Body>
void FastEngine::forRowBlocks(const Body& body) const {
  const std::size_t cols = array_->cols();
  nh::util::forBlocks(array_->rows(), (kParallelMinCells + cols - 1) / cols, body);
}

void FastEngine::addRowNonConverged() {
  for (const std::size_t n : rowNonConverged_) conductionNonConverged_ += n;
}

template <typename RowWork>
void FastEngine::refreshCrosstalk(const RowWork& rowWork) {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  if (crosstalkIn_.rows() != rows || crosstalkIn_.cols() != cols) {
    crosstalkIn_.resize(rows, cols, 0.0);
  }
  cellScratch_.resize(rows * cols);
  rowNonConverged_.resize(rows);
  forRowBlocks([&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        selfExcess_(r, c) = array_->cell(r, c).selfExcessTemperature();
      }
    }
  });
  // The stencil reads the gathered snapshot, never a device, so a block may
  // advance its own cells as soon as their inputs are set: no other block's
  // stencil sees the change.
  forRowBlocks([&](std::size_t begin, std::size_t end) {
    hub_.inputTemperatures(selfExcess_, crosstalkIn_, begin, end);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        array_->cell(r, c).setCrosstalk(crosstalkIn_(r, c));
      }
      rowWork(r);
    }
  });
}

void FastEngine::solveNetwork(const LineBias& bias) {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  const std::size_t n = rows + cols;
  const double rDrv = array_->config().driverResistance;

  if (!options_.solveLineNetwork || rDrv <= 0.0) {
    for (std::size_t r = 0; r < rows; ++r) lineVoltages_[r] = bias.wordLine[r];
    for (std::size_t c = 0; c < cols; ++c) lineVoltages_[rows + c] = bias.bitLine[c];
    return;
  }

  // Warm start from the ideal bias (previous solution can belong to a very
  // different bias, e.g. after a scheme change).
  for (std::size_t r = 0; r < rows; ++r) lineVoltages_[r] = bias.wordLine[r];
  for (std::size_t c = 0; c < cols; ++c) lineVoltages_[rows + c] = bias.bitLine[c];

  const double gDrv = 1.0 / rDrv;
  if (gMat_.rows() != rows || gMat_.cols() != cols) gMat_.resize(rows, cols, 0.0);
  dRow_.resize(rows);
  dCol_.resize(cols);
  residual_.resize(n);
  delta_.resize(n);
  cellScratch_.resize(rows * cols);
  rowNonConverged_.resize(rows);

  bool converged = false;
  for (std::size_t iter = 0; iter < options_.maxNewtonIterations; ++iter) {
    fillJacobian(bias, gDrv);

    if (options_.useSchurSolve) {
      solveNetworkSchur(rows, cols);
    } else {
      solveNetworkDense(rows, cols);
    }

    double maxStep = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::clamp(delta_[i], -0.5, 0.5);
      lineVoltages_[i] -= d;
      // std::max drops a NaN second argument; keep it so the guard sees it.
      maxStep = std::isnan(d) ? d : std::max(maxStep, std::fabs(d));
    }
    ++newtonTotal_;
    // NaN/Inf guard: std::clamp passes NaN through, so a poisoned solve
    // would otherwise iterate to the cap and leave NaN line voltages behind.
    if (!std::isfinite(maxStep)) {
      throw nh::util::SolverError("fastsim.newton",
                                  "non-finite update in line-network solve",
                                  iter + 1, maxStep);
    }
    if (maxStep < options_.newtonTol) {
      converged = true;
      break;
    }
  }
  if (!converged) ++newtonCapHits_;
}

void FastEngine::fillJacobian(const LineBias& bias, double gDrv) {
  // The Jacobian in block form: the word/bit diagonal blocks are diagonal
  // (dRow_/dCol_) and the coupling block is the dense device conductance
  // matrix gMat_. A word line's residual and diagonal sum its own cells in
  // column order, so row blocks fill them independently.
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  forRowBlocks([&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double res = 0.0;
      res += gDrv * (lineVoltages_[r] - bias.wordLine[r]);
      double diag = gDrv;
      std::size_t nonConverged = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        const double v = lineVoltages_[r] - lineVoltages_[rows + c];
        const nh::spice::CurrentAndConductance e = array_->cell(r, c).evaluate(v);
        if (!e.converged) ++nonConverged;
        double g = e.conductance;
        if (!(g > 0.0)) g = 1e-12;
        res += e.current;
        diag += g;
        cellScratch_[r * cols + c] = e.current;
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
    res += gDrv * (lineVoltages_[rows + c] - bias.bitLine[c]);
    residual_[rows + c] = res;
    dCol_[c] = gDrv;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      residual_[rows + c] -= cellScratch_[r * cols + c];
      dCol_[c] += gMat_(r, c);
    }
  }
  addRowNonConverged();
}

void FastEngine::solveNetworkSchur(std::size_t rows, std::size_t cols) {
  // Word lines couple only to bit lines: the Jacobian is the bipartite block
  // system SchurComplementSolver handles in O(rows*cols^2) instead of the
  // O((rows+cols)^3) dense factorisation. Above the Auto crossover the
  // matrix-free CG complement drops that to O(rows*cols) per iteration.
  (void)rows;
  using SchurMode = FastEngineOptions::SchurMode;
  SchurMode mode = options_.schurMode;
  if (mode == SchurMode::Auto) {
    mode = cols >= options_.schurIterativeMinCols ? SchurMode::Iterative
                                                  : SchurMode::SeedDense;
  }
  bool ok = false;
  if (mode == SchurMode::SeedDense) {
    ok = schurSolver_.solve(dRow_, dCol_, gMat_, residual_, delta_);
  } else {
    schurSolver_.options().mode = mode == SchurMode::Iterative
                                      ? nh::util::SchurOptions::Mode::Iterative
                                      : nh::util::SchurOptions::Mode::Dense;
    ok = schurSolver_.solveBanded(nh::util::TridiagonalView::diagonal(dRow_),
                                  nh::util::TridiagonalView::diagonal(dCol_),
                                  gMat_, residual_, delta_);
  }
  if (!ok) {
    // The iterative path carries CG diagnostics; the dense paths report a
    // plain singular factorisation (iterations/residual stay zero).
    const nh::util::IterativeResult& cg = schurSolver_.lastIterative();
    throw nh::util::SolverError(
        "fastsim.schur",
        cg.iterations > 0 ? "line-network Schur CG did not converge"
                          : "singular line-network Schur complement",
        cg.iterations, cg.residualNorm);
  }
}

void FastEngine::solveNetworkDense(std::size_t rows, std::size_t cols) {
  // Seed-equivalent dense path: assemble the full Jacobian and factor it.
  const std::size_t n = rows + cols;
  if (jacobian_.rows() != n || jacobian_.cols() != n) jacobian_.resize(n, n, 0.0);
  jacobian_.fill(0.0);
  for (std::size_t r = 0; r < rows; ++r) jacobian_(r, r) = dRow_[r];
  for (std::size_t c = 0; c < cols; ++c) jacobian_(rows + c, rows + c) = dCol_[c];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t bc = rows + c;
      jacobian_(r, bc) = -gMat_(r, c);
      jacobian_(bc, r) = -gMat_(r, c);
    }
  }
  if (!lu_.refactor(jacobian_)) {
    throw nh::util::SolverError("fastsim.dense",
                                "singular line-network Jacobian");
  }
  std::copy(residual_.begin(), residual_.end(), delta_.begin());
  lu_.solveInPlace(delta_);
}

void FastEngine::step(const LineBias& bias, double h) {
  solveNetwork(bias);
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  refreshCrosstalk([&](std::size_t r) {
    std::size_t nonConverged = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = lineVoltages_[r] - lineVoltages_[rows + c];
      auto& device = array_->cell(r, c);
      device.advance(v, h);
      nonConverged += device.lastAdvanceNonConverged();
      // Energy accounting from the device's final conduction operating
      // point of this substep (quasi-static within a substep).
      const double e = std::fabs(v * device.lastCurrent()) * h;
      cellScratch_[r * cols + c] = e;
      energyByCell_(r, c) += e;
    }
    rowNonConverged_[r] = nonConverged;
  });
  // Serial sum in row-major order, the order of the cell-by-cell engine.
  for (const double e : cellScratch_) totalEnergy_ += e;
  addRowNonConverged();
  time_ += h;
}

void FastEngine::applyBias(const LineBias& bias, double duration) {
  if (bias.wordLine.size() != array_->rows() ||
      bias.bitLine.size() != array_->cols()) {
    throw std::invalid_argument("FastEngine: bias shape mismatch");
  }
  if (duration <= 0.0) return;
  // The crosstalk hub is refreshed once per substep, so a neighbour's input
  // temperature is stale within a substep. Keep the first substep near the
  // filament thermal time constant: the sources heat up during it, and from
  // the second substep on every cell sees the settled crosstalk level.
  const double tau = array_->config().cellParams.tauThermal;
  const std::size_t n = options_.substepsPerPulse;
  double first = std::min(2.0 * tau, duration / static_cast<double>(n));
  if (n == 1) first = duration;
  step(bias, first);
  const double remaining = duration - first;
  if (remaining <= 0.0) return;
  const std::size_t rest = n > 1 ? n - 1 : 1;
  const double h = remaining / static_cast<double>(rest);
  for (std::size_t s = 0; s < rest; ++s) step(bias, h);
}

void FastEngine::applyPulse(const LineBias& bias, double width, double gap) {
  applyBias(bias, width);
  if (options_.relaxBetweenPulses && gap > 0.0) {
    // Idle: all drivers at 0 V; devices cool toward ambient. A couple of
    // coarse steps suffice (the thermal relaxation is handled adaptively
    // inside each device).
    const LineBias idle = idleBias(array_->rows(), array_->cols());
    solveNetwork(idle);
    refreshCrosstalk([&](std::size_t r) {
      std::size_t nonConverged = 0;
      for (std::size_t c = 0; c < array_->cols(); ++c) {
        auto& device = array_->cell(r, c);
        device.advance(0.0, gap);
        nonConverged += device.lastAdvanceNonConverged();
      }
      rowNonConverged_[r] = nonConverged;
    });
    addRowNonConverged();
    // Crosstalk inputs decay with the sources; clear for the next pulse.
    refreshCrosstalk([](std::size_t) {});
    time_ += gap;
  } else {
    time_ += gap;
  }
}

PulseTrainResult FastEngine::applyPulseTrain(const LineBias& bias, double width,
                                             double gap, std::size_t count,
                                             const PulseCallback& callback) {
  PulseTrainResult result;
  const auto& params = array_->config().cellParams;
  const double window = params.nDiscMax - params.nDiscMin;
  const std::size_t cells = array_->cellCount();

  std::vector<double> before(cells), delta(cells);
  std::size_t applied = 0;
  while (applied < count) {
    nh::util::checkCancellation("pulse train");
    // Snapshot, then one fully detailed pulse.
    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        before[k] = array_->cell(r, c).nDisc();
      }
    }
    const double energyBefore = totalEnergy_;
    energyBeforeByCell_ = energyByCell_;  // same shape: copies, never allocates
    applyPulse(bias, width, gap);
    const double energyPerPulse = totalEnergy_ - energyBefore;
    ++applied;
    ++result.pulsesSimulated;
    if (callback && callback(applied)) {
      result.stoppedEarly = true;
      break;
    }
    if (applied >= count) break;

    if (!options_.enableBatching) continue;

    // Batch: replay the per-cell delta while drift stays bounded.
    double maxDelta = 0.0;
    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        delta[k] = array_->cell(r, c).nDisc() - before[k];
        maxDelta = std::max(maxDelta, std::fabs(delta[k]));
      }
    }
    std::size_t batch = options_.maxBatch;
    if (maxDelta > 0.0) {
      const double allowed = options_.batchDriftLimit * window / maxDelta;
      batch = static_cast<std::size_t>(std::min<double>(
          static_cast<double>(options_.maxBatch), std::max(0.0, allowed)));
    }
    batch = std::min(batch, count - applied);
    if (batch <= 1) continue;

    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        auto& device = array_->cell(r, c);
        device.setNDisc(device.nDisc() + static_cast<double>(batch) * delta[k]);
      }
    }
    applied += batch;
    time_ += static_cast<double>(batch) * (width + gap);
    totalEnergy_ += static_cast<double>(batch) * energyPerPulse;
    for (std::size_t r = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c) {
        energyByCell_(r, c) += static_cast<double>(batch) *
                               (energyByCell_(r, c) - energyBeforeByCell_(r, c));
      }
    }
    if (callback && callback(applied)) {
      result.stoppedEarly = true;
      break;
    }
  }
  result.pulsesApplied = applied;
  return result;
}

}  // namespace nh::xbar
