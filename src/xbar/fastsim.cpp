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
    hub_.scatterActive(selfExcess_, kHubSourceFloorK, crosstalkIn_, begin, end);
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        array_->cell(r, c).setCrosstalk(crosstalkIn_(r, c));
      }
      rowWork(r);
    }
  });
}

void FastEngine::solveNetwork() {
  const double rDrv = array_->config().driverResistance;
  if (!options_.solveLineNetwork || rDrv <= 0.0) {
    lineVoltages_ = drivers_.level;  // same size: copies, never allocates
    return;
  }

  // Every line is driven to its level through the driver impedance.
  drivers_.conductance.assign(drivers_.level.size(), 1.0 / rDrv);
  const LineSolveResult solved =
      network_.solve(*array_, drivers_, options_, lineVoltages_);
  newtonTotal_ += solved.newtonIterations;
  conductionNonConverged_ += solved.conductionNonConverged;
  quiescentTotal_ += solved.quiescentEvaluations;
  if (!std::isfinite(solved.lastStep)) {
    throw nh::util::SolverError("fastsim.newton",
                                "non-finite update in line-network solve",
                                solved.newtonIterations, solved.lastStep);
  }
  if (solved.capHit) ++newtonCapHits_;
}

void FastEngine::step(double h) {
  solveNetwork();
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  // The network solve just set the certificate budgets; without a network
  // solve every budget is 0 and every cell takes the full solve.
  QuiescentCells& quiescent = network_.quiescentCells();
  rowQuiescent_.resize(rows);
  refreshCrosstalk([&](std::size_t r) {
    std::size_t nonConverged = 0;
    std::size_t linear = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = lineVoltages_[r] - lineVoltages_[rows + c];
      auto& device = array_->cell(r, c);
      const double budget = quiescent.budget(r, c);
      if (budget > 0.0) {
        const jart::Model& model = device.model();
        device.advanceWith(h, [&](double nDisc, double temperatureK) {
          jart::Conduction lin;
          if (quiescent.linearise(r, c, model, v, nDisc, temperatureK, budget, 0.0, lin)) {
            ++linear;
            return lin;
          }
          return model.solveConduction(v, nDisc, temperatureK);
        });
      } else {
        device.advance(v, h);
      }
      nonConverged += device.lastAdvanceNonConverged();
      // Energy accounting from the device's final conduction operating
      // point of this substep (quasi-static within a substep).
      const double e = std::fabs(v * device.lastCurrent()) * h;
      cellScratch_[r * cols + c] = e;
      energyByCell_(r, c) += e;
    }
    rowNonConverged_[r] = nonConverged;
    rowQuiescent_[r] = linear;
  });
  // Serial sum in row-major order, the order of the cell-by-cell engine.
  for (const double e : cellScratch_) totalEnergy_ += e;
  addRowNonConverged();
  for (const std::size_t n : rowQuiescent_) quiescentTotal_ += n;
  time_ += h;
}

void FastEngine::applyBias(const LineBias& bias, double duration) {
  if (bias.wordLine.size() != array_->rows() ||
      bias.bitLine.size() != array_->cols()) {
    throw std::invalid_argument("FastEngine: bias shape mismatch");
  }
  if (duration <= 0.0) return;
  drivers_.level.resize(array_->rows() + array_->cols());
  std::copy(bias.wordLine.begin(), bias.wordLine.end(), drivers_.level.begin());
  std::copy(bias.bitLine.begin(), bias.bitLine.end(),
            drivers_.level.begin() + static_cast<std::ptrdiff_t>(array_->rows()));
  // The crosstalk hub is refreshed once per substep, so a neighbour's input
  // temperature is stale within a substep. Keep the first substep near the
  // filament thermal time constant: the sources heat up during it, and from
  // the second substep on every cell sees the settled crosstalk level.
  const double tau = array_->config().cellParams.tauThermal;
  const std::size_t n = options_.substepsPerPulse;
  double first = std::min(2.0 * tau, duration / static_cast<double>(n));
  if (n == 1) first = duration;
  step(first);
  const double remaining = duration - first;
  if (remaining <= 0.0) return;
  const std::size_t rest = n > 1 ? n - 1 : 1;
  const double h = remaining / static_cast<double>(rest);
  for (std::size_t s = 0; s < rest; ++s) step(h);
}

void FastEngine::applyPulse(const LineBias& bias, double width, double gap) {
  applyBias(bias, width);
  if (gap > 0.0) {
    // Idle: all drivers at 0 V; devices cool toward ambient. A couple of
    // coarse steps suffice (the thermal relaxation is handled adaptively
    // inside each device). The network solve returns +0.0 V on every line
    // without a Newton iteration (xbar/linenet.hpp).
    drivers_.level.assign(array_->rows() + array_->cols(), 0.0);
    solveNetwork();
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
  }
  time_ += gap;
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
    std::size_t batch = kMaxBatch;
    if (maxDelta > 0.0) {
      const double allowed = options_.batchDriftLimit * window / maxDelta;
      batch = static_cast<std::size_t>(std::min<double>(
          static_cast<double>(kMaxBatch), std::max(0.0, allowed)));
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
