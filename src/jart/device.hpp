#pragma once
/// \file device.hpp
/// Stateful JART device: one memristive cell with its oxygen-vacancy state
/// and filament temperature. Implements nh::spice::MemristiveModel so it can
/// be instantiated inside a circuit, and exposes the two "interface
/// variables" the paper added to the original model: the filament
/// temperature (out, to the crosstalk hub) and the additional crosstalk
/// temperature (in, from the hub).

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "jart/model.hpp"
#include "spice/elements.hpp"

namespace nh::jart {

/// One physical cell. Copyable value type (the fast engine keeps a matrix of
/// these); cheap to copy (a handful of doubles plus its Model's params).
///
/// current(), conductance() and evaluate() all come from one conduction
/// solve (Model::solveConduction): the conductance is the solve's implicit
/// small-signal derivative, never a finite difference.
class JartDevice final : public nh::spice::MemristiveModel {
 public:
  /// \p nDiscInitial defaults to the deep-HRS end of the window.
  JartDevice(const Params& params, double ambientK,
             double nDiscInitial = -1.0);

  // ---- MemristiveModel -------------------------------------------------------
  /// Terminal current at voltage \p v with the frozen internal state
  /// (N_disc and temperature are constant within one Newton solve).
  double current(double v) const override;
  /// Analytic dI/dV at \p v (the conduction solve's implicit conductance).
  double conductance(double v) const override;
  /// Current, conductance and the solve's convergence flag from one solve;
  /// bit-identical to {current(v), conductance(v)}.
  nh::spice::CurrentAndConductance evaluate(double v) const override;
  /// Integrate N_disc and filament temperature over an accepted step.
  /// Substeps adaptively so state moves <= ~1% of the window per substep.
  /// At v = 0 with a finite state and a positive finite temperature no
  /// conduction solve runs: the solve's current, power and V_disc are
  /// exactly zero there.
  void advance(double v, double dt) override;
  /// advance() with the conduction operating point of each substep taken
  /// from \p conduct(nDisc, temperatureK), which stands for the conduction
  /// solve at the step's voltage; the rate and thermal update are
  /// advance()'s. The fast engine
  /// passes its zero-bias linearisation here (xbar/linenet.hpp).
  template <typename Conduct>
  void advanceWith(double dt, const Conduct& conduct);
  /// Conduction solves of the last advance() that did not converge.
  std::uint32_t lastAdvanceNonConverged() const { return lastNonConverged_; }

  // ---- interface variables (paper Sec. IV-B) ---------------------------------
  /// Filament temperature [K]: ambient + crosstalk input + self-heating
  /// excess. The self-heating part carries the thermal RC lag; the crosstalk
  /// input inherits its lag from the source cell's own self-heating state.
  double temperature() const { return ambientK_ + crosstalkK_ + selfExcessK_; }
  /// Excess temperature above ambient [K] (crosstalk + self-heating).
  double excessTemperature() const { return crosstalkK_ + selfExcessK_; }
  /// Self-heating excess only [K] -- what the crosstalk hub propagates to
  /// neighbours (Eq. 5 superposition; see CrosstalkHub).
  double selfExcessTemperature() const { return selfExcessK_; }
  /// Additional temperature from neighbouring cells [K] (input from hub).
  void setCrosstalk(double deltaK) { crosstalkK_ = deltaK; }
  double crosstalk() const { return crosstalkK_; }
  /// Highest filament temperature seen by advance() since the last
  /// clearPeakTemperature() [K]. Traces sample between pulses (when the
  /// filament has cooled), so the peak tracker is what reveals the in-pulse
  /// temperatures of Fig. 1.
  double peakTemperature() const { return peakTemperatureK_; }
  void clearPeakTemperature() { peakTemperatureK_ = temperature(); }

  // ---- state access ------------------------------------------------------------
  double nDisc() const { return nDisc_; }
  /// Set the state directly (init files / test fixtures). Clamped to window.
  void setNDisc(double n);
  /// Normalised state in [0, 1]; 0 = deep HRS, 1 = deep LRS.
  double normalisedState() const { return model_.params().normalisedState(nDisc_); }
  double ambient() const { return ambientK_; }
  void setAmbient(double t0);
  /// Drop the self-heating excess (e.g. after a long idle period between
  /// pulse trains).
  void relaxTemperature() { selfExcessK_ = 0.0; }

  /// Convenience: put the device into a deep state.
  void setLrs() { setNDisc(model_.params().nDiscMax); }
  void setHrs() { setNDisc(model_.params().nDiscMin); }

  /// Small-signal read resistance at \p readVoltage (does not disturb state).
  double readResistance(double readVoltage = 0.2) const;

  const Model& model() const { return model_; }
  /// Terminal current of advance()'s last conduction solve [A] (energy
  /// accounting, probes).
  double lastCurrent() const { return lastCurrent_; }

 private:
  Model model_;
  double ambientK_;
  double crosstalkK_ = 0.0;
  double selfExcessK_ = 0.0;
  double peakTemperatureK_ = 0.0;
  double nDisc_;
  double lastCurrent_ = 0.0;
  std::uint32_t lastNonConverged_ = 0;
};

template <typename Conduct>
void JartDevice::advanceWith(double dt, const Conduct& conduct) {
  lastNonConverged_ = 0;
  if (dt <= 0.0) return;
  const Params& p = model_.params();
  const double window = p.nDiscMax - p.nDiscMin;
  const double maxDeltaN = 0.01 * window;  // <= 1% of the window per substep
  const double tau = p.tauThermal;

  double remaining = dt;
  while (remaining > 0.0) {
    const double t = temperature();
    const Conduction c = conduct(nDisc_, t);
    lastCurrent_ = c.current;
    if (!c.converged) ++lastNonConverged_;
    // Self-heating target (Eq. 6 without the crosstalk term, which is an
    // externally supplied offset): dT_self -> RthEff * P.
    const double selfTarget = p.rThEff * c.powerFilament;
    const double rate = model_.ionicRate(c.vDisc, nDisc_, t);

    // Substep: keep the state move small both absolutely (window fraction)
    // and relatively (N enters the conduction path logarithmically, so the
    // deep-HRS regime needs per-decade resolution), and resolve the thermal
    // lag only while the temperature is actually transient (once it has
    // settled the exact exponential update below is valid for any step).
    double h = remaining;
    if (std::fabs(selfTarget - selfExcessK_) > 0.5) h = std::min(h, tau * 0.5);
    if (rate != 0.0) {
      const double absRate = std::fabs(rate);
      h = std::min(h, maxDeltaN / absRate);
      h = std::min(h, 0.05 * nDisc_ / absRate);
    }
    h = std::max(h, remaining * 1e-9);  // guard against underflow
    h = std::min(h, remaining);

    selfExcessK_ += (selfTarget - selfExcessK_) * (1.0 - std::exp(-h / tau));
    peakTemperatureK_ = std::max(peakTemperatureK_, temperature());
    nDisc_ = std::clamp(nDisc_ + rate * h, p.nDiscMin, p.nDiscMax);
    remaining -= h;
  }
}

}  // namespace nh::jart
