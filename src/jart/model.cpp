#include "jart/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace nh::jart {

using nh::util::kBoltzmannEv;

namespace {

/// One polarity branch of the Schottky interface at fixed (N_disc, T):
///   I(vs) = dir * i0 * (exp(min(dir * vs / vt, 60)) - 1),
/// dir = +1 for the forward (vs >= 0) and -1 for the reverse branch.
struct SchottkyBranch {
  double i0;   ///< Saturation current [A].
  double vt;   ///< Ideality * kT/q [V].
  double dir;  ///< +1 forward, -1 reverse.

  /// Current at interface voltage \p vs; writes the analytic dI/dvs (0 past
  /// the exponent clamp) to \p slope.
  double current(double vs, double& slope) const {
    const double arg = dir * vs / vt;
    const double e = std::exp(std::min(arg, 60.0));
    slope = arg < 60.0 ? i0 * e / vt : 0.0;
    return dir * i0 * (e - 1.0);
  }
};

/// Branch constants at normalised state \p x and temperature \p temperatureK:
/// one exp per call, shared by every evaluation at that operating point.
SchottkyBranch schottkyBranch(const Params& p, bool forward, double x,
                              double temperatureK) {
  const double kT = kBoltzmannEv * temperatureK;
  const double scale = p.filamentArea() * p.richardson * (temperatureK * temperatureK);
  if (forward) {
    // Forward (SET polarity): thermionic emission over a barrier that the
    // donor concentration in the disc lowers (more vacancies -> thinner,
    // lower effective barrier).
    const double phi = p.phiBarrier0 - p.phiLowering * x;
    return {scale * std::exp(-phi / kT), p.idealityFwd * kBoltzmannEv * temperatureK,
            1.0};
  }
  // Reverse (RESET polarity): tunnelling-assisted leaky reverse conduction,
  // modelled as a soft exponential with large ideality.
  const double phi = p.phiBarrierRev - p.phiLowering * x;
  return {scale * std::exp(-std::max(phi, 0.02) / kT),
          p.idealityRev * kBoltzmannEv * temperatureK, -1.0};
}

}  // namespace

Model::Model(Params params) : params_(params) {
  params_.validate();
  logWindowRatio_ = std::log(params_.nDiscMax / params_.nDiscMin);
}

double Model::normalisedState(double nDisc) const {
  // Params::normalisedState with the window log cached (same value).
  const double x = std::log(nDisc / params_.nDiscMin) / logWindowRatio_;
  return std::fmin(std::fmax(x, 0.0), 1.0);
}

double Model::schottkyCurrent(double vs, double nDisc, double temperatureK) const {
  double slope = 0.0;
  return schottkyBranch(params_, vs >= 0.0, normalisedState(nDisc), temperatureK)
      .current(vs, slope);
}

Conduction Model::solveConduction(double voltage, double nDisc,
                                  double temperatureK) const {
  const Params& p = params_;
  const double rDisc = p.discResistance(nDisc);
  const double rOhmic = rDisc + p.plugResistance() + p.rSeries;
  const double x = normalisedState(nDisc);
  // Terminal conductance from the interface slope (implicit derivative of
  // vs + R * I(vs) = V).
  const auto terminalConductance = [rOhmic](double slope) {
    return slope / (1.0 + rOhmic * slope);
  };

  Conduction out;
  if (voltage == 0.0) {
    // vs = 0 sits on the forward branch, whose slope there is i0 / vt.
    double slope = 0.0;
    schottkyBranch(p, true, x, temperatureK).current(0.0, slope);
    out.conductance = terminalConductance(slope);
    out.converged = std::isfinite(out.conductance);
    return out;
  }

  // Solve f(vs) = vs + R * I_sch(vs) - V = 0. I_sch is monotone increasing
  // in vs, so f is monotone: bracket [min(0,V), max(0,V)] always contains
  // the root, and vs keeps the sign of V. Newton with bisection safeguard;
  // the derivative f' = 1 + R * dI/dvs is analytic.
  const SchottkyBranch branch = schottkyBranch(p, voltage > 0.0, x, temperatureK);
  double lo = std::min(0.0, voltage);
  double hi = std::max(0.0, voltage);
  double vs = voltage * 0.5;
  double slope = 0.0;
  double i = branch.current(vs, slope);
  bool converged = false;
  for (int iter = 0; iter < 200 && !converged; ++iter) {
    const double f = vs + rOhmic * i - voltage;
    if (std::fabs(f) < 1e-12 * std::max(1.0, std::fabs(voltage))) {
      converged = true;
      break;
    }
    if (f > 0.0) {
      hi = vs;
    } else {
      lo = vs;
    }
    double vsNew = vs - f / (1.0 + rOhmic * slope);
    if (!(vsNew > lo && vsNew < hi)) vsNew = 0.5 * (lo + hi);  // bisect
    converged = std::fabs(vsNew - vs) < 1e-15;
    vs = vsNew;
    i = branch.current(vs, slope);
  }

  out.current = i;
  out.vSchottky = vs;
  out.vDisc = i * rDisc;
  // Power heating the filament: everything except the external series
  // resistance (which sits in the electrodes, away from the filament).
  out.powerFilament = std::fabs(i * (voltage - i * p.rSeries));
  out.conductance = terminalConductance(slope);
  // A NaN state or temperature leaves the bracket finite, so the bisection
  // still settles on an endpoint: only a finite result counts as converged.
  out.converged = converged && std::isfinite(out.current) &&
                  std::isfinite(out.vSchottky) && std::isfinite(out.vDisc) &&
                  std::isfinite(out.conductance);
  return out;
}

double Model::windowSet(double nDisc) const {
  const Params& p = params_;
  const double frac = nDisc / p.nDiscMax;
  if (frac >= 1.0) return 0.0;
  return 1.0 - std::pow(frac, p.windowExponent);
}

double Model::windowReset(double nDisc) const {
  const Params& p = params_;
  const double frac = p.nDiscMin / nDisc;
  if (frac >= 1.0) return 0.0;
  return 1.0 - std::pow(frac, p.windowExponent);
}

double Model::ionicRate(double vDisc, double nDisc, double temperatureK) const {
  const Params& p = params_;
  if (vDisc == 0.0) return 0.0;
  const double gamma = p.fieldCoefficient();  // [K/V]
  if (vDisc > 0.0) {
    // SET: vacancies drift from the plug into the disc.
    const double arrhenius =
        std::exp(-p.activationEnergySet / (kBoltzmannEv * temperatureK));
    const double field = std::sinh(std::min(gamma * vDisc / temperatureK, 60.0));
    return p.kineticPrefactorSet * arrhenius * field * windowSet(nDisc);
  }
  // RESET: vacancies drift back toward the plug.
  const double arrhenius =
      std::exp(-p.activationEnergyReset / (kBoltzmannEv * temperatureK));
  const double field = std::sinh(std::min(gamma * (-vDisc) / temperatureK, 60.0));
  return -p.kineticPrefactorReset * arrhenius * field * windowReset(nDisc);
}

double Model::steadyTemperature(double powerFilament, double ambientK,
                                double crosstalkK) const {
  return ambientK + crosstalkK + params_.rThEff * powerFilament;
}

double Model::resistance(double readVoltage, double nDisc,
                         double temperatureK) const {
  if (readVoltage == 0.0) {
    throw std::invalid_argument("Model::resistance: readVoltage must be non-zero");
  }
  const Conduction c = solveConduction(readVoltage, nDisc, temperatureK);
  if (c.current == 0.0) return 1e15;
  return readVoltage / c.current;
}

}  // namespace nh::jart
