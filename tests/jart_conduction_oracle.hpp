#pragma once
/// \file jart_conduction_oracle.hpp
/// Test-only reference for jart::Model::solveConduction: the original
/// conduction solver, kept verbatim as an independent oracle. It evaluates
/// the Schottky current from scratch at every call and takes the Newton
/// derivative by a symmetric finite difference (three Schottky evaluations
/// per iteration), so it shares no code with the fused analytic solve.

#include <algorithm>
#include <cmath>

#include "jart/model.hpp"
#include "util/units.hpp"

namespace nh::jart::oracle {

inline double schottkyCurrent(const Params& p, double vs, double nDisc,
                              double temperatureK) {
  using nh::util::kBoltzmannEv;
  const double area = p.filamentArea();
  const double tt = temperatureK * temperatureK;
  const double x = p.normalisedState(nDisc);

  if (vs >= 0.0) {
    const double phi = p.phiBarrier0 - p.phiLowering * x;
    const double i0 = area * p.richardson * tt *
                      std::exp(-phi / (kBoltzmannEv * temperatureK));
    const double vt = p.idealityFwd * kBoltzmannEv * temperatureK;
    const double arg = std::min(vs / vt, 60.0);
    return i0 * (std::exp(arg) - 1.0);
  }
  const double phi = p.phiBarrierRev - p.phiLowering * x;
  const double i0 = area * p.richardson * tt *
                    std::exp(-std::max(phi, 0.02) / (kBoltzmannEv * temperatureK));
  const double vt = p.idealityRev * kBoltzmannEv * temperatureK;
  const double arg = std::min(-vs / vt, 60.0);
  return -i0 * (std::exp(arg) - 1.0);
}

/// The reference solve; leaves Conduction::conductance at 0 (the oracle's
/// conductance is a central difference of its current, taken by the test).
inline Conduction solveConduction(const Params& p, double voltage, double nDisc,
                                  double temperatureK) {
  Conduction out;
  if (voltage == 0.0) return out;

  const double rOhmic = p.discResistance(nDisc) + p.plugResistance() + p.rSeries;

  double lo = std::min(0.0, voltage);
  double hi = std::max(0.0, voltage);
  double vs = voltage * 0.5;
  bool converged = false;
  for (int iter = 0; iter < 200; ++iter) {
    const double i = schottkyCurrent(p, vs, nDisc, temperatureK);
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
    const double h = 1e-7 * std::max(1.0, std::fabs(vs)) + 1e-12;
    const double di = (schottkyCurrent(p, vs + h, nDisc, temperatureK) -
                       schottkyCurrent(p, vs - h, nDisc, temperatureK)) /
                      (2.0 * h);
    const double fp = 1.0 + rOhmic * di;
    double vsNew = vs - f / fp;
    if (!(vsNew > lo && vsNew < hi)) vsNew = 0.5 * (lo + hi);
    if (std::fabs(vsNew - vs) < 1e-15) {
      vs = vsNew;
      converged = true;
      break;
    }
    vs = vsNew;
  }

  const double i = schottkyCurrent(p, vs, nDisc, temperatureK);
  out.current = i;
  out.vSchottky = vs;
  out.vDisc = i * p.discResistance(nDisc);
  out.powerFilament = std::fabs(i * (voltage - i * p.rSeries));
  out.converged = converged;
  return out;
}

}  // namespace nh::jart::oracle
