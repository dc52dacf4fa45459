#include "jart/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nh::jart {

JartDevice::JartDevice(const Params& params, double ambientK, double nDiscInitial)
    : model_(params), ambientK_(ambientK) {
  if (!(ambientK > 0.0)) {
    throw std::invalid_argument("JartDevice: ambient temperature must be > 0 K");
  }
  nDisc_ = nDiscInitial > 0.0 ? nDiscInitial : params.nDiscMin;
  setNDisc(nDisc_);
}

double JartDevice::current(double v) const { return evaluate(v).current; }

double JartDevice::conductance(double v) const { return evaluate(v).conductance; }

nh::spice::CurrentAndConductance JartDevice::evaluate(double v) const {
  const Conduction c = model_.solveConduction(v, nDisc_, temperature());
  return {c.current, c.conductance, c.converged};
}

void JartDevice::setNDisc(double n) {
  const Params& p = model_.params();
  nDisc_ = std::clamp(n, p.nDiscMin, p.nDiscMax);
}

void JartDevice::setAmbient(double t0) {
  if (!(t0 > 0.0)) throw std::invalid_argument("JartDevice::setAmbient: need T0 > 0");
  // Excess terms are relative to ambient, so only the baseline shifts.
  ambientK_ = t0;
}

void JartDevice::advance(double v, double dt) {
  advanceWith(dt, [&](double nDisc, double temperatureK) {
    // solveConduction at 0 V returns zero current, V_disc and power; only
    // its convergence flag needs the operating point to be finite.
    if (v == 0.0 && std::isfinite(nDisc) && temperatureK > 0.0 &&
        std::isfinite(temperatureK)) {
      return Conduction{};
    }
    return model_.solveConduction(v, nDisc, temperatureK);
  });
}

double JartDevice::readResistance(double readVoltage) const {
  return model_.resistance(readVoltage, nDisc_, temperature());
}

}  // namespace nh::jart
