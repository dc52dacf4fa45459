#include "jart/params.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace nh::jart {

double Params::filamentArea() const {
  return nh::util::kPi * rFilament * rFilament;
}

double Params::conductivity(double n) const {
  return n * nh::util::kElementaryCharge * mobility;
}

double Params::discResistance(double n) const {
  return lDisc / (conductivity(n) * filamentArea());
}

double Params::plugResistance() const {
  return lPlug / (conductivity(nPlug) * filamentArea());
}

double Params::fieldCoefficient() const {
  return fieldEnhancement * hopDistance * chargeNumber *
         nh::util::kElementaryCharge / (2.0 * nh::util::kBoltzmann * lDisc);
}

double Params::normalisedState(double n) const {
  const double x = std::log(n / nDiscMin) / std::log(nDiscMax / nDiscMin);
  return std::fmin(std::fmax(x, 0.0), 1.0);
}

void Params::validate() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("jart::Params: ") + what);
  };
  check(rFilament > 0.0, "rFilament must be > 0");
  check(lDisc > 0.0 && lPlug > 0.0, "lDisc/lPlug must be > 0");
  check(std::fabs(lDisc + lPlug - lCell) < 1e-15, "lDisc + lPlug must equal lCell");
  check(nDiscMin > 0.0 && nDiscMax > nDiscMin, "need 0 < nDiscMin < nDiscMax");
  check(nPlug > 0.0, "nPlug must be > 0");
  check(mobility > 0.0, "mobility must be > 0");
  check(rSeries >= 0.0, "rSeries must be >= 0");
  check(richardson > 0.0, "richardson must be > 0");
  check(phiBarrier0 > 0.0 && phiBarrier0 > phiLowering, "barrier must stay positive");
  check(idealityFwd >= 1.0 && idealityRev >= 1.0, "ideality factors must be >= 1");
  check(rThEff > 0.0, "rThEff must be > 0");
  check(tauThermal > 0.0, "tauThermal must be > 0");
  check(activationEnergySet > 0.0 && activationEnergyReset > 0.0,
        "activation energies must be > 0");
  check(kineticPrefactorSet > 0.0 && kineticPrefactorReset > 0.0,
        "kinetic prefactors must be > 0");
  check(hopDistance > 0.0 && chargeNumber > 0.0, "hop parameters must be > 0");
  check(windowExponent >= 1.0, "windowExponent must be >= 1");
}

Params Params::paperDefaults() {
  Params p;  // member initialisers hold the calibrated values
  p.validate();
  return p;
}

Params Params::withVariability(nh::util::Rng& rng, double sigma) const {
  if (!(std::isfinite(sigma) && sigma >= 0.0))
    throw std::invalid_argument("withVariability: sigma must be finite and >= 0");
  Params p = *this;
  const auto lognormal = [&](double value) {
    return value * std::exp(rng.normal(0.0, sigma));
  };
  p.rFilament = lognormal(rFilament);
  p.nDiscMax = lognormal(nDiscMax);
  p.nDiscMin = lognormal(nDiscMin);
  if (p.nDiscMin >= p.nDiscMax) p.nDiscMin = p.nDiscMax * 1e-4;
  // Small additive jitter on the activation energy: the dominant source of
  // cycle-to-cycle spread in switching time.
  p.activationEnergySet += rng.normal(0.0, sigma * 0.05);
  p.activationEnergyReset += rng.normal(0.0, sigma * 0.05);
  p.validate();
  return p;
}

}  // namespace nh::jart
