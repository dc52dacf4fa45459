#pragma once
/// \file model.hpp
/// Stateless evaluation routines of the JART-style VCM compact model:
/// conduction (I-V at given state and temperature), ionic switching rate
/// (dN_disc/dt) and the quasi-static thermal equation (paper Eq. 6).
/// State integration lives in device.hpp / kinetics.hpp.

#include "jart/params.hpp"

namespace nh::jart {

/// Result of one conduction solve at fixed (V, N_disc, T).
struct Conduction {
  double current = 0.0;         ///< Terminal current [A] (positive for V > 0).
  double vSchottky = 0.0;       ///< Share of V across the interface [V].
  double vDisc = 0.0;           ///< Share across the disc [V] (drives kinetics).
  double powerFilament = 0.0;   ///< Power dissipated in the filament region
                                ///< (disc + plug + interface, excl. series R) [W].
  /// Small-signal terminal conductance dI/dV [S], the implicit derivative of
  /// the voltage division: g = I's / (1 + R * I's), with I's = dI_sch/dvs at
  /// the solved interface voltage and R the ohmic (disc + plug + series)
  /// resistance. At V = 0 it is the zero-bias slope of the forward branch.
  double conductance = 0.0;
  bool converged = true;        ///< Solve converged to a finite result.
};

/// Sign convention: V > 0 is the SET polarity (drives the cell toward LRS);
/// V < 0 is the RESET polarity.
class Model {
 public:
  explicit Model(Params params);

  const Params& params() const { return params_; }

  /// Solve the internal voltage division and return terminal current, the
  /// disc field needed by the kinetics and the terminal conductance, all
  /// from one solve. Monotone 1-D Newton with a bisection safeguard; for
  /// finite inputs it always converges on the bracketed interval, and a
  /// non-finite result reports converged = false. The per-(N_disc, T)
  /// Schottky constants are computed once per call and each Newton
  /// iteration uses the analytic interface derivative (one exp per
  /// iteration).
  Conduction solveConduction(double voltage, double nDisc, double temperatureK) const;

  /// Schottky interface current at interface voltage \p vs [A].
  double schottkyCurrent(double vs, double nDisc, double temperatureK) const;

  /// Ionic drift rate dN_disc/dt [m^-3 s^-1]. Positive = SET direction.
  /// \p vDisc is the (signed) voltage across the disc from solveConduction.
  double ionicRate(double vDisc, double nDisc, double temperatureK) const;

  /// Steady-state filament temperature (Eq. 6 + crosstalk):
  /// T = T0 + T_crosstalk + RthEff * P.
  double steadyTemperature(double powerFilament, double ambientK,
                           double crosstalkK) const;

  /// Device resistance V/I at a given read voltage, state and temperature.
  double resistance(double readVoltage, double nDisc, double temperatureK) const;

  /// Soft window functions in [0, 1].
  double windowSet(double nDisc) const;
  double windowReset(double nDisc) const;

 private:
  /// Params::normalisedState from the cached window log.
  double normalisedState(double nDisc) const;

  Params params_;
  double logWindowRatio_;  ///< ln(Nmax/Nmin), cached for normalisedState.
};

}  // namespace nh::jart
