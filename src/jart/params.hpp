#pragma once
/// \file params.hpp
/// Parameter set of the JART-VCM-v1b-style compact model for filamentary
/// valence-change (VCM) ReRAM cells (Pt/HfO2/TiOx/Ti stack), after Bengel et
/// al. (TCAS-I 2020) and Menzel et al. The deterministic variant is used by
/// default, matching the paper ("the deterministic model version is used
/// here"); a variability helper perturbs device-to-device parameters.
///
/// The model splits the applied voltage across a Schottky-type interface,
/// the vacancy-depleted "disc", the vacancy-rich "plug" and a linear series
/// resistance, and evolves one state variable: the oxygen-vacancy donor
/// concentration in the disc, N_disc.
///
/// Absolute values are calibrated (see the SwitchingTime tests in
/// tests/test_jart_kinetics.cpp) such that
///  * a full-select SET at V_SET = 1.05 V, 300 K completes within ~100 ns,
///  * a half-select (V_SET/2) stress at 300 K is harmless for >= 10^6 pulses,
///  * a half-select stress on a cell heated by ~60-100 K of thermal
///    crosstalk flips within 10^2..10^5 pulses -- the regime of Fig. 3.

#include <cstdint>

#include "util/rng.hpp"

namespace nh::jart {

struct Params {
  // ---- geometry -----------------------------------------------------------
  /// Filament radius [m] (paper Fig. 2b: diameter 30 nm, height 5 nm).
  double rFilament = 15e-9;
  /// Total filament/cell oxide thickness [m].
  double lCell = 5e-9;
  /// Disc (switching layer) thickness [m].
  double lDisc = 1e-9;
  /// Plug (vacancy reservoir) thickness [m]; lDisc + lPlug == lCell.
  double lPlug = 4e-9;

  // ---- state variable window ----------------------------------------------
  /// Minimum disc donor concentration [m^-3] (deep HRS).
  double nDiscMin = 8e23;
  /// Maximum disc donor concentration [m^-3] (deep LRS).
  double nDiscMax = 2e27;
  /// Fixed plug donor concentration [m^-3].
  double nPlug = 2e27;

  // ---- conduction -----------------------------------------------------------
  /// Electron mobility in the oxide [m^2 V^-1 s^-1].
  double mobility = 4e-6;
  /// Linear series resistance (TiOx layer + electrode lines) [Ohm].
  double rSeries = 650.0;
  /// Effective Richardson constant of the Schottky interface [A m^-2 K^-2].
  double richardson = 6.01e5;
  /// Zero-lowering forward Schottky barrier [eV] (deep HRS value).
  double phiBarrier0 = 0.32;
  /// Barrier lowering between deep HRS and deep LRS [eV]; the effective
  /// barrier is phiBarrier0 - phiLowering * x with x = normalised ln(N).
  double phiLowering = 0.17;
  /// Forward ideality factor.
  double idealityFwd = 1.6;
  /// Reverse (RESET-polarity) barrier [eV] and ideality. The large ideality
  /// models the tunnelling-assisted leaky reverse conduction of VCM cells.
  double phiBarrierRev = 0.30;
  double idealityRev = 4.0;

  // ---- thermal (Eq. 6 of the paper) ----------------------------------------
  /// Effective thermal resistance filament -> surroundings [K/W]. The
  /// simulation flow can override this with the FEM-extracted R_th.
  /// Default equals the R_th our FEM extraction reports for the 50 nm
  /// 5x5 crossbar (~1.9e6 K/W); the simulation flow overrides it with the
  /// extraction result of the concrete geometry, exactly as the paper feeds
  /// the COMSOL-fitted R_th into the circuit simulation.
  double rThEff = 1.95e6;
  /// Filament thermal time constant [s]; the temperature relaxes toward
  /// T0 + T_crosstalk + RthEff*P with this first-order lag.
  double tauThermal = 2e-9;

  // ---- switching kinetics ----------------------------------------------------
  /// Ion-hopping activation energy [eV] (SET direction). Together with the
  /// sinh field term this sets the hot-vs-cold half-select discrimination
  /// (~3 decades of switching time per ~75 K, matching Fig. 3b/c spans).
  double activationEnergySet = 1.10;
  /// Activation energy for RESET [eV].
  double activationEnergyReset = 1.15;
  /// Kinetic prefactor [m^-3 s^-1]: aggregates attempt frequency, vacancy
  /// concentration and hop distance (calibrated so a full-select SET at
  /// V_SET = 1.05 V, 300 K completes in ~10-100 ns).
  double kineticPrefactorSet = 2.0e42;
  double kineticPrefactorReset = 7.5e42;
  /// Hop distance [m] and charge number entering the field-acceleration
  /// term sinh(fieldEnhancement * a*z*e*E / (2*kB*T)).
  double hopDistance = 0.25e-9;
  double chargeNumber = 2.0;
  /// Local-field enhancement inside the disc (dimensionless). Absorbs the
  /// difference between the average disc field V_disc/l_disc and the local
  /// field at the hopping site; calibrated to give the ultra-nonlinear
  /// voltage dependence (Menzel 2011) that separates full-select writes
  /// (~ns) from half-select stress (~s at 300 K).
  double fieldEnhancement = 3.45;
  /// Soft-window exponent keeping N_disc inside [nDiscMin, nDiscMax].
  double windowExponent = 10.0;

  // ---- derived quantities ----------------------------------------------------
  /// Filament cross-section area [m^2].
  double filamentArea() const;
  /// Electric conductivity of a region with donor concentration n [S/m].
  double conductivity(double n) const;
  /// Disc resistance at concentration n [Ohm].
  double discResistance(double n) const;
  /// Plug resistance [Ohm].
  double plugResistance() const;
  /// sinh-argument coefficient a*z*e/(2*kB*lDisc) [K/V].
  double fieldCoefficient() const;
  /// Normalised state x in [0, 1]: ln(N/Nmin)/ln(Nmax/Nmin).
  double normalisedState(double n) const;

  /// Throws std::invalid_argument when a physical constraint is violated
  /// (negative lengths, inverted window, lDisc+lPlug != lCell, ...).
  void validate() const;

  /// Exact member-wise comparison (C++20 defaulted); the experiment
  /// engine's study-dedup cache relies on it.
  bool operator==(const Params&) const = default;

  /// Default parameter set used throughout the reproduction.
  static Params paperDefaults();

  /// Device-to-device variability: perturbs filament radius, disc length and
  /// the N window log-normally with relative sigma \p sigma. Deterministic
  /// given \p rng. (Extension beyond the paper's deterministic runs.)
  Params withVariability(nh::util::Rng& rng, double sigma) const;
};

}  // namespace nh::jart
