#pragma once
/// \file analysis.hpp
/// MNA analyses: Newton-Raphson DC operating point and a backward-Euler
/// transient engine with breakpoint-aware, convergence-adaptive timestep
/// control. This is the "Cadence Virtuoso" substitute for the paper's
/// circuit-level simulation flow.

#include <functional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace nh::spice {

/// Newton-Raphson controls. A solve runs at most 100 iterations, clamps
/// each node-voltage update to 0.5 V, and converges once the largest update
/// is below 1e-9 V + 1e-6 * |v| of the largest node voltage.
struct NewtonOptions {
  /// Linear circuits only: factor once per (dt, analysis) and skip the
  /// matrix re-stamp while the Jacobian is frozen -- bit-identical to
  /// re-factoring. Nonlinear circuits re-factor on every Newton iteration
  /// either way. Set false to re-stamp and re-factor linear circuits every
  /// step too (the reference in the equivalence tests).
  bool reuseFactorization = true;
};

/// Result of a Newton solve.
struct SolveResult {
  bool converged = false;
  std::size_t iterations = 0;
  nh::util::Vector x;      ///< Solution (node voltages then branch currents).
};

/// DC operating point: solves the nonlinear MNA system at time 0 with
/// capacitors open, starting from zero.
SolveResult solveDc(Circuit& circuit);

/// A probe records one scalar per accepted transient step.
struct Probe {
  std::string label;
  std::function<double(const nh::util::Vector& x, double time)> extract;
};

/// Transient controls. Steps are clipped to waveform edges, and a step
/// that shrinks below 1e-15 s fails the run.
struct TransientOptions {
  double tStop = 0.0;          ///< End time [s]. Required.
  double dtInitial = 1e-10;    ///< First step [s].
  double dtMax = 1e-9;         ///< Ceiling [s].
  NewtonOptions newton;
  /// Invoked after every accepted step (x, time, dt). Used for inter-element
  /// couplings outside the MNA system -- the crosstalk hub exchanges
  /// filament temperatures between memristor models here, mirroring the
  /// paper's interface variables between Virtuoso and the hub.
  std::function<void(const nh::util::Vector&, double, double)> onStepAccepted;
};

/// Recorded transient results: time vector plus one series per probe.
struct TransientResult {
  bool completed = false;      ///< Reached tStop with all steps converged.
  std::string failureReason;
  std::vector<double> time;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> series;  ///< series[p][k] at time[k].

  /// Series for \p label; throws std::out_of_range when absent.
  const std::vector<double>& seriesFor(const std::string& label) const;
};

/// Run a transient analysis. Stateful elements (capacitors, memristors) are
/// advanced via Element::acceptStep after each converged step.
TransientResult runTransient(Circuit& circuit, const TransientOptions& options,
                             const std::vector<Probe>& probes = {});

/// Probe of one node's voltage, labelled "v(<nodeName>)".
Probe probeNodeVoltage(const Circuit& circuit, const std::string& nodeName);

}  // namespace nh::spice
