#pragma once
/// \file spicesim.hpp
/// Circuit-accurate crossbar engine: builds a full nh::spice netlist with a
/// distributed line model (per-segment word/bit line resistance, line
/// capacitance, driver impedance) and one behavioural memristor per cell,
/// then runs the transient analysis. This is the high-fidelity reference
/// path ("Cadence Virtuoso" role); the FastEngine is validated against it.

#include <memory>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "xbar/array.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/scheme.hpp"

namespace nh::xbar {

/// Options for the SPICE-level crossbar run. The transient starts at a
/// 1e-11 s step and never steps further than 2e-10 s.
struct SpiceEngineOptions {
  /// Record per-cell state/temperature traces (adds probes).
  bool traceCells = true;
};

/// Per-line pulse programming: the stimuli for one transient run.
struct LineStimulus {
  bool isWordLine = true;
  std::size_t index = 0;
  nh::spice::PulseSpec pulse;  ///< base level = the resting bias of the line.
};

/// Circuit-accurate engine bound to an array. The netlist references the
/// array's JartDevice states directly, so fast and SPICE engines can be run
/// interleaved on the same array.
class SpiceCrossbar {
 public:
  SpiceCrossbar(CrossbarArray& array, AlphaTable table,
                SpiceEngineOptions options = {});

  /// Program the line drivers: every line gets a constant bias except those
  /// listed in \p stimuli, which get pulse waveforms. \p resting applies to
  /// un-stimulated lines (e.g. V/2 on all, pulses on the selected pair).
  void programDrivers(const LineBias& resting,
                      const std::vector<LineStimulus>& stimuli);

  /// Convenience: program a hammer operation on cell (row, col) under the
  /// V/2 scheme -- selected word line pulses base->V, selected bit line held
  /// at 0, every other line at V/2 (the paper's attack stimulus).
  void programHammer(std::size_t row, std::size_t col, double vSet, double width,
                     double period, long long count);

  /// Run a transient for \p tStop seconds. Device states in the bound array
  /// advance; the crosstalk hub is refreshed after every accepted step.
  nh::spice::TransientResult run(double tStop);

  /// Accumulated simulated time over all run() calls [s].
  double time() const { return time_; }

  nh::spice::Circuit& circuit() { return circuit_; }
  /// Node names of the array-side line nodes (diagnostics).
  std::string wordLineNode(std::size_t row, std::size_t segment) const;
  std::string bitLineNode(std::size_t col, std::size_t segment) const;

 private:
  void buildNetlist();
  void refreshCrosstalk();

  CrossbarArray* array_;
  CrosstalkHub hub_;
  SpiceEngineOptions options_;
  nh::spice::Circuit circuit_;
  /// Driver sources, word lines then bit lines.
  std::vector<nh::spice::VoltageSource*> drivers_;
  /// Memristor elements, row-major.
  std::vector<nh::spice::Memristor*> memristors_;
  double time_ = 0.0;
};

}  // namespace nh::xbar
