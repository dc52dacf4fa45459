#pragma once
/// \file files.hpp
/// The init and stimuli file formats of the simulation framework (paper
/// Sec. IV-B: "The stimuli file stores the explicit characteristics, i.e.
/// pulse length, duty cycle, and amplitude of each input pulse, while the
/// init file holds the initial state of every ReRAM cell.").
///
/// Init file: one cell per line --
///     <row> <col> LRS|HRS|<nDisc in m^-3>
///
/// Stimuli file: one driver programming per line --
///     WL|BL <index> <amplitude V> <length ns> <duty 0..1> <count> [delay ns]
/// '#' starts a comment in both formats.

#include <string>
#include <vector>

#include "xbar/array.hpp"
#include "xbar/spicesim.hpp"

namespace nh::xbar {

/// Parsed init file: per-cell initial states.
struct InitEntry {
  std::size_t row = 0;
  std::size_t col = 0;
  double nDisc = 0.0;  ///< Explicit concentration, or +-1 sentinel below.
  bool isLrs = false;
  bool explicitConcentration = false;
};

/// Parse init text. Throws std::runtime_error with line context on errors.
std::vector<InitEntry> parseInit(const std::string& text);
/// Apply parsed init entries to an array (bounds-checked).
void applyInit(CrossbarArray& array, const std::vector<InitEntry>& entries);
/// Serialise the array's current states into init-file text.
std::string dumpInit(const CrossbarArray& array);

/// Parse stimuli text into line stimuli for the SPICE engine.
std::vector<LineStimulus> parseStimuli(const std::string& text);
/// Validate stimuli against an array's dimensions; throws on out-of-range
/// line indices or non-physical pulse parameters.
void validateStimuli(const CrossbarArray& array,
                     const std::vector<LineStimulus>& stimuli);

}  // namespace nh::xbar
