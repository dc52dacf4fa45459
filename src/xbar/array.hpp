#pragma once
/// \file array.hpp
/// The passive m x n memristive crossbar: a JART device at every word-line /
/// bit-line crossing, plus the electrical line parameters used by the
/// engines. This is the central data structure of the circuit-level
/// framework (paper Fig. 2c).

#include <cstddef>
#include <vector>

#include "jart/device.hpp"

namespace nh::xbar {

/// Cell coordinate (row = word line, col = bit line).
struct CellCoord {
  std::size_t row = 0;
  std::size_t col = 0;
  bool operator==(const CellCoord&) const = default;
};

/// Cell count from which the per-cell loops over one array -- FastEngine's
/// Jacobian fill, crosstalk refresh and device advance, and the detector's
/// victim scan -- run in contiguous blocks on the shared thread pool.
inline constexpr std::size_t kParallelMinCells = 1024;

/// Array construction parameters.
struct ArrayConfig {
  std::size_t rows = 5;
  std::size_t cols = 5;
  jart::Params cellParams = jart::Params::paperDefaults();
  double ambientK = 300.0;
  /// Metal line resistance per cell pitch [Ohm] (used by the SPICE engine's
  /// distributed line model).
  double lineResistancePerCell = 2.5;
  /// Driver output impedance per line [Ohm] (both engines).
  double driverResistance = 50.0;
  /// Line capacitance per cell pitch [F] (SPICE engine only).
  double lineCapacitancePerCell = 0.5e-15;
};

/// Logical bit convention: LRS = 1, HRS = 0 (stored datum).
enum class CellState { Hrs = 0, Lrs = 1 };

/// The crossbar array: owns the device states.
class CrossbarArray {
 public:
  explicit CrossbarArray(const ArrayConfig& config);

  const ArrayConfig& config() const { return config_; }
  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }
  std::size_t cellCount() const { return cells_.size(); }

  jart::JartDevice& cell(std::size_t row, std::size_t col);
  const jart::JartDevice& cell(std::size_t row, std::size_t col) const;
  jart::JartDevice& cell(const CellCoord& c) { return cell(c.row, c.col); }
  const jart::JartDevice& cell(const CellCoord& c) const { return cell(c.row, c.col); }

  /// Set every cell to a deep state.
  void fill(CellState state);
  /// Set one cell to a deep state.
  void setState(std::size_t row, std::size_t col, CellState state);
  /// Change the ambient temperature of every cell.
  void setAmbient(double ambientK);
  /// Reset all filament temperatures to ambient and clear crosstalk inputs
  /// (long idle period).
  void relaxAll();

  /// Classify a cell by its normalised state (>= 0.5 -> LRS). Cheap,
  /// non-disturbing; the detector in nh::core offers resistance-threshold
  /// classification on top.
  CellState stateOf(std::size_t row, std::size_t col) const;

  /// Per-cell normalised state / filament temperature snapshots (row-major
  /// matrices) for traces and dumps.
  nh::util::Matrix normalisedStates() const;
  nh::util::Matrix temperatures() const;
  nh::util::Matrix readResistances(double readVoltage = 0.2) const;

 private:
  ArrayConfig config_;
  std::vector<jart::JartDevice> cells_;
};

}  // namespace nh::xbar
