#pragma once
/// \file detector.hpp
/// Bit-flip detection: classifies cells by read resistance with a hysteresis
/// band (LRS below rLrsMax, HRS above rHrsMin, Intermediate between), takes
/// array snapshots and reports disturbed/flipped cells against a snapshot.

#include <optional>
#include <vector>

#include "xbar/array.hpp"

namespace nh::core {

/// Read-window thresholds. Defaults bracket the calibrated model: deep LRS
/// reads ~34 kOhm, deep HRS ~20 MOhm at 0.2 V.
struct DetectorConfig {
  double readVoltage = 0.2;
  double rLrsMax = 1.5e5;  ///< R below this reads as logic LRS [Ohm].
  double rHrsMin = 1.0e6;  ///< R above this reads as logic HRS [Ohm].

  /// Exact comparison (study-dedup cache key component).
  bool operator==(const DetectorConfig&) const = default;
};

/// Tri-state read classification.
enum class ReadState { Lrs, Hrs, Intermediate };

/// A detected state change relative to a snapshot.
struct FlipEvent {
  xbar::CellCoord cell;
  ReadState before = ReadState::Hrs;
  ReadState after = ReadState::Hrs;
};

class BitFlipDetector {
 public:
  explicit BitFlipDetector(DetectorConfig config = {});

  const DetectorConfig& config() const { return config_; }

  /// Classify one device by read resistance.
  ReadState classify(const jart::JartDevice& device) const;
  /// Classify the whole array.
  std::vector<ReadState> snapshot(const xbar::CrossbarArray& array) const;

  /// All cells whose classification changed relative to \p reference
  /// (Intermediate counts as a change from either deep state: the cell has
  /// been disturbed even if it has not fully flipped yet).
  std::vector<FlipEvent> flipsSince(const xbar::CrossbarArray& array,
                                    const std::vector<ReadState>& reference) const;

  /// First cell among \p monitored that currently reads LRS (the attack's
  /// success condition: HRS victim flipped to LRS). std::nullopt when none.
  /// From xbar::kParallelMinCells victims up the list is scanned in blocks on
  /// the shared pool; the result is still the earliest hit in list order.
  std::optional<xbar::CellCoord> firstLrs(
      const xbar::CrossbarArray& array,
      const std::vector<xbar::CellCoord>& monitored) const;

 private:
  DetectorConfig config_;
};

}  // namespace nh::core
