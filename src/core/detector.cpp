#include "core/detector.hpp"

#include <atomic>
#include <stdexcept>

#include "util/threadpool.hpp"

namespace nh::core {

BitFlipDetector::BitFlipDetector(DetectorConfig config) : config_(config) {
  if (!(config_.rLrsMax > 0.0) || !(config_.rHrsMin > config_.rLrsMax)) {
    throw std::invalid_argument("BitFlipDetector: need 0 < rLrsMax < rHrsMin");
  }
}

ReadState BitFlipDetector::classify(const jart::JartDevice& device) const {
  const double r = device.readResistance(config_.readVoltage);
  if (r <= config_.rLrsMax) return ReadState::Lrs;
  if (r >= config_.rHrsMin) return ReadState::Hrs;
  return ReadState::Intermediate;
}

std::vector<ReadState> BitFlipDetector::snapshot(const xbar::CrossbarArray& array) const {
  std::vector<ReadState> states;
  states.reserve(array.cellCount());
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      states.push_back(classify(array.cell(r, c)));
    }
  }
  return states;
}

std::vector<FlipEvent> BitFlipDetector::flipsSince(
    const xbar::CrossbarArray& array, const std::vector<ReadState>& reference) const {
  if (reference.size() != array.cellCount()) {
    throw std::invalid_argument("flipsSince: snapshot size mismatch");
  }
  std::vector<FlipEvent> events;
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      const ReadState now = classify(array.cell(r, c));
      const ReadState before = reference[r * array.cols() + c];
      if (now != before) {
        events.push_back({{r, c}, before, now});
      }
    }
  }
  return events;
}

std::optional<xbar::CellCoord> BitFlipDetector::firstLrs(
    const xbar::CrossbarArray& array,
    const std::vector<xbar::CellCoord>& monitored) const {
  // Each block reports its first LRS victim into `first`, which keeps the
  // lowest list index; a block stops at the first hit or once it passes the
  // best index found so far. The result is the serial scan's hit.
  std::atomic<std::size_t> first{monitored.size()};
  util::forBlocks(monitored.size(), xbar::kParallelMinCells,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < first.load(); ++i) {
      const xbar::CellCoord& coord = monitored[i];
      if (classify(array.cell(coord.row, coord.col)) != ReadState::Lrs) continue;
      std::size_t best = first.load();
      while (i < best && !first.compare_exchange_weak(best, i)) {
      }
      return;
    }
  });
  const std::size_t hit = first.load();
  if (hit == monitored.size()) return std::nullopt;
  return monitored[hit];
}

}  // namespace nh::core
