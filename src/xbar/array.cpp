#include "xbar/array.hpp"

#include <stdexcept>

#include "util/matrix.hpp"

namespace nh::xbar {

CrossbarArray::CrossbarArray(const ArrayConfig& config) : config_(config) {
  if (config.rows == 0 || config.cols == 0) {
    throw std::invalid_argument("CrossbarArray: empty array");
  }
  config_.cellParams.validate();
  cells_.reserve(config.rows * config.cols);
  for (std::size_t i = 0; i < config.rows * config.cols; ++i) {
    cells_.emplace_back(config_.cellParams, config_.ambientK);
  }
}

jart::JartDevice& CrossbarArray::cell(std::size_t row, std::size_t col) {
  if (row >= config_.rows || col >= config_.cols) {
    throw std::out_of_range("CrossbarArray::cell: coordinate out of range");
  }
  return cells_[row * config_.cols + col];
}

const jart::JartDevice& CrossbarArray::cell(std::size_t row, std::size_t col) const {
  if (row >= config_.rows || col >= config_.cols) {
    throw std::out_of_range("CrossbarArray::cell: coordinate out of range");
  }
  return cells_[row * config_.cols + col];
}

void CrossbarArray::fill(CellState state) {
  for (auto& device : cells_) {
    if (state == CellState::Lrs) {
      device.setLrs();
    } else {
      device.setHrs();
    }
  }
}

void CrossbarArray::setState(std::size_t row, std::size_t col, CellState state) {
  auto& device = cell(row, col);
  if (state == CellState::Lrs) {
    device.setLrs();
  } else {
    device.setHrs();
  }
}

void CrossbarArray::setAmbient(double ambientK) {
  config_.ambientK = ambientK;
  for (auto& device : cells_) device.setAmbient(ambientK);
}

CellState CrossbarArray::stateOf(std::size_t row, std::size_t col) const {
  return cell(row, col).normalisedState() >= 0.5 ? CellState::Lrs : CellState::Hrs;
}

nh::util::Matrix CrossbarArray::normalisedStates() const {
  nh::util::Matrix out(config_.rows, config_.cols, 0.0);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      out(r, c) = cell(r, c).normalisedState();
    }
  }
  return out;
}

nh::util::Matrix CrossbarArray::temperatures() const {
  nh::util::Matrix out(config_.rows, config_.cols, 0.0);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      out(r, c) = cell(r, c).temperature();
    }
  }
  return out;
}

nh::util::Matrix CrossbarArray::readResistances(double readVoltage) const {
  nh::util::Matrix out(config_.rows, config_.cols, 0.0);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      out(r, c) = cell(r, c).readResistance(readVoltage);
    }
  }
  return out;
}

}  // namespace nh::xbar
