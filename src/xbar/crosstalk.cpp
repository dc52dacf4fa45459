#include "xbar/crosstalk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linsolve.hpp"

namespace nh::xbar {

namespace {

/// Canonical alpha tables extracted with nh::fem::extractAlpha from the
/// default 5x5 CrossbarLayout (see the alpha_extraction experiment) at three
/// electrode spacings. Offsets are (|dRow|, |dCol|); dRow = along a bit
/// line (cells share the top electrode), dCol = along a word line (cells
/// share the bottom electrode the filament sits on, hence the stronger
/// coupling). analytic() interpolates these log-linearly in spacing.
struct CanonicalTable {
  double spacing;      // [m]
  double rTh;          // [K/W]
  // alpha[dRow][dCol], dRow/dCol in 0..2, alpha[0][0] unused.
  double alpha[3][3];
};

constexpr CanonicalTable kCanonical[] = {
    {10e-9, 1.96e6, {{0.0, 0.4362, 0.3300},
                     {0.2994, 0.2810, 0.2588},
                     {0.2319, 0.2263, 0.2171}}},
    {50e-9, 1.93e6, {{0.0, 0.2572, 0.1311},
                     {0.1265, 0.1011, 0.0770},
                     {0.0788, 0.0690, 0.0577}}},
    {90e-9, 1.94e6, {{0.0, 0.1609, 0.0543},
                     {0.0761, 0.0479, 0.0274},
                     {0.0344, 0.0256, 0.0176}}},
};

}  // namespace

AlphaTable::AlphaTable(long long radius) : radius_(radius) {
  if (radius < 0) throw std::invalid_argument("AlphaTable: negative radius");
  const std::size_t side = static_cast<std::size_t>(2 * radius + 1);
  table_.assign(side * side, 0.0);
}

std::size_t AlphaTable::index(long long dRow, long long dCol) const {
  const std::size_t side = static_cast<std::size_t>(2 * radius_ + 1);
  return static_cast<std::size_t>(dRow + radius_) * side +
         static_cast<std::size_t>(dCol + radius_);
}

double AlphaTable::at(long long dRow, long long dCol) const {
  if (dRow == 0 && dCol == 0) return 0.0;
  if (std::llabs(dRow) > radius_ || std::llabs(dCol) > radius_) return 0.0;
  return table_[index(dRow, dCol)];
}

void AlphaTable::set(long long dRow, long long dCol, double value) {
  if (std::llabs(dRow) > radius_ || std::llabs(dCol) > radius_) {
    throw std::out_of_range("AlphaTable::set: offset outside table");
  }
  if (dRow == 0 && dCol == 0) {
    throw std::invalid_argument("AlphaTable::set: (0,0) is the cell itself");
  }
  table_[index(dRow, dCol)] = value;
}

void AlphaTable::truncate(long long maxDistance) {
  for (long long dr = -radius_; dr <= radius_; ++dr) {
    for (long long dc = -radius_; dc <= radius_; ++dc) {
      if (std::max(std::llabs(dr), std::llabs(dc)) > maxDistance &&
          !(dr == 0 && dc == 0)) {
        table_[index(dr, dc)] = 0.0;
      }
    }
  }
}

double AlphaTable::totalCoupling() const {
  double acc = 0.0;
  for (const double a : table_) acc += a;
  return acc;
}

AlphaTable AlphaTable::fromExtraction(const fem::AlphaResult& extraction) {
  const auto& alpha = extraction.alpha;
  const long long rows = static_cast<long long>(alpha.rows());
  const long long cols = static_cast<long long>(alpha.cols());
  const long long sr = static_cast<long long>(extraction.selectedRow);
  const long long sc = static_cast<long long>(extraction.selectedCol);
  const long long radius =
      std::max({sr, rows - 1 - sr, sc, cols - 1 - sc});

  AlphaTable table(radius);
  table.rTh_ = extraction.rTh;
  for (long long r = 0; r < rows; ++r) {
    for (long long c = 0; c < cols; ++c) {
      if (r == sr && c == sc) continue;
      table.table_[table.index(r - sr, c - sc)] = alpha(static_cast<std::size_t>(r),
                                                        static_cast<std::size_t>(c));
    }
  }
  return table;
}

AlphaTable AlphaTable::analytic(double spacingMeters) {
  if (!(spacingMeters > 0.0)) {
    throw std::invalid_argument("AlphaTable::analytic: spacing must be > 0");
  }
  constexpr std::size_t kCount = sizeof(kCanonical) / sizeof(kCanonical[0]);

  // Log-linear interpolation between the canonical spacings; clamped
  // log-linear extrapolation outside.
  const auto valueAt = [&](auto member) {
    const double s = std::clamp(spacingMeters, kCanonical[0].spacing,
                                kCanonical[kCount - 1].spacing);
    std::size_t hi = 1;
    while (hi + 1 < kCount && kCanonical[hi].spacing < s) ++hi;
    const auto& a = kCanonical[hi - 1];
    const auto& b = kCanonical[hi];
    const double t = (s - a.spacing) / (b.spacing - a.spacing);
    const double va = member(a);
    const double vb = member(b);
    return va * std::pow(vb / va, t);  // log-linear in the value
  };

  AlphaTable table(2);
  table.rTh_ = valueAt([](const CanonicalTable& t) { return t.rTh; });
  for (long long dr = -2; dr <= 2; ++dr) {
    for (long long dc = -2; dc <= 2; ++dc) {
      if (dr == 0 && dc == 0) continue;
      const std::size_t ar = static_cast<std::size_t>(std::llabs(dr));
      const std::size_t ac = static_cast<std::size_t>(std::llabs(dc));
      table.table_[table.index(dr, dc)] =
          valueAt([&](const CanonicalTable& t) { return t.alpha[ar][ac]; });
    }
  }
  return table;
}

CrosstalkHub::CrosstalkHub(std::size_t rows, std::size_t cols, AlphaTable table)
    : rows_(rows), cols_(cols), table_(std::move(table)) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("CrosstalkHub: empty array");
  }
  const long long radius = table_.radius();
  taps_.reserve(static_cast<std::size_t>((2 * radius + 1) * (2 * radius + 1)));
  for (long long dr = -radius; dr <= radius; ++dr) {
    for (long long dc = -radius; dc <= radius; ++dc) {
      const double a = table_.at(dr, dc);
      if (a != 0.0) taps_.push_back({dr, dc, a});
      couplingSum_ += std::fabs(a);
    }
  }
}

nh::util::Matrix CrosstalkHub::inputTemperatures(const nh::util::Matrix& excess) const {
  nh::util::Matrix tin;
  inputTemperatures(excess, tin);
  return tin;
}

void CrosstalkHub::inputTemperatures(const nh::util::Matrix& excess,
                                     nh::util::Matrix& tin) const {
  if (tin.rows() != rows_ || tin.cols() != cols_) tin.resize(rows_, cols_, 0.0);
  inputTemperatures(excess, tin, 0, rows_);
}

void CrosstalkHub::inputTemperatures(const nh::util::Matrix& excess,
                                     nh::util::Matrix& tin, std::size_t rowBegin,
                                     std::size_t rowEnd) const {
  if (excess.rows() != rows_ || excess.cols() != cols_) {
    throw std::invalid_argument("CrosstalkHub: excess shape mismatch");
  }
  if (tin.rows() != rows_ || tin.cols() != cols_ || rowBegin > rowEnd ||
      rowEnd > rows_) {
    throw std::invalid_argument("CrosstalkHub: output shape or row range mismatch");
  }
  // Eq. 5 as linear superposition of every cell's *self*-heating: the alpha
  // values were extracted with a single heated cell, so the coupled field of
  // many sources is the sum of the single-source solutions. (Feeding back
  // total temperatures instead would double-count and diverges for dense
  // spacings where the coupling sum exceeds 1.)
  const auto rows = static_cast<long long>(rows_);
  const auto cols = static_cast<long long>(cols_);
  for (auto r = static_cast<long long>(rowBegin); r < static_cast<long long>(rowEnd);
       ++r) {
    for (long long c = 0; c < cols; ++c) {
      double acc = 0.0;
      for (const Tap& tap : taps_) {
        const long long jr = r + tap.dRow;
        const long long jc = c + tap.dCol;
        if (jr < 0 || jr >= rows || jc < 0 || jc >= cols) continue;
        acc += tap.alpha *
               excess(static_cast<std::size_t>(jr), static_cast<std::size_t>(jc));
      }
      tin(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = acc;
    }
  }
}

void CrosstalkHub::scatterActive(const nh::util::Matrix& excess, double floorK,
                                 nh::util::Matrix& tin, std::size_t rowBegin,
                                 std::size_t rowEnd) const {
  if (excess.rows() != rows_ || excess.cols() != cols_) {
    throw std::invalid_argument("CrosstalkHub: excess shape mismatch");
  }
  if (tin.rows() != rows_ || tin.cols() != cols_ || rowBegin > rowEnd ||
      rowEnd > rows_) {
    throw std::invalid_argument("CrosstalkHub: output shape or row range mismatch");
  }
  const auto cols = static_cast<long long>(cols_);
  const auto begin = static_cast<long long>(rowBegin);
  const auto end = static_cast<long long>(rowEnd);
  for (long long r = begin; r < end; ++r) {
    for (long long c = 0; c < cols; ++c) {
      tin(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = 0.0;
    }
  }
  // A target's sources lie within the table radius of it. Each target sums
  // its sources in row-major order, as the gather sums its taps; a skipped
  // zero source only adds +0.0 there, which leaves a sum that started at
  // +0.0 unchanged.
  const long long radius = table_.radius();
  const long long srcBegin = std::max(begin - radius, 0LL);
  const long long srcEnd = std::min(end + radius, static_cast<long long>(rows_));
  for (long long jr = srcBegin; jr < srcEnd; ++jr) {
    for (long long jc = 0; jc < cols; ++jc) {
      const double e = excess(static_cast<std::size_t>(jr), static_cast<std::size_t>(jc));
      if (std::fabs(e) * couplingSum_ <= floorK) continue;
      for (const Tap& tap : taps_) {
        const long long r = jr - tap.dRow;
        const long long c = jc - tap.dCol;
        if (r < begin || r >= end || c < 0 || c >= cols) continue;
        tin(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += tap.alpha * e;
      }
    }
  }
}

nh::util::Matrix CrosstalkHub::solveCoupledExcess(const nh::util::Matrix& cellPower,
                                                  double rth) const {
  if (cellPower.rows() != rows_ || cellPower.cols() != cols_) {
    throw std::invalid_argument("CrosstalkHub: power shape mismatch");
  }
  // Superposition: excess_i = rth*P_i + sum_j alpha_ij * (rth*P_j).
  nh::util::Matrix self(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      self(r, c) = rth * cellPower(r, c);
    }
  }
  const nh::util::Matrix tin = inputTemperatures(self);
  nh::util::Matrix total(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      total(r, c) = self(r, c) + tin(r, c);
    }
  }
  return total;
}

}  // namespace nh::xbar
