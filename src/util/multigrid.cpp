#include "util/multigrid.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"

namespace nh::util {

namespace {

/// Every Gauss-Seidel sweep divides by the row diagonal, so a level matrix
/// with a missing/zero/non-finite diagonal entry must be rejected at setup
/// time (compute() returning false trips the Multigrid -> IC(0) -> Jacobi
/// fallback ladder) rather than detonating inside the smoother -- the old
/// assert was silent under NDEBUG and the division produced Inf/NaN.
bool hasUsableDiagonal(const SparseMatrix& a) {
  const auto& rowPtr = a.rowPtr();
  const auto& colIdx = a.colIdx();
  const auto& val = a.values();
  const std::size_t n = a.rows();
  for (std::size_t r = 0; r < n; ++r) {
    double diag = 0.0;
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      if (colIdx[k] == r) {
        diag = val[k];
        break;
      }
    }
    if (diag == 0.0 || !std::isfinite(diag)) return false;
  }
  return true;
}

/// 1-D cell-centred interpolation weights for fine cell \p i from the
/// bracketing coarse cells. Fine centres sit at i + 0.5 (fine-spacing
/// units), coarse centres at 2I + 1; boundary cells clamp, collapsing to a
/// single weight-1 entry.
struct LineWeights {
  std::size_t idx[2];
  double w[2];
  int count;
};

LineWeights lineWeights(std::size_t i, std::size_t nc) {
  const double t = (static_cast<double>(i) - 0.5) / 2.0;
  const double fl = std::floor(t);
  const double frac = t - fl;
  long left = static_cast<long>(fl);
  long right = left + 1;
  const long last = static_cast<long>(nc) - 1;
  left = left < 0 ? 0 : (left > last ? last : left);
  right = right < 0 ? 0 : (right > last ? last : right);

  LineWeights out;
  if (left == right) {
    out.idx[0] = static_cast<std::size_t>(left);
    out.w[0] = 1.0;
    out.count = 1;
  } else {
    out.idx[0] = static_cast<std::size_t>(left);
    out.w[0] = 1.0 - frac;
    out.idx[1] = static_cast<std::size_t>(right);
    out.w[1] = frac;
    out.count = 2;
  }
  return out;
}

/// One forward Gauss-Seidel sweep x <- x + D^-1-weighted row updates in
/// ascending row order. Serial and deterministic by construction.
void gaussSeidelForward(const SparseMatrix& a, const Vector& b, Vector& x) {
  const auto& rowPtr = a.rowPtr();
  const auto& colIdx = a.colIdx();
  const auto& val = a.values();
  const std::size_t n = a.rows();
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[r];
    double diag = 0.0;
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::size_t c = colIdx[k];
      if (c == r) {
        diag = val[k];
      } else {
        acc -= val[k] * x[c];
      }
    }
    // Nonzero diagonals are guaranteed by the hasUsableDiagonal() check at
    // setup; compute() refuses hierarchies that would divide by zero here.
    x[r] = acc / diag;
  }
}

/// The adjoint sweep (descending rows); pairing it with the forward sweep
/// around the coarse correction keeps the V-cycle symmetric.
void gaussSeidelBackward(const SparseMatrix& a, const Vector& b, Vector& x) {
  const auto& rowPtr = a.rowPtr();
  const auto& colIdx = a.colIdx();
  const auto& val = a.values();
  for (std::size_t r = a.rows(); r-- > 0;) {
    double acc = b[r];
    double diag = 0.0;
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::size_t c = colIdx[k];
      if (c == r) {
        diag = val[k];
      } else {
        acc -= val[k] * x[c];
      }
    }
    x[r] = acc / diag;  // nonzero by the setup-time hasUsableDiagonal() check
  }
}

}  // namespace

SparseMatrix buildTrilinearProlongation(std::size_t nx, std::size_t ny,
                                        std::size_t nz, std::size_t ncx,
                                        std::size_t ncy, std::size_t ncz) {
  std::vector<LineWeights> wx(nx), wy(ny), wz(nz);
  for (std::size_t i = 0; i < nx; ++i) wx[i] = lineWeights(i, ncx);
  for (std::size_t j = 0; j < ny; ++j) wy[j] = lineWeights(j, ncy);
  for (std::size_t k = 0; k < nz; ++k) wz[k] = lineWeights(k, ncz);

  // Rows come out in fine-index order, and within a row the (z, y, x)
  // nesting with ascending bracket indices per axis yields strictly
  // ascending coarse columns: the CSR arrays are written directly, with no
  // sort and no duplicate merge. A row's entry count is the product of its
  // per-axis counts, so the total is the product of the per-axis sums.
  const auto entries = [](const std::vector<LineWeights>& line) {
    std::size_t n = 0;
    for (const LineWeights& w : line) n += static_cast<std::size_t>(w.count);
    return n;
  };
  const std::size_t rows = nx * ny * nz;
  std::vector<std::size_t> rowPtr;
  std::vector<std::size_t> colIdx;
  std::vector<double> values;
  rowPtr.reserve(rows + 1);
  rowPtr.push_back(0);
  colIdx.reserve(entries(wx) * entries(wy) * entries(wz));
  values.reserve(colIdx.capacity());
  for (const LineWeights& z : wz) {
    for (const LineWeights& y : wy) {
      for (const LineWeights& x : wx) {
        for (int a = 0; a < z.count; ++a) {
          for (int b = 0; b < y.count; ++b) {
            for (int c = 0; c < x.count; ++c) {
              colIdx.push_back((z.idx[a] * ncy + y.idx[b]) * ncx + x.idx[c]);
              values.push_back(z.w[a] * y.w[b] * x.w[c]);
            }
          }
        }
        rowPtr.push_back(colIdx.size());
      }
    }
  }
  return SparseMatrix::fromCsr(rows, ncx * ncy * ncz, std::move(rowPtr),
                               std::move(colIdx), std::move(values));
}

bool GeometricMultigrid::compute(const SparseMatrix& a, const Options& options) {
  valid_ = false;
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n) return false;
  if (options.nx * options.ny * options.nz != n) return false;
  if (n <= options.maxCoarseRows) return false;  // IC(0) territory
  // Fault site: tests force a setup failure to prove the fallback ladder.
  if (faultinject::shouldFire("multigrid.setup")) return false;
  if (!hasUsableDiagonal(a)) return false;  // smoothers divide by the diagonal

  const bool reuseTransfers =
      !levels_.empty() && options_.nx == options.nx &&
      options_.ny == options.ny && options_.nz == options.nz &&
      options_.maxCoarseRows == options.maxCoarseRows;
  options_ = options;
  fine_ = &a;

  if (!reuseTransfers) {
    levels_.clear();
    std::size_t nx = options.nx;
    std::size_t ny = options.ny;
    std::size_t nz = options.nz;
    while (nx * ny * nz > options.maxCoarseRows) {
      const std::size_t ncx = (nx + 1) / 2;
      const std::size_t ncy = (ny + 1) / 2;
      const std::size_t ncz = (nz + 1) / 2;
      if (ncx * ncy * ncz == nx * ny * nz) break;  // cannot shrink further
      Level level;
      level.nx = ncx;
      level.ny = ncy;
      level.nz = ncz;
      level.prolong = buildTrilinearProlongation(nx, ny, nz, ncx, ncy, ncz);
      level.restrict_ = level.prolong.transposed();
      levels_.push_back(std::move(level));
      nx = ncx;
      ny = ncy;
      nz = ncz;
    }
    if (levels_.empty()) return false;
  }

  // Galerkin chain A_{l+1} = R_l A_l P_l down the hierarchy, through the
  // per-level SpGemm plans: the first compute() (or any structure change)
  // runs the full SpGEMM and captures the structures; frozen-hierarchy
  // recomputes -- same grid, same stencil pattern, new values -- refill the
  // cached A P and R (A P) products in O(nnz) with no allocation.
  const SparseMatrix* current = &a;
  for (Level& level : levels_) {
    level.apPlan.multiply(*current, level.prolong, level.ap);
    level.rapPlan.multiply(level.restrict_, level.ap, level.coarseA);
    if (!hasUsableDiagonal(level.coarseA)) return false;
    current = &level.coarseA;
  }

  // Direct solve at the bottom: densify and LU-factor once.
  const SparseMatrix& coarse = levels_.back().coarseA;
  const std::size_t nc = coarse.rows();
  coarseDense_.resize(nc, nc, 0.0);
  for (std::size_t r = 0; r < nc; ++r) {
    for (std::size_t k = coarse.rowPtr()[r]; k < coarse.rowPtr()[r + 1]; ++k) {
      coarseDense_(r, coarse.colIdx()[k]) = coarse.values()[k];
    }
  }
  if (!coarseLu_.refactor(coarseDense_)) return false;
  valid_ = true;
  return true;
}

void GeometricMultigrid::cycle(std::size_t l, const Vector& b, Vector& x) const {
  checkCancellation("multigrid v-cycle");
  const SparseMatrix& a = l == 0 ? *fine_ : levels_[l - 1].coarseA;
  if (l == levels_.size()) {
    x = b;
    coarseLu_.solveInPlace(x);
    return;
  }
  for (std::size_t s = 0; s < options_.preSmooth; ++s) gaussSeidelForward(a, b, x);

  Vector& res = l == 0 ? fineScratch_ : levels_[l - 1].scratch;
  res.resize(a.rows());
  a.multiplyInto(x, res);
  for (std::size_t i = 0; i < res.size(); ++i) res[i] = b[i] - res[i];

  const Level& next = levels_[l];
  next.b.resize(next.restrict_.rows());
  next.restrict_.multiplyInto(res, next.b);
  next.x.assign(next.b.size(), 0.0);
  cycle(l + 1, next.b, next.x);

  next.prolong.multiplyInto(next.x, res);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += res[i];

  for (std::size_t s = 0; s < options_.postSmooth; ++s) gaussSeidelBackward(a, b, x);
}

void GeometricMultigrid::apply(const Vector& r, Vector& z) const {
  assert(valid_);
  assert(r.size() == fine_->rows());
  z.assign(fine_->rows(), 0.0);
  cycle(0, r, z);
}

}  // namespace nh::util
