#include "util/linsolve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/multigrid.hpp"

namespace nh::util {

namespace {
std::string solverErrorMessage(const std::string& solve,
                               const std::string& detail,
                               std::size_t iterations, double residualNorm) {
  std::ostringstream out;
  out << solve << ": " << detail;
  if (iterations > 0 || residualNorm != 0.0) {
    out << " (iterations=" << iterations << ", residual=" << residualNorm
        << ")";
  }
  return out.str();
}
}  // namespace

SolverError::SolverError(const std::string& solve, const std::string& detail,
                         std::size_t iterations, double residualNorm)
    : std::runtime_error(
          solverErrorMessage(solve, detail, iterations, residualNorm)),
      solve_(solve),
      iterations_(iterations),
      residualNorm_(residualNorm) {}

CgWorkspace::CgWorkspace() = default;
CgWorkspace::~CgWorkspace() = default;
CgWorkspace::CgWorkspace(CgWorkspace&&) noexcept = default;
CgWorkspace& CgWorkspace::operator=(CgWorkspace&&) noexcept = default;

std::optional<LuFactorization> LuFactorization::factor(const Matrix& a) {
  LuFactorization f;
  if (!f.refactor(a)) return std::nullopt;
  return f;
}

bool LuFactorization::refactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  const std::size_t n = a.rows();
  valid_ = false;
  // Fault site: tests force a "numerically singular" outcome to exercise the
  // failure paths downstream of a real pivot breakdown.
  if (faultinject::shouldFire("linsolve.dense_lu")) return false;
  lu_ = a;  // reuses the existing allocation when the size is unchanged
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;  // numerically singular
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
    }
    const double inv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
  valid_ = true;
  return true;
}

Vector LuFactorization::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LuFactorization::solve: size mismatch");
  Vector x(n);
  // Apply permutation, then forward substitution (unit lower triangle).
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution (upper triangle).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

void LuFactorization::solveInPlace(Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) {
    throw std::invalid_argument("LuFactorization::solveInPlace: size mismatch");
  }
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch_[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = scratch_[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * scratch_[j];
    scratch_[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = scratch_[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * scratch_[j];
    scratch_[ii] = acc / lu_(ii, ii);
  }
  std::copy(scratch_.begin(), scratch_.end(), b.begin());
}

Vector solveDense(const Matrix& a, const Vector& b) {
  auto f = LuFactorization::factor(a);
  if (!f) throw std::runtime_error("solveDense: singular matrix");
  return f->solve(b);
}

bool SchurComplementSolver::solve(const Vector& d1, const Vector& d2,
                                  const Matrix& g, const Vector& r, Vector& x) {
  const std::size_t n1 = d1.size();
  const std::size_t n2 = d2.size();
  if (g.rows() != n1 || g.cols() != n2 || r.size() != n1 + n2) {
    throw std::invalid_argument("SchurComplementSolver: shape mismatch");
  }
  if (schur_.rows() != n2 || schur_.cols() != n2) schur_.resize(n2, n2, 0.0);
  rhs_.resize(n2);
  invD1_.resize(n1);
  scaledRes_.resize(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    invD1_[i] = 1.0 / d1[i];
    scaledRes_[i] = r[i] * invD1_[i];
  }

  // S = diag(d2) - G^T diag(d1)^-1 G and rhs = r2 + G^T diag(d1)^-1 r1, one
  // complement row per bit line c1, each entry accumulated over word lines
  // in ascending order (docs/kernels.md). S is symmetric: fill the upper
  // triangle and mirror.
  for (std::size_t c1 = 0; c1 < n2; ++c1) {
    double* s = schur_.data() + c1 * n2;
    std::fill(s + c1, s + n2, 0.0);
    double rhs = r[n1 + c1];
    for (std::size_t i = 0; i < n1; ++i) {
      const double* row = g.data() + i * n2;
      const double gScaled = row[c1] * invD1_[i];
      rhs += row[c1] * scaledRes_[i];
      for (std::size_t c2 = c1; c2 < n2; ++c2) s[c2] -= gScaled * row[c2];
    }
    s[c1] += d2[c1];
    rhs_[c1] = rhs;
  }
  for (std::size_t c1 = 0; c1 < n2; ++c1) {
    for (std::size_t c2 = 0; c2 < c1; ++c2) schur_(c1, c2) = schur_(c2, c1);
  }

  if (!lu_.refactor(schur_)) return false;
  lu_.solveInPlace(rhs_);  // now x2

  x.resize(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* row = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += row[c] * rhs_[c];
    x[i] = acc / d1[i];
  }
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = rhs_[c];
  return true;
}

SchurComplementSolver::SchurComplementSolver() = default;
SchurComplementSolver::SchurComplementSolver(SchurOptions options)
    : options_(options) {}
SchurComplementSolver::~SchurComplementSolver() = default;
SchurComplementSolver::SchurComplementSolver(SchurComplementSolver&&) noexcept =
    default;
SchurComplementSolver& SchurComplementSolver::operator=(
    SchurComplementSolver&&) noexcept = default;

bool TridiagonalFactor::factor(const TridiagonalView& a) {
  valid_ = false;
  const std::size_t n = a.n;
  if (n == 0 || a.diag == nullptr) return false;
  m_.resize(n);
  c_.resize(n - 1);
  lower_.resize(n - 1);
  if (a.lower != nullptr) {
    std::copy(a.lower, a.lower + (n - 1), lower_.begin());
  } else {
    std::fill(lower_.begin(), lower_.end(), 0.0);
  }

  // Thomas elimination, same recurrences as solveTridiagonal: the scaled
  // upper diagonal c and the pivots m are all a solve needs.
  double m = a.diag[0];
  if (!(std::fabs(m) > 1e-300) || !std::isfinite(m)) return false;
  m_[0] = m;
  for (std::size_t i = 1; i < n; ++i) {
    const double u = a.upper != nullptr ? a.upper[i - 1] : 0.0;
    c_[i - 1] = u / m_[i - 1];
    m = a.diag[i] - lower_[i - 1] * c_[i - 1];
    if (!(std::fabs(m) > 1e-300) || !std::isfinite(m)) return false;
    m_[i] = m;
  }
  valid_ = true;
  return true;
}

void TridiagonalFactor::solveInPlace(Vector& b) const {
  assert(b.size() == m_.size());
  solveInPlace(b.data());
}

void TridiagonalFactor::solveInPlace(double* b) const {
  assert(valid_);
  const std::size_t n = m_.size();
  b[0] /= m_[0];
  for (std::size_t i = 1; i < n; ++i) {
    b[i] = (b[i] - lower_[i - 1] * b[i - 1]) / m_[i];
  }
  for (std::size_t ii = n - 1; ii-- > 0;) b[ii] -= c_[ii] * b[ii + 1];
}

void TridiagonalFactor::solveRowsInPlace(Matrix& b) const {
  assert(valid_);
  assert(b.rows() == m_.size());
  const std::size_t n = m_.size();
  const std::size_t m = b.cols();
  double* row0 = b.data();
  const double inv0 = 1.0 / m_[0];
  for (std::size_t c = 0; c < m; ++c) row0[c] *= inv0;
  for (std::size_t i = 1; i < n; ++i) {
    double* row = b.data() + i * m;
    const double* prev = row - m;
    const double l = lower_[i - 1];
    const double inv = 1.0 / m_[i];
    for (std::size_t c = 0; c < m; ++c) row[c] = (row[c] - l * prev[c]) * inv;
  }
  for (std::size_t ii = n - 1; ii-- > 0;) {
    double* row = b.data() + ii * m;
    const double* next = row + m;
    const double ci = c_[ii];
    for (std::size_t c = 0; c < m; ++c) row[c] -= ci * next[c];
  }
}

namespace {

/// y = A v for a tridiagonal view.
void tridiagonalMultiply(const TridiagonalView& a, const Vector& v, Vector& y) {
  const std::size_t n = a.n;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = a.diag[i] * v[i];
    if (a.lower != nullptr && i > 0) acc += a.lower[i - 1] * v[i - 1];
    if (a.upper != nullptr && i + 1 < n) acc += a.upper[i] * v[i + 1];
    y[i] = acc;
  }
}

}  // namespace

bool SchurComplementSolver::solveBanded(const TridiagonalView& a1,
                                        const TridiagonalView& a2,
                                        const Matrix& g, const Vector& r,
                                        Vector& x) {
  if (g.rows() != a1.n || g.cols() != a2.n || r.size() != a1.n + a2.n) {
    throw std::invalid_argument("SchurComplementSolver::solveBanded: shape mismatch");
  }
  lastIterative_ = {};
  return options_.mode == SchurOptions::Mode::Iterative
             ? solveBandedIterative(a1, a2, g, r, x)
             : solveBandedDense(a1, a2, g, r, x);
}

bool SchurComplementSolver::solveBandedDense(const TridiagonalView& a1,
                                             const TridiagonalView& a2,
                                             const Matrix& g, const Vector& r,
                                             Vector& x) {
  const std::size_t n1 = a1.n;
  const std::size_t n2 = a2.n;
  if (!a1Factor_.factor(a1)) return false;

  // W = A1^-1 G, all columns at once: the Thomas recurrences are per
  // column, but sweeping whole rows keeps the row-major accesses streaming.
  if (w_.rows() != n1 || w_.cols() != n2) w_.resize(n1, n2, 0.0);
  std::copy(g.data(), g.data() + n1 * n2, w_.data());
  a1Factor_.solveRowsInPlace(w_);

  // S = A2 - G^T W and rhs2 = r2 + G^T (A1^-1 r1).
  t1_.assign(r.begin(), r.begin() + n1);
  a1Factor_.solveInPlace(t1_);
  if (schur_.rows() != n2 || schur_.cols() != n2) schur_.resize(n2, n2, 0.0);
  schur_.fill(0.0);
  rhs_.resize(n2);
  for (std::size_t c = 0; c < n2; ++c) rhs_[c] = r[n1 + c];
  for (std::size_t i = 0; i < n1; ++i) {
    const double* gRow = g.data() + i * n2;
    const double* wRow = w_.data() + i * n2;
    const double t1i = t1_[i];
    for (std::size_t c1 = 0; c1 < n2; ++c1) {
      const double gv = gRow[c1];
      rhs_[c1] += gv * t1i;
      if (gv == 0.0) continue;
      double* s = schur_.data() + c1 * n2;
      for (std::size_t c2 = 0; c2 < n2; ++c2) s[c2] -= gv * wRow[c2];
    }
  }
  for (std::size_t c = 0; c < n2; ++c) {
    schur_(c, c) += a2.diag[c];
    if (a2.lower != nullptr && c > 0) schur_(c, c - 1) += a2.lower[c - 1];
    if (a2.upper != nullptr && c + 1 < n2) schur_(c, c + 1) += a2.upper[c];
  }

  if (!lu_.refactor(schur_)) return false;
  lu_.solveInPlace(rhs_);  // now x2

  x.resize(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* gRow = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += gRow[c] * rhs_[c];
    x[i] = acc;
  }
  a1Factor_.solveInPlace(x.data());
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = rhs_[c];
  return true;
}

bool SchurComplementSolver::solveBandedIterative(const TridiagonalView& a1,
                                                 const TridiagonalView& a2,
                                                 const Matrix& g,
                                                 const Vector& r, Vector& x) {
  const std::size_t n1 = a1.n;
  const std::size_t n2 = a2.n;
  if (!a1Factor_.factor(a1)) return false;

  // rhs2 = r2 + G^T (A1^-1 r1).
  t1_.assign(r.begin(), r.begin() + n1);
  a1Factor_.solveInPlace(t1_);
  rhs_.resize(n2);
  for (std::size_t c = 0; c < n2; ++c) rhs_[c] = r[n1 + c];
  for (std::size_t i = 0; i < n1; ++i) {
    const double* gRow = g.data() + i * n2;
    const double t1i = t1_[i];
    if (t1i == 0.0) continue;
    for (std::size_t c = 0; c < n2; ++c) rhs_[c] += gRow[c] * t1i;
  }

  // Jacobi preconditioner on diag(S) = diag(A2) - sum_i g(i,c)^2 / a1(i,i)
  // -- exact for a diagonal A1 (the lumped line network), a close
  // approximation for the diagonally dominant tridiagonal case.
  invDiag_.assign(n2, 0.0);
  for (std::size_t i = 0; i < n1; ++i) {
    const double* gRow = g.data() + i * n2;
    const double invA1 = 1.0 / a1.diag[i];
    for (std::size_t c = 0; c < n2; ++c) {
      invDiag_[c] += gRow[c] * gRow[c] * invA1;
    }
  }
  for (std::size_t c = 0; c < n2; ++c) {
    const double d = a2.diag[c] - invDiag_[c];
    invDiag_[c] = std::fabs(d) > 1e-300 ? 1.0 / d : 1.0;
  }

  // Matrix-free S x = A2 x - G^T (A1^-1 (G x)): O(n1 n2) per application,
  // never materialising the (fully dense) complement.
  const auto applyS = [&](const Vector& v, Vector& y) {
    t1_.resize(n1);
    for (std::size_t i = 0; i < n1; ++i) {
      const double* gRow = g.data() + i * n2;
      double acc = 0.0;
      for (std::size_t c = 0; c < n2; ++c) acc += gRow[c] * v[c];
      t1_[i] = acc;
    }
    a1Factor_.solveInPlace(t1_);
    tridiagonalMultiply(a2, v, y);
    for (std::size_t i = 0; i < n1; ++i) {
      const double* gRow = g.data() + i * n2;
      const double t1i = t1_[i];
      if (t1i == 0.0) continue;
      for (std::size_t c = 0; c < n2; ++c) y[c] -= gRow[c] * t1i;
    }
  };

  if (!cgWs_) cgWs_ = std::make_unique<CgWorkspace>();
  x2_.assign(n2, 0.0);
  lastIterative_ =
      solveConjugateGradientOperator(n2, applyS, invDiag_, rhs_, x2_,
                                     options_.cgRelTol, options_.cgMaxIter,
                                     cgWs_.get());
  if (!lastIterative_.converged) return false;

  x.resize(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* gRow = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += gRow[c] * x2_[c];
    x[i] = acc;
  }
  a1Factor_.solveInPlace(x.data());
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = x2_[c];
  return true;
}

bool IncompleteCholesky::compute(const SparseMatrix& a) {
  valid_ = false;
  if (a.rows() != a.cols()) return false;
  n_ = a.rows();
  const auto& aRowPtr = a.rowPtr();
  const auto& aColIdx = a.colIdx();
  const auto& aValues = a.values();

  // Extract the lower-triangle structure (cols <= r, diagonal last in each
  // row since CSR rows are column-sorted). Buffers keep their allocation
  // across refactorisations of same-structure matrices.
  rowPtr_.resize(n_ + 1);
  rowPtr_[0] = 0;
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = aRowPtr[r]; k < aRowPtr[r + 1] && aColIdx[k] <= r; ++k) {
      ++nnz;
    }
    rowPtr_[r + 1] = nnz;
  }
  colIdx_.resize(nnz);
  val_.resize(nnz);
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t out = rowPtr_[r];
    for (std::size_t k = aRowPtr[r]; k < aRowPtr[r + 1] && aColIdx[k] <= r; ++k) {
      colIdx_[out] = aColIdx[k];
      val_[out] = aValues[k];
      ++out;
    }
    // IC(0) needs every diagonal entry present.
    if (rowPtr_[r + 1] == rowPtr_[r] || colIdx_[rowPtr_[r + 1] - 1] != r) {
      return false;
    }
  }

  // Up-looking factorisation restricted to the pattern of L:
  //   L(i,j) = (A(i,j) - sum_{p<j} L(i,p) L(j,p)) / L(j,j)     for j < i
  //   L(i,i) = sqrt(A(i,i) - sum_{p<i} L(i,p)^2)
  // The inner sums intersect two already-computed sparse rows (two-pointer
  // merge); with the ~7-entry stencil rows of the FV operators this is O(nnz).
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t rowBegin = rowPtr_[i];
    const std::size_t rowEnd = rowPtr_[i + 1];
    for (std::size_t idx = rowBegin; idx < rowEnd; ++idx) {
      const std::size_t j = colIdx_[idx];
      double s = val_[idx];
      const std::size_t jEnd = rowPtr_[j + 1] - 1;  // exclude L(j,j)
      std::size_t ka = rowBegin;
      std::size_t kb = rowPtr_[j];
      while (ka < idx && kb < jEnd) {
        const std::size_t ca = colIdx_[ka];
        const std::size_t cb = colIdx_[kb];
        if (ca == cb) {
          s -= val_[ka] * val_[kb];
          ++ka;
          ++kb;
        } else if (ca < cb) {
          ++ka;
        } else {
          ++kb;
        }
      }
      if (j < i) {
        val_[idx] = s / val_[jEnd];  // jEnd points at L(j,j)
      } else {
        if (!(s > 0.0) || !std::isfinite(s)) return false;  // not SPD
        val_[idx] = std::sqrt(s);
      }
    }
  }
  valid_ = true;
  return true;
}

void IncompleteCholesky::apply(const Vector& r, Vector& z) const {
  assert(valid_);
  assert(r.size() == n_);
  if (z.size() != n_) z.resize(n_);
  const double* val = val_.data();
  const std::size_t* col = colIdx_.data();
  // Forward solve L y = r (diagonal is the last entry of each row). The
  // gather is unrolled two-wide with independent accumulators -- the FV
  // stencil rows carry 3-4 strictly-lower entries, so wider unrolls only
  // add cleanup overhead.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t diag = rowPtr_[i + 1] - 1;
    std::size_t k = rowPtr_[i];
    double a0 = 0.0, a1 = 0.0;
    for (; k + 2 <= diag; k += 2) {
      a0 += val[k] * z[col[k]];
      a1 += val[k + 1] * z[col[k + 1]];
    }
    double acc = r[i] - (a0 + a1);
    for (; k < diag; ++k) acc -= val[k] * z[col[k]];
    z[i] = acc / val[diag];
  }
  // Backward solve L^T z = y, column-oriented over the rows of L (a scatter:
  // each row's updates hit distinct columns, so the pair is independent).
  for (std::size_t ii = n_; ii-- > 0;) {
    const std::size_t diag = rowPtr_[ii + 1] - 1;
    const double zi = z[ii] / val[diag];
    z[ii] = zi;
    std::size_t k = rowPtr_[ii];
    for (; k + 2 <= diag; k += 2) {
      z[col[k]] -= val[k] * zi;
      z[col[k + 1]] -= val[k + 1] * zi;
    }
    for (; k < diag; ++k) z[col[k]] -= val[k] * zi;
  }
}

IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, const CgOptions& options,
                                       CgWorkspace* workspace) {
  const std::size_t n = b.size();
  assert(a.rows() == n && a.cols() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;

  // Preconditioner ladder: Multigrid -> IC(0) -> Jacobi, each rung falling
  // back to the next when it is inapplicable or breaks down.
  bool useMg = options.preconditioner == CgPreconditioner::Multigrid;
  if (useMg) {
    if (!ws.mg_) ws.mg_ = std::make_unique<GeometricMultigrid>();
    if (options.reusePreconditioner && ws.mgFailed_) {
      useMg = false;  // same frozen matrix was already rejected once
    } else if (!(options.reusePreconditioner && ws.mg_->valid() &&
                 ws.mg_->fineMatrix() == &a)) {
      // The address check downgrades a reuse request on a *different*
      // matrix object to a rebuild: the hierarchy smooths through a pointer
      // to the fine matrix, unlike IC(0) which copies its factor.
      GeometricMultigrid::Options mgOptions;
      mgOptions.nx = options.gridNx;
      mgOptions.ny = options.gridNy;
      mgOptions.nz = options.gridNz;
      useMg = ws.mg_->compute(a, mgOptions);
      ws.mgFailed_ = !useMg;
    }
  }
  bool useIc =
      !useMg && options.preconditioner != CgPreconditioner::Jacobi;
  if (useIc) {
    if (options.reusePreconditioner && ws.icFailed_) {
      useIc = false;  // same frozen matrix already broke down once
    } else if (!(options.reusePreconditioner && ws.ic_.valid())) {
      useIc = ws.ic_.compute(a);  // breakdown -> Jacobi fallback
      ws.icFailed_ = !useIc;
    }
  }
  if (!useMg && !useIc) {
    // Jacobi preconditioner M^-1 = 1/diag(A).
    a.diagonalInto(ws.invDiag_);
    for (auto& d : ws.invDiag_) d = (std::fabs(d) > 1e-300) ? 1.0 / d : 1.0;
  }

  Vector& r = ws.r_;
  Vector& z = ws.z_;
  Vector& p = ws.p_;
  Vector& ap = ws.ap_;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  ap.resize(n);

  a.multiplyInto(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  const double bNorm = norm2(b);
  if (bNorm == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0};
  }

  const auto applyPreconditioner = [&] {
    if (useMg) {
      ws.mg_->apply(r, z);
    } else if (useIc) {
      ws.ic_.apply(r, z);
    } else {
      for (std::size_t i = 0; i < n; ++i) z[i] = ws.invDiag_[i] * r[i];
    }
  };

  applyPreconditioner();
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);

  IterativeResult result;
  // Fault site: force an immediate non-converged return so tests can walk
  // the "CG did not converge" paths without constructing a hard system.
  if (faultinject::shouldFire("linsolve.cg")) {
    result.breakdown = true;
    return result;
  }
  for (std::size_t it = 0; it < options.maxIter; ++it) {
    checkCancellation("conjugate gradient");
    a.multiplyInto(p, ap);
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {  // not SPD, breakdown, or NaN/Inf poisoning
      result.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double res = norm2(r) / bNorm;
    result.iterations = it + 1;
    result.residualNorm = res;
    if (!std::isfinite(res)) {  // fail fast instead of iterating to the cap
      result.breakdown = true;
      break;
    }
    if (res < options.relTol) {
      result.converged = true;
      return result;
    }
    applyPreconditioner();
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, double relTol,
                                       std::size_t maxIter) {
  CgOptions options;
  options.relTol = relTol;
  options.maxIter = maxIter;
  return solveConjugateGradient(a, b, x, options, nullptr);
}

IterativeResult solveConjugateGradientOperator(
    std::size_t n, const std::function<void(const Vector&, Vector&)>& applyA,
    const Vector& invDiag, const Vector& b, Vector& x, double relTol,
    std::size_t maxIter, CgWorkspace* workspace) {
  assert(invDiag.size() == n && b.size() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;
  Vector& r = ws.r_;
  Vector& z = ws.z_;
  Vector& p = ws.p_;
  Vector& ap = ws.ap_;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  ap.resize(n);

  applyA(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  const double bNorm = norm2(b);
  if (bNorm == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0};
  }

  for (std::size_t i = 0; i < n; ++i) z[i] = invDiag[i] * r[i];
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);

  IterativeResult result;
  // Same fault site as the assembled-matrix CG: both are "CG convergence".
  if (faultinject::shouldFire("linsolve.cg")) {
    result.breakdown = true;
    return result;
  }
  for (std::size_t it = 0; it < maxIter; ++it) {
    checkCancellation("conjugate gradient");
    applyA(p, ap);
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {  // not SPD, breakdown, or NaN/Inf poisoning
      result.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double res = norm2(r) / bNorm;
    result.iterations = it + 1;
    result.residualNorm = res;
    if (!std::isfinite(res)) {  // fail fast instead of iterating to the cap
      result.breakdown = true;
      break;
    }
    if (res < relTol) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = invDiag[i] * r[i];
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

Vector solveTridiagonal(const Vector& lower, const Vector& diag,
                        const Vector& upper, const Vector& rhs) {
  const std::size_t n = diag.size();
  if (lower.size() != n - 1 || upper.size() != n - 1 || rhs.size() != n) {
    throw std::invalid_argument("solveTridiagonal: size mismatch");
  }
  Vector c(n - 1), d(n);
  c[0] = upper[0] / diag[0];
  d[0] = rhs[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double m = diag[i] - lower[i - 1] * (i - 1 < c.size() ? c[i - 1] : 0.0);
    if (i < n - 1) c[i] = upper[i] / m;
    d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / m;
  }
  Vector x(n);
  x[n - 1] = d[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) x[ii] = d[ii] - c[ii] * x[ii + 1];
  return x;
}

}  // namespace nh::util
