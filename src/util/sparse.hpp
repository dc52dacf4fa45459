#pragma once
/// \file sparse.hpp
/// Compressed-sparse-row matrix plus a triplet (COO) builder. Used by the
/// finite-volume PDE solvers in nh::fem, where systems reach ~10^6 unknowns.
///
/// For solvers that repeatedly assemble a matrix with a fixed sparsity
/// structure (every sweep point re-stamps the same grid), the symbolic work
/// (bucketing, column sorting, duplicate merging) is split from the numeric
/// work: SparsityPattern captures the structure of one stamp sequence once,
/// after which SparsityPattern::assemble() refills a SparseMatrix in O(nnz)
/// with no sorting and no allocation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/matrix.hpp"

namespace nh::util {

/// Coordinate-format accumulator: duplicate entries are summed on conversion,
/// which is exactly what stamp-style FEM assembly wants.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  /// Accumulate \p value at (\p r, \p c).
  void add(std::size_t r, std::size_t c, double value);
  /// Drop all entries but keep the allocation, so a cached builder can be
  /// re-stamped every solve without touching the heap.
  void clear() { entries_.clear(); }
  /// Number of accumulated (possibly duplicate) entries.
  std::size_t entryCount() const { return entries_.size(); }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

class SparsityPattern;

/// CSR sparse matrix. Immutable through the public interface; refilled in
/// place by SparsityPattern::assemble() for structure-reusing solvers.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// Build from a triplet accumulator (duplicates summed, rows sorted).
  static SparseMatrix fromTriplets(const TripletBuilder& builder);
  /// Adopt ready-made CSR arrays. Throws std::invalid_argument unless
  /// \p rowPtr has rows + 1 non-decreasing offsets from 0 to nnz, \p colIdx
  /// and \p values both hold nnz entries, and every row's columns are below
  /// \p cols and strictly ascending (sorted, no duplicates) -- the
  /// invariants every kernel here relies on.
  static SparseMatrix fromCsr(std::size_t rows, std::size_t cols,
                              std::vector<std::size_t> rowPtr,
                              std::vector<std::size_t> colIdx,
                              std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonZeros() const { return values_.size(); }

  /// y = A * x.
  Vector multiply(const Vector& x) const;
  /// y = A * x without allocation; \p y must have rows() elements. Rows run
  /// through the process-best spmv kernel (AVX2 gather when available, the
  /// scalar reference otherwise -- bit-identical either way, see
  /// util/spmv.hpp). Large matrices split the row range over the shared
  /// thread pool; the result is bit-identical to the serial loop for any
  /// thread count (each row is one independent ordered accumulation).
  void multiplyInto(const Vector& x, Vector& y) const;

  /// y = A * x on the scalar reference kernel, single-threaded. The
  /// always-correct baseline the SIMD path is verified against; tests assert
  /// multiplyInto agrees with this bit-for-bit.
  void multiplyIntoReference(const Vector& x, Vector& y) const;

  /// Transposed copy, O(nnz); rows of the result keep sorted columns. Used
  /// to derive the multigrid restriction from the prolongation (R = P^T).
  SparseMatrix transposed() const;

  /// Value at (r, c); zero when the entry is not stored. O(log nnz(row)).
  double at(std::size_t r, std::size_t c) const;
  /// Extract the diagonal (missing entries read as zero).
  Vector diagonal() const;
  /// Extract the diagonal into \p d without allocation.
  void diagonalInto(Vector& d) const;
  /// True when the matrix equals its transpose within \p tol (used by tests
  /// and to validate that FEM assembly produced a symmetric operator).
  bool isSymmetric(double tol = 1e-12) const;

  // Raw CSR access for solver kernels.
  const std::vector<std::size_t>& rowPtr() const { return rowPtr_; }
  const std::vector<std::size_t>& colIdx() const { return colIdx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class SparsityPattern;
  friend class SpGemmPlan;
  friend class TransposePlan;
  friend void multiplySparseInto(const SparseMatrix&, const SparseMatrix&,
                                 SparseMatrix&);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<double> values_;
  /// Identity of the SparsityPattern whose structure this matrix carries
  /// (0 = none); lets assemble() skip the structure copy on refills.
  std::uint64_t patternId_ = 0;
};

/// Symbolic half of a CSR assembly: the merged, column-sorted structure of
/// one triplet stamp sequence plus the scatter map from each triplet entry
/// (in insertion order) to its CSR value slot.
///
/// Contract: every refill must issue the *same stamp sequence* (same
/// (row, col) pairs in the same order, values free to change) that built the
/// pattern -- exactly what a fixed-grid FEM assembly loop does. Duplicate
/// entries accumulate in insertion order both here and in
/// SparseMatrix::fromTriplets, so a cached refill is bit-identical to a fresh
/// build.
class SparsityPattern {
 public:
  SparsityPattern() = default;
  /// Symbolic phase: analyse \p builder once (bucket, stable-sort, merge).
  static SparsityPattern fromTriplets(const TripletBuilder& builder);

  bool empty() const { return rows_ == 0 && cols_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonZeros() const { return colIdx_.size(); }
  /// Number of triplet entries the pattern was built from (every refill
  /// must present exactly this many).
  std::size_t entryCount() const { return scatter_.size(); }

  /// Numeric phase: refill \p out from \p builder in O(entryCount()).
  /// The structure is copied into \p out on first use; subsequent refills
  /// into the same matrix only rewrite the value array (no allocation).
  /// Throws std::invalid_argument when the entry count does not match.
  void assemble(const TripletBuilder& builder, SparseMatrix& out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<std::size_t> scatter_;  ///< triplet entry k -> CSR value slot.
  std::uint64_t id_ = 0;              ///< Process-unique (nonzero) identity.
};

/// Sparse-sparse product C = A * B (Gustavson row merge with a dense
/// accumulator; output rows column-sorted). The workhorse of the multigrid
/// Galerkin coarse-operator build A_c = R (A P).
///
/// Large products run in two passes over row blocks on the shared pool
/// (util::forBlocks): one counts each row's distinct columns, and after a
/// prefix sum the other fills the rows, each block with its own
/// accumulator. Every row keeps the serial accumulation order, so the
/// result is bit-identical for any thread count, and the output arrays are
/// sized exactly.
SparseMatrix multiplySparse(const SparseMatrix& a, const SparseMatrix& b);

/// As multiplySparse, but writing into \p out: the CSR arrays are resized
/// to the product, so a caller that keeps \p out alive across calls reuses
/// its capacity instead of allocating a fresh product each time.
void multiplySparseInto(const SparseMatrix& a, const SparseMatrix& b,
                        SparseMatrix& out);

/// Symbolic-once/refill-values SpGEMM, the sparse-product analogue of
/// SparsityPattern::assemble. The first multiply() (or any call whose
/// operands changed structure) runs the full Gustavson SpGEMM and captures
/// the operand and product structures; every later call with structurally
/// identical operands refills the product values in O(flops) -- no symbolic
/// pass, no sort, on the same row blocks as multiplySparse -- and is
/// bit-identical to the fresh product (the refill replays the exact
/// accumulation order).
///
/// This is what lets the multigrid Galerkin chain A_c = R (A P) rebuild in
/// O(nnz) when only the fine operator's *values* changed (frozen-hierarchy
/// re-solves across a sweep).
class SpGemmPlan {
 public:
  SpGemmPlan() = default;

  /// out = a * b, refilling through the cached structure when it matches.
  /// Throws std::invalid_argument on an inner-dimension mismatch.
  void multiply(const SparseMatrix& a, const SparseMatrix& b,
                SparseMatrix& out);

  /// True when the most recent multiply() took the O(flops) refill path.
  bool lastWasRefill() const { return lastWasRefill_; }
  /// Number of full symbolic SpGEMM runs this plan has performed. A frozen
  /// hierarchy should pin this at 1 -- asserted by BM_GalerkinRefill.
  std::size_t symbolicCount() const { return symbolicCount_; }

 private:
  bool matches(const SparseMatrix& a, const SparseMatrix& b) const;

  // Structure snapshots of the operands (for the match test) and of the
  // product (for the refill gather).
  std::vector<std::size_t> aRowPtr_, aColIdx_;
  std::vector<std::size_t> bRowPtr_, bColIdx_;
  std::vector<std::size_t> outRowPtr_, outColIdx_;
  std::size_t bCols_ = 0;  ///< Column count vectors alone can't pin down.
  std::uint64_t id_ = 0;     ///< Pattern identity stamped into products.
  std::size_t symbolicCount_ = 0;
  bool lastWasRefill_ = false;
};

/// Symbolic-once/refill-values transpose: first transpose() runs the O(nnz)
/// counting sort and records the slot permutation; later calls on a matrix
/// with identical structure replay the permutation (a straight value
/// scatter, bit-identical to SparseMatrix::transposed).
class TransposePlan {
 public:
  TransposePlan() = default;

  /// out = a^T, refilling through the cached permutation when a's structure
  /// matches the captured one.
  void transpose(const SparseMatrix& a, SparseMatrix& out);

  bool lastWasRefill() const { return lastWasRefill_; }
  std::size_t symbolicCount() const { return symbolicCount_; }

 private:
  std::vector<std::size_t> aRowPtr_, aColIdx_;
  std::vector<std::size_t> outRowPtr_, outColIdx_;
  std::vector<std::size_t> scatter_;  ///< source value slot -> dest slot.
  std::uint64_t id_ = 0;
  std::size_t symbolicCount_ = 0;
  bool lastWasRefill_ = false;
};

}  // namespace nh::util
