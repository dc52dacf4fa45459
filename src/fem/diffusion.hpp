#pragma once
/// \file diffusion.hpp
/// Generic steady-state scalar diffusion solver on a voxel grid:
///   -div( c(x) grad u ) = s(x)
/// discretised with the finite-volume method (harmonic-mean face
/// coefficients, which is the consistent choice across material
/// discontinuities). Used twice:
///  * heat:      c = kappa, u = T, s = Joule power density   (paper Eq. 1)
///  * potential: c = sigma, u = phi, s = 0 with contacts     (paper Eq. 2)
///
/// Boundary conditions: Neumann (insulated) everywhere by default, an
/// optional Dirichlet bottom plane (z = 0), and optional per-voxel Dirichlet
/// pins (electrode contacts). Pinned voxels are eliminated from the system,
/// keeping it symmetric positive definite for the conjugate-gradient solver.

#include <cstddef>
#include <memory>
#include <vector>

#include "fem/grid.hpp"
#include "util/linsolve.hpp"
#include "util/sparse.hpp"

namespace nh::fem {

/// A Dirichlet-pinned voxel.
struct PinnedVoxel {
  std::size_t voxel = 0;
  double value = 0.0;
};

/// Problem description for solveDiffusion().
struct DiffusionProblem {
  const VoxelGrid* grid = nullptr;
  /// Per-voxel coefficient (kappa or sigma); size == voxelCount().
  std::vector<double> coefficient;
  /// Source integrated per voxel [W] or [A]; empty means zero.
  std::vector<double> sourcePerVoxel;
  /// Dirichlet plane at the grid bottom (z=0 outer face).
  bool bottomPlaneDirichlet = false;
  double bottomPlaneValue = 0.0;
  /// Additional pinned voxels (contacts). Duplicate pins must agree.
  std::vector<PinnedVoxel> pins;
};

/// Solver tolerances.
struct DiffusionOptions {
  double relTol = 1e-8;
  std::size_t maxIterations = 20000;
  /// CG preconditioner. IC(0) sharply cuts the iteration count on the FV
  /// operators and falls back to Jacobi automatically on breakdown;
  /// Multigrid keeps the count (near) grid-size independent on pin-free
  /// structured systems and falls back to IC(0) everywhere else.
  nh::util::CgPreconditioner preconditioner =
      nh::util::CgPreconditioner::IncompleteCholesky;
  /// Auto-upgrade IC(0) to the geometric-multigrid preconditioner when the
  /// system is pin-free (the matrix covers the whole structured grid) and
  /// has at least this many voxels -- the regime where IC(0)'s growing
  /// iteration count becomes the scaling wall. 0 disables the upgrade; an
  /// explicit preconditioner other than IC(0) is never overridden.
  std::size_t multigridMinVoxels = 32768;

  /// Exact comparison (study-dedup cache key component).
  bool operator==(const DiffusionOptions&) const = default;
};

/// Translate DiffusionOptions into the CG controls for a structured FV
/// system of gridNx x gridNy x gridNz free unknowns (pass zeros when the
/// free set does not cover the whole grid), applying the multigrid
/// auto-upgrade policy. Shared by DiffusionSolver and
/// ThermalTransientSolver so the policy has one home.
nh::util::CgOptions toCgOptions(const DiffusionOptions& options,
                                std::size_t gridNx, std::size_t gridNy,
                                std::size_t gridNz);

/// Result of a diffusion solve.
struct DiffusionSolution {
  std::vector<double> field;            ///< Per-voxel solution (pins included).
  nh::util::IterativeResult stats;      ///< CG convergence report.
  bool converged() const { return stats.converged; }

  /// Total flux [W or A] flowing from the pinned voxel set \p pinVoxels into
  /// the free domain, given the same problem that produced this solution.
  /// Positive = out of the pins.
  double fluxFromPins(const DiffusionProblem& problem,
                      const std::vector<std::size_t>& pinVoxels) const;

  /// Per-voxel dissipation c * |grad u|^2 integrated per voxel [W]; only
  /// meaningful for the potential solve. Face dissipation is split evenly
  /// between the two adjacent voxels.
  std::vector<double> dissipationPerVoxel(const DiffusionProblem& problem) const;
};

/// Structure-reusing diffusion solver. The sparsity structure of the FV
/// system is fixed by the grid and the pin *locations*; sweeps only change
/// coefficients, sources, and pin *values*. This solver runs the symbolic
/// assembly (pattern extraction) once per structure and afterwards refills
/// the cached CSR matrix, right-hand side, solution vector, and CG scratch
/// in place -- repeated solves allocate nothing beyond the returned field.
/// A structural change (different grid or pin locations) is detected
/// automatically and triggers a fresh symbolic phase.
class DiffusionSolver {
 public:
  DiffusionSolver();
  ~DiffusionSolver();
  DiffusionSolver(DiffusionSolver&&) noexcept;
  DiffusionSolver& operator=(DiffusionSolver&&) noexcept;

  /// Solve; equivalent to solveDiffusion() but with cross-call reuse.
  /// \p initialGuess (optional, full-size field) warm-starts the CG
  /// iteration (power sweeps re-use previous solutions).
  DiffusionSolution solve(const DiffusionProblem& problem,
                          const DiffusionOptions& options = {},
                          const std::vector<double>* initialGuess = nullptr);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// One-shot convenience wrapper around DiffusionSolver; \p initialGuess
/// (optional, full-size field) warm-starts the CG iteration.
DiffusionSolution solveDiffusion(const DiffusionProblem& problem,
                                 const DiffusionOptions& options = {},
                                 const std::vector<double>* initialGuess = nullptr);

}  // namespace nh::fem
