#pragma once
/// \file quadrant.hpp
/// Mirror-quadrant reduction of the centre-cell heat problems. Every
/// production FEM solve (the Eq. 3/4 alpha extraction and the step
/// response) heats the centre cell of an odd array on a geometry that is
/// mirror-symmetric in x and in y, so the temperature field is too, and
/// three quarters of a full-domain solve is redundant.
///
/// MirrorQuadrant::detect() checks the symmetry instead of assuming it:
///  * the grid's nx and ny are even, so both mirror planes lie on voxel
///    faces;
///  * every voxel's material equals its mirror image in x and in y;
///  * each cell's filament-voxel set maps onto its mirror cell's set;
///  * the heated cell is the centre of an array with odd rows and cols.
/// The heat problems it serves have Neumann sides and a Dirichlet bottom,
/// both mirror-invariant; the quadrant's mirror faces are grid faces and so
/// zero-flux by the finite-volume default. The finite-volume quarter problem
/// is therefore the exact restriction of the full one: only the CG
/// tolerance separates the two fields. When any check fails, detect()
/// returns std::nullopt and the caller solves the full model.

#include <optional>
#include <vector>

#include "fem/diffusion.hpp"
#include "fem/geometry.hpp"
#include "util/matrix.hpp"

namespace nh::fem {

/// The low-x / low-y quadrant of a mirror-symmetric model, heated at its
/// centre cell.
class MirrorQuadrant {
 public:
  /// The reduction of \p model for heat deposited in cell (heatedRow,
  /// heatedCol), or std::nullopt when any symmetry condition fails.
  static std::optional<MirrorQuadrant> detect(const CrossbarModel3D& model,
                                              std::size_t heatedRow,
                                              std::size_t heatedCol);

  /// nx/2 x ny/2 x nz voxels carrying the model's materials.
  const VoxelGrid& grid() const { return grid_; }

  /// Quadrant source [W per voxel] of \p power [W] into the heated cell:
  /// the full problem's power / (filament voxels) on each heated filament
  /// voxel inside the quadrant, power / 4 in all.
  std::vector<double> heatSource(double power) const;

  /// Quadrant voxels standing for cell (row, col): the part of its mirror
  /// image's filament that lies in the quadrant.
  const std::vector<std::size_t>& cellVoxels(std::size_t row, std::size_t col) const;

  /// The full rows x cols filament-averaged cell temperatures of quadrant
  /// \p field: each cell's mean over cellVoxels(row, col), which is the full
  /// field's filament mean since that field is mirror-equal. Mirror cells
  /// read the same quadrant voxels, so they are equal exactly.
  nh::util::Matrix cellTemperatures(const std::vector<double>& field) const;

  /// \p options for a quadrant solve: the multigrid auto-upgrade threshold
  /// is applied to the full problem's voxel count (four times the
  /// quadrant's), so the quadrant runs the preconditioner the full solve
  /// would.
  static DiffusionOptions solveOptions(const DiffusionOptions& options);

 private:
  VoxelGrid grid_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t quadrantCols_ = 0;  ///< cols / 2 + 1 mirror classes per row.
  std::size_t heatedFilamentSize_ = 0;  ///< Voxels of the full centre filament.
  /// Per quadrant cell (row <= rows/2, col <= cols/2), row-major.
  std::vector<std::vector<std::size_t>> cellVoxels_;
};

}  // namespace nh::fem
