#include "fem/quadrant.hpp"

#include <algorithm>
#include <stdexcept>

namespace nh::fem {

std::optional<MirrorQuadrant> MirrorQuadrant::detect(const CrossbarModel3D& model,
                                                     std::size_t heatedRow,
                                                     std::size_t heatedCol) {
  const std::size_t rows = model.layout().rows;
  const std::size_t cols = model.layout().cols;
  if (rows % 2 == 0 || cols % 2 == 0 || heatedRow != rows / 2 ||
      heatedCol != cols / 2) {
    return std::nullopt;
  }
  const VoxelGrid& full = model.grid();
  const std::size_t nx = full.nx();
  const std::size_t ny = full.ny();
  const std::size_t nz = full.nz();
  if (nx % 2 != 0 || ny % 2 != 0) return std::nullopt;

  // Each cell's filament, mirrored in x (y), must be its mirror cell's.
  const auto mapsOnto = [&](const std::vector<std::size_t>& voxels,
                            const std::vector<std::size_t>& image, bool inX) {
    std::vector<std::size_t> mirrored;
    mirrored.reserve(voxels.size());
    for (const std::size_t v : voxels) {
      const Voxel p = full.voxel(v);
      mirrored.push_back(inX ? full.index(nx - 1 - p.i, p.j, p.k)
                             : full.index(p.i, ny - 1 - p.j, p.k));
    }
    std::vector<std::size_t> target = image;
    std::sort(mirrored.begin(), mirrored.end());
    std::sort(target.begin(), target.end());
    return mirrored == target;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto& voxels = model.cell(r, c).filamentVoxels;
      if (!mapsOnto(voxels, model.cell(r, cols - 1 - c).filamentVoxels, true) ||
          !mapsOnto(voxels, model.cell(rows - 1 - r, c).filamentVoxels, false)) {
        return std::nullopt;
      }
    }
  }
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        const Material m = full.material(i, j, k);
        if (m != full.material(nx - 1 - i, j, k) || m != full.material(i, ny - 1 - j, k)) {
          return std::nullopt;
        }
      }
    }
  }

  MirrorQuadrant q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.quadrantCols_ = cols / 2 + 1;
  q.grid_ = VoxelGrid(nx / 2, ny / 2, nz, full.voxelSize());
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < ny / 2; ++j) {
      for (std::size_t i = 0; i < nx / 2; ++i) {
        q.grid_.setMaterial(i, j, k, full.material(i, j, k));
      }
    }
  }
  // A quadrant cell keeps its filament voxels inside the quadrant. Those
  // must be all of them, or the half (quarter) a centre-line (centre) cell
  // has on the low side of its own mirror plane(s): only then is their mean
  // the whole filament's mean of a mirror-equal field.
  for (std::size_t r = 0; r <= rows / 2; ++r) {
    for (std::size_t c = 0; c <= cols / 2; ++c) {
      const auto& voxels = model.cell(r, c).filamentVoxels;
      std::vector<std::size_t> inside;
      for (const std::size_t v : voxels) {
        const Voxel p = full.voxel(v);
        if (p.i < nx / 2 && p.j < ny / 2) inside.push_back(q.grid_.index(p.i, p.j, p.k));
      }
      const std::size_t folds = (r == rows / 2 ? 2 : 1) * (c == cols / 2 ? 2 : 1);
      if (inside.size() * folds != voxels.size()) return std::nullopt;
      q.cellVoxels_.push_back(std::move(inside));
    }
  }
  q.heatedFilamentSize_ = model.cell(heatedRow, heatedCol).filamentVoxels.size();
  return q;
}

std::vector<double> MirrorQuadrant::heatSource(double power) const {
  std::vector<double> source(grid_.voxelCount(), 0.0);
  const double perVoxel = power / static_cast<double>(heatedFilamentSize_);
  for (const std::size_t v : cellVoxels(rows_ / 2, cols_ / 2)) source[v] += perVoxel;
  return source;
}

const std::vector<std::size_t>& MirrorQuadrant::cellVoxels(std::size_t row,
                                                           std::size_t col) const {
  if (row >= rows_ || col >= cols_) {
    throw std::out_of_range("MirrorQuadrant: cell out of range");
  }
  const std::size_t r = std::min(row, rows_ - 1 - row);
  const std::size_t c = std::min(col, cols_ - 1 - col);
  return cellVoxels_[r * quadrantCols_ + c];
}

nh::util::Matrix MirrorQuadrant::cellTemperatures(const std::vector<double>& field) const {
  nh::util::Matrix out(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const auto& voxels = cellVoxels(r, c);
      double acc = 0.0;
      for (const std::size_t v : voxels) acc += field[v];
      out(r, c) = acc / static_cast<double>(voxels.size());
    }
  }
  return out;
}

DiffusionOptions MirrorQuadrant::solveOptions(const DiffusionOptions& options) {
  DiffusionOptions quadrant = options;
  // full >= min  <=>  4 * quadrant >= min  <=>  quadrant >= ceil(min / 4).
  quadrant.multigridMinVoxels = (options.multigridMinVoxels + 3) / 4;
  return quadrant;
}

}  // namespace nh::fem
