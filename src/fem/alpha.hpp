#pragma once
/// \file alpha.hpp
/// Thermal-crosstalk coefficient ("alpha value") extraction, implementing
/// the paper's Eq. 3 / Eq. 4 procedure: sweep the dissipated power of a
/// selected cell, record the temperature matrix of the whole array for every
/// power point, then
///   T(P)    = T0 + Rth * P            (selected cell -> Rth by regression)
///   Tij(P)  = T0 + Rth * P * alpha_ij (every neighbour -> alpha_ij)
/// Because the heat equation is linear, R^2 of these fits is ~1; the fits
/// are still performed (and reported) to mirror the paper's methodology and
/// to catch discretisation artefacts. The same linearity drives the sweep:
/// each power point warm-starts CG from the previous point's rise over
/// ambient scaled by the power ratio, which already solves the next system
/// to within the CG tolerance, so every point after the first needs at most
/// a couple of iterations (AlphaResult::cgIterations).
///
/// extractAlpha solves the mirror quadrant (quadrant.hpp) whenever
/// MirrorQuadrant::detect() confirms the symmetry: even nx and ny, every
/// voxel's material equal to its mirror images in x and in y, each cell's
/// filament mapped onto its mirror cell's, and the selected cell the centre
/// of an odd array (the heat problem's Neumann sides and Dirichlet bottom
/// are mirror-invariant). The quadrant carries P/4 at the full per-voxel
/// density; the full temperature matrices, alpha and predictTemperatures
/// are rebuilt by mirroring, so mirror cells are exactly equal. Any failed
/// condition falls back to the full model with no option involved;
/// AlphaResult::solvedVoxels says which domain ran. extractAlphaCoupled
/// always solves the full model.

#include <vector>

#include "fem/thermal.hpp"
#include "util/linreg.hpp"
#include "util/matrix.hpp"

namespace nh::fem {

/// Result of an alpha extraction around one selected cell.
struct AlphaResult {
  std::size_t selectedRow = 0;
  std::size_t selectedCol = 0;
  double ambientK = 300.0;
  /// Thermal resistance of the selected cell [K/W] (Eq. 3 slope).
  double rTh = 0.0;
  double rThRSquared = 0.0;
  /// alpha_ij per cell (selected cell reads 1 by construction).
  nh::util::Matrix alpha;
  /// R^2 of each neighbour fit.
  nh::util::Matrix alphaRSquared;
  /// The swept powers [W] and the cell-temperature matrix per power point.
  std::vector<double> powers;
  std::vector<nh::util::Matrix> temperatureMatrices;
  /// CG iterations of each power point's heat solve, in sweep order.
  std::vector<std::size_t> cgIterations;
  /// Unknowns of each heat solve: the mirror quadrant's voxels when the
  /// sweep ran on it, else the full grid's.
  std::size_t solvedVoxels = 0;

  /// Temperature matrix predicted by the linear model at power \p p [W].
  nh::util::Matrix predictTemperatures(double p) const;
};

/// Extract Rth and the alpha matrix by sweeping the selected cell's
/// dissipated power (prescribed-power mode; heat equation only), on the
/// mirror quadrant when the symmetry holds and on the full model otherwise.
/// Throws std::invalid_argument before any solve unless \p powers holds at
/// least two finite, non-negative values of which at least two differ, and
/// \p ambientK is finite.
AlphaResult extractAlpha(const CrossbarModel3D& model,
                         const MaterialTable& materials, std::size_t selectedRow,
                         std::size_t selectedCol, const std::vector<double>& powers,
                         double ambientK, const DiffusionOptions& options = {});

/// The paper's extraction procedure (Eq. 3/4) on \p layout: build the FEM
/// model and sweep 0.05/0.10/0.15 mW into the centre cell's filament, the
/// range that brackets a hammered cell's dissipation (~0.1 mW). The study
/// construction and the Fig. 2a / alpha_extraction experiments all use it.
AlphaResult extractCentreAlpha(const CrossbarLayout& layout, double ambientK,
                               const DiffusionOptions& options = {});

/// Extract via the coupled flow (closer to the paper: a V_SET voltage sweep
/// on the selected LRS cell under the V/2 scheme; P = dissipated power of
/// the selected cell from the potential solve).
AlphaResult extractAlphaCoupled(const CrossbarModel3D& model,
                                const MaterialTable& materials,
                                std::size_t selectedRow, std::size_t selectedCol,
                                const std::vector<double>& setVoltages,
                                double lrsSigma, double hrsSigma, double ambientK,
                                const DiffusionOptions& options = {});

}  // namespace nh::fem
