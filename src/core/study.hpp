#pragma once
/// \file study.hpp
/// End-to-end experiment harness: wires geometry -> alpha extraction ->
/// array/engine construction -> attack execution. The paper's parameter
/// sweeps are registry experiments (core/experiment_registry) that run
/// their grid points against AttackStudy instances.

#include <memory>

#include "core/attack.hpp"
#include "core/patterns.hpp"
#include "fem/alpha.hpp"
#include "jart/params.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/fastsim.hpp"

namespace nh::core {

/// Configuration of one study (one crossbar geometry + environment).
struct StudyConfig {
  std::size_t rows = 5;
  std::size_t cols = 5;
  double spacing = 50e-9;    ///< Electrode spacing [m] (selects the alphas).
  double ambientK = 300.0;
  jart::Params cellParams = jart::Params::paperDefaults();
  /// Run the full FEM extraction for this geometry instead of the
  /// FEM-calibrated analytic alpha table (slower; bit-identical flow to the
  /// paper). The analytic table was itself fitted to these extractions.
  bool useFemAlphas = false;
  /// Voxel size for the FEM extraction [m]. Finer voxels mean larger FV
  /// systems; at >= DiffusionOptions::multigridMinVoxels voxels the
  /// extraction's CG solves auto-upgrade to the geometric-multigrid
  /// preconditioner, which keeps iteration counts grid-size independent.
  double femVoxelSize = 5e-9;
  /// Solver controls for the FEM extraction (tolerances, preconditioner,
  /// multigrid upgrade threshold). The extraction's power sweep additionally
  /// warm-starts every CG solve from the previous power point's field --
  /// a serial chain inside each study construction, so the parallel Fig. 3
  /// experiment grids stay bit-identical for every thread count.
  fem::DiffusionOptions femOptions;
  xbar::FastEngineOptions engineOptions;
  DetectorConfig detector;

  /// Exact member-wise comparison (C++20 defaulted). The experiment
  /// engine's study-dedup cache keys on it: grid points whose config
  /// compares equal share one AttackStudy construction.
  bool operator==(const StudyConfig&) const = default;
};

/// One experiment harness instance. Owns the alpha table; creates a fresh
/// all-HRS array per attack so runs are independent.
class AttackStudy {
 public:
  explicit AttackStudy(StudyConfig config);

  const StudyConfig& config() const { return config_; }
  const xbar::AlphaTable& alphas() const { return alphas_; }
  /// R_th actually used by the compact model [K/W].
  double rThEff() const { return arrayConfig_.cellParams.rThEff; }
  const xbar::ArrayConfig& arrayConfig() const { return arrayConfig_; }

  /// Hammer the array-centre cell; every other (HRS) cell is monitored.
  /// Const (like every attack entry point below): each run builds a fresh
  /// bench from immutable study state, so concurrent attacks on one study
  /// are safe -- parallel experiment grids rely on this.
  AttackResult attackCenter(const HammerPulse& pulse, std::size_t maxPulses,
                            std::size_t traceSamples = 0) const;

  /// attackCenter's configuration (centre aggressor, its four neighbours as
  /// the named victims, V/2 bias). Callers that need another scheme (the
  /// campaign's V/3 arm) start from this.
  AttackConfig centerAttackConfig(const HammerPulse& pulse,
                                  std::size_t maxPulses) const;

  /// Hammer \p pattern aggressors around the array-centre victim.
  AttackResult attackPattern(AttackPattern pattern, const HammerPulse& pulse,
                             std::size_t maxPulses) const;

  /// Run an arbitrary attack config on a fresh all-HRS array.
  AttackResult attack(const AttackConfig& config) const;

  /// Build a fresh all-HRS array + engine pair for custom experiments.
  struct Bench {
    std::unique_ptr<xbar::CrossbarArray> array;
    std::unique_ptr<xbar::FastEngine> engine;
  };
  Bench makeBench() const;

  /// Process-wide number of AttackStudy constructions so far. Test hook for
  /// the experiment engine's study-dedup cache: a grid run must raise this
  /// by exactly the number of *unique* study configs, not of grid points.
  static std::size_t constructionCount();

 private:
  StudyConfig config_;
  xbar::AlphaTable alphas_;
  xbar::ArrayConfig arrayConfig_;
};

}  // namespace nh::core
