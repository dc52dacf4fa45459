#pragma once
/// \file transient.hpp
/// Time-dependent heat conduction on the voxel grid:
///   c(x) dT/dt = div( kappa(x) grad T ) + q(x)
/// discretised with implicit (backward) Euler on the same finite-volume
/// operator as the steady solver, so the steady state of the transient run
/// matches solveThermal() exactly.
///
/// Purpose in this project: derive, from first principles, the thermal time
/// constants that the circuit-level engines *assume* -- the filament
/// self-heating tau (jart::Params::tauThermal) and the slower crosstalk
/// propagation delay to the neighbours -- and thereby validate the
/// quasi-static treatment of 10-100 ns pulses.

#include <memory>
#include <vector>

#include "fem/geometry.hpp"
#include "fem/quadrant.hpp"
#include "fem/thermal.hpp"

namespace nh::fem {

/// Volumetric heat capacity [J m^-3 K^-1] per material.
struct HeatCapacityTable {
  /// Literature thin-film values (density x specific heat).
  static HeatCapacityTable defaults();
  double capacity(Material m) const;
  double values[static_cast<std::size_t>(Material::Count)] = {};
};

/// Step-response scenario: the selected cell starts dissipating \p power at
/// t = 0 from a uniform ambient temperature field.
struct TransientScenario {
  const CrossbarModel3D* model = nullptr;
  MaterialTable materials = MaterialTable::defaults();
  HeatCapacityTable capacities = HeatCapacityTable::defaults();
  double ambientK = 300.0;
  std::size_t heatedRow = 2;
  std::size_t heatedCol = 2;
  double power = 1e-4;    ///< [W] into the heated cell's filament.
  double tStop = 20e-9;   ///< [s].
  double dt = 0.25e-9;    ///< Implicit-Euler step [s].
};

/// Recorded step response.
struct TransientSolution {
  std::vector<double> time;              ///< Sample times [s].
  /// Filament-averaged temperature of selected cells at each sample:
  /// [0] = heated cell, [1] = word-line neighbour, [2] = bit-line
  /// neighbour, [3] = diagonal neighbour (where they exist).
  std::vector<std::vector<double>> cellTemperature;
  std::vector<std::string> cellLabels;
  bool converged = false;
  /// CG iterations of each implicit-Euler step, in time order.
  std::vector<std::size_t> cgIterations;
  /// Unknowns of each step's solve: the mirror quadrant's voxels when the
  /// march ran on it, else the full grid's.
  std::size_t solvedVoxels = 0;

  /// Time to reach 63.2% of the final rise for series \p index [s];
  /// NaN when the series never crosses.
  double riseTimeConstant(std::size_t index) const;
};

/// Run the step response. Each implicit-Euler step solves the SPD system
/// (C/dt + A) T_new = C/dt T_old + q with conjugate gradients to relTol,
/// starting from the linear extrapolation 2 T_n - T_{n-1} (T_n on the first
/// step); TransientSolution::cgIterations records each step's count.
///
/// When MirrorQuadrant::detect() confirms the symmetry (even nx and ny,
/// mirror-equal materials and filaments, the heated cell the centre of an
/// odd array; see quadrant.hpp) the march runs on the mirror quadrant with
/// P/4 and each observed cell is read through its mirror image, so the
/// traces are those of the full model up to the CG tolerance. Otherwise it
/// marches the full model; TransientSolution::solvedVoxels says which.
///
/// Throws std::invalid_argument before any assembly unless 0 < dt < tStop,
/// tStop is finite and at most 1e9 steps long, power is finite and >= 0 and
/// ambientK is finite; std::out_of_range for a heated cell off the array.
TransientSolution solveThermalStep(const TransientScenario& scenario,
                                   const DiffusionOptions& options = {});

/// Structure-reusing form of solveThermalStep(): repeated runs on the same
/// grid reuse the cached sparsity pattern, CSR matrix, field vectors, and CG
/// scratch. Within one run the implicit-Euler operator is frozen, so the
/// preconditioner is built once and reused for every step. solve(scenario)
/// always marches the full model it is given: the production path for
/// non-symmetric cases and the tests' full-domain oracle.
class ThermalTransientSolver {
 public:
  ThermalTransientSolver();
  ~ThermalTransientSolver();
  ThermalTransientSolver(ThermalTransientSolver&&) noexcept;
  ThermalTransientSolver& operator=(ThermalTransientSolver&&) noexcept;

  TransientSolution solve(const TransientScenario& scenario,
                          const DiffusionOptions& options = {});

  /// March \p quadrant, the mirror quadrant of scenario.model heated at its
  /// centre cell (quadrant.hpp): the traces are those of the full model,
  /// each observed cell read through its mirror image in the quadrant.
  TransientSolution solve(const MirrorQuadrant& quadrant,
                          const TransientScenario& scenario,
                          const DiffusionOptions& options = {});

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace nh::fem
