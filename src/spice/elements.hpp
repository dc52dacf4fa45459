#pragma once
/// \file elements.hpp
/// Concrete circuit elements: resistor, capacitor, independent voltage
/// source, and the behavioural memristor that hosts compact models such as
/// JART VCM.

#include <memory>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace nh::spice {

/// Linear resistor between nodes a and b.
class Resistor final : public Element {
 public:
  /// \p resistance must be > 0.
  Resistor(std::string name, NodeId a, NodeId b, double resistance);
  void stamp(StampContext& ctx) const override;

 private:
  NodeId a_, b_;
  double resistance_;
};

/// Linear capacitor; companion model is backward-Euler in transient and an
/// open circuit in DC.
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);
  void stamp(StampContext& ctx) const override;

 private:
  NodeId a_, b_;
  double capacitance_;
};

/// Independent voltage source V(a) - V(b) = waveform(t). Adds one auxiliary
/// unknown: its branch current (positive current flows from a through the
/// source to b).
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId a, NodeId b,
                std::unique_ptr<Waveform> waveform);
  /// DC convenience constructor.
  VoltageSource(std::string name, NodeId a, NodeId b, double dcValue);

  std::size_t auxiliaryCount() const override { return 1; }
  void stamp(StampContext& ctx) const override;
  double nextBreakpoint(double t) const override;

  /// Replace the waveform (the memory controller re-programs line drivers
  /// between operations).
  void setWaveform(std::unique_ptr<Waveform> waveform);

  /// Branch current from the accepted solution (needs finalize() to have
  /// assigned the auxiliary index).
  double branchCurrent(const nh::util::Vector& x) const { return x[aux_]; }

 private:
  NodeId a_, b_;
  std::unique_ptr<Waveform> waveform_;
};

/// Device current and small-signal conductance at one terminal voltage.
struct CurrentAndConductance {
  double current = 0.0;      ///< [A]
  double conductance = 0.0;  ///< dI/dV [S]
  bool converged = true;     ///< The model's internal solve converged.
};

/// Interface a compact memristive model exposes to the circuit engine.
/// Implemented by nh::jart::JartDevice; kept abstract here so nh::spice has
/// no dependency on the model library.
class MemristiveModel {
 public:
  virtual ~MemristiveModel() = default;
  /// Device current at terminal voltage \p v with the *current* internal
  /// state (state is frozen within a Newton solve).
  virtual double current(double v) const = 0;
  /// dI/dV at \p v. Default: symmetric finite difference.
  virtual double conductance(double v) const;
  /// Current and conductance together, as a Newton Jacobian fill needs them.
  /// Default: current(v) and conductance(v); models whose internal solve
  /// yields both override it to solve once.
  virtual CurrentAndConductance evaluate(double v) const;
  /// Integrate internal state (ionic concentration, filament temperature)
  /// over an accepted step of length \p dt at terminal voltage \p v.
  virtual void advance(double v, double dt) = 0;
};

/// Two-terminal behavioural memristor hosting a MemristiveModel.
/// Non-owning: several analyses can share one model/state.
class Memristor final : public Element {
 public:
  Memristor(std::string name, NodeId a, NodeId b, MemristiveModel* model);
  void stamp(StampContext& ctx) const override;
  void acceptStep(const AcceptContext& ctx) override;
  bool isNonlinear() const override { return true; }

 private:
  NodeId a_, b_;
  MemristiveModel* model_;
};

}  // namespace nh::spice
