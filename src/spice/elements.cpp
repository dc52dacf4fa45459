#include "spice/elements.hpp"

#include <cmath>
#include <stdexcept>

namespace nh::spice {

// ---- Resistor ---------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Element(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (!(resistance > 0.0)) {
    throw std::invalid_argument("Resistor '" + this->name() + "': resistance must be > 0");
  }
}

void Resistor::stamp(StampContext& ctx) const {
  ctx.stampConductance(a_, b_, 1.0 / resistance_);
}

// ---- Capacitor --------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Element(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  if (!(capacitance > 0.0)) {
    throw std::invalid_argument("Capacitor '" + this->name() + "': capacitance must be > 0");
  }
}

void Capacitor::stamp(StampContext& ctx) const {
  if (!ctx.transient || ctx.dt <= 0.0) {
    return;  // open circuit in DC
  }
  // Backward-Euler companion: i = C/dt * (v - vPrev)  ==>  geq = C/dt,
  // ieq = -C/dt * vPrev (a current source restoring the previous voltage).
  const double geq = capacitance_ / ctx.dt;
  const double vPrev = ctx.prevVoltage(a_) - ctx.prevVoltage(b_);
  ctx.stampConductance(a_, b_, geq);
  ctx.stampCurrentSource(a_, b_, -geq * vPrev);
}

// ---- VoltageSource ----------------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b,
                             std::unique_ptr<Waveform> waveform)
    : Element(std::move(name)), a_(a), b_(b), waveform_(std::move(waveform)) {
  if (!waveform_) throw std::invalid_argument("VoltageSource: null waveform");
}

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b, double dcValue)
    : VoltageSource(std::move(name), a, b, std::make_unique<DcWaveform>(dcValue)) {}

void VoltageSource::stamp(StampContext& ctx) const {
  const std::size_t ia = ctx.indexOf(a_);
  const std::size_t ib = ctx.indexOf(b_);
  const std::size_t br = aux_;
  // KCL rows pick up the branch current; the branch row enforces the value.
  if (ia != StampContext::kGround) {
    ctx.stampJacobian(ia, br, 1.0);
    ctx.stampJacobian(br, ia, 1.0);
  }
  if (ib != StampContext::kGround) {
    ctx.stampJacobian(ib, br, -1.0);
    ctx.stampJacobian(br, ib, -1.0);
  }
  ctx.addRhs(br, waveform_->value(ctx.time));
}

double VoltageSource::nextBreakpoint(double t) const {
  return waveform_->nextBreakpoint(t);
}

void VoltageSource::setWaveform(std::unique_ptr<Waveform> waveform) {
  if (!waveform) throw std::invalid_argument("VoltageSource::setWaveform: null");
  waveform_ = std::move(waveform);
}

// ---- Memristor --------------------------------------------------------------

double MemristiveModel::conductance(double v) const {
  const double h = 1e-5 + 1e-7 * std::fabs(v);
  return (current(v + h) - current(v - h)) / (2.0 * h);
}

CurrentAndConductance MemristiveModel::evaluate(double v) const {
  return {current(v), conductance(v)};
}

Memristor::Memristor(std::string name, NodeId a, NodeId b, MemristiveModel* model)
    : Element(std::move(name)), a_(a), b_(b), model_(model) {
  if (model_ == nullptr) throw std::invalid_argument("Memristor: null model");
}

void Memristor::stamp(StampContext& ctx) const {
  const double v = ctx.voltage(a_) - ctx.voltage(b_);
  const CurrentAndConductance e = model_->evaluate(v);
  double g = e.conductance;
  if (!(g > 0.0)) g = 1e-12;  // keep the Jacobian well-conditioned
  ctx.stampConductance(a_, b_, g);
  ctx.stampCurrentSource(a_, b_, e.current - g * v);
}

void Memristor::acceptStep(const AcceptContext& ctx) {
  const double v = ctx.voltage(a_) - ctx.voltage(b_);
  model_->advance(v, ctx.dt);
}

}  // namespace nh::spice
