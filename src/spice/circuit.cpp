#include "spice/circuit.hpp"

#include <limits>
#include <stdexcept>

namespace nh::spice {

void StampContext::stampConductance(NodeId a, NodeId b, double g) {
  if (!stampMatrix) return;
  const std::size_t ia = indexOf(a);
  const std::size_t ib = indexOf(b);
  if (ia != kGround) jacobian(ia, ia) += g;
  if (ib != kGround) jacobian(ib, ib) += g;
  if (ia != kGround && ib != kGround) {
    jacobian(ia, ib) -= g;
    jacobian(ib, ia) -= g;
  }
}

void StampContext::stampCurrentSource(NodeId a, NodeId b, double i) {
  const std::size_t ia = indexOf(a);
  const std::size_t ib = indexOf(b);
  if (ia != kGround) rhs[ia] -= i;
  if (ib != kGround) rhs[ib] += i;
}

void StampContext::stampJacobian(std::size_t row, std::size_t col, double value) {
  if (!stampMatrix) return;
  jacobian(row, col) += value;
}

void StampContext::addRhs(std::size_t row, double value) { rhs[row] += value; }

double Element::nextBreakpoint(double) const {
  return std::numeric_limits<double>::infinity();
}

Circuit::Circuit() { nodeIndex_["0"] = 0; }

NodeId Circuit::node(const std::string& name) {
  return nodeIndex_.try_emplace(name, nodeIndex_.size()).first->second;
}

NodeId Circuit::findNode(const std::string& name) const {
  const auto it = nodeIndex_.find(name);
  if (it == nodeIndex_.end()) {
    throw std::out_of_range("Circuit::findNode: unknown node '" + name + "'");
  }
  return it->second;
}

void Circuit::addElement(std::unique_ptr<Element> element) {
  auxCount_ += element->auxiliaryCount();
  nonlinear_ = nonlinear_ || element->isNonlinear();
  elements_.push_back(std::move(element));
}

void Circuit::finalize() {
  // Auxiliary unknowns live after all node voltages; their absolute index
  // depends on the final node count, so assignment is deferred to here.
  std::size_t next = nodeCount() - 1;
  for (auto& e : elements_) {
    const std::size_t aux = e->auxiliaryCount();
    if (aux > 0) {
      e->assignAuxiliary(next);
      next += aux;
    }
  }
}

double Circuit::nextBreakpoint(double t) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : elements_) {
    const double b = e->nextBreakpoint(t);
    if (b < best) best = b;
  }
  return best;
}

}  // namespace nh::spice
