#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"

namespace nh::spice {
namespace {

TEST(Dc, ResistorDivider) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 10.0);
  ckt.emplace<Resistor>("R1", in, mid, 1000.0);
  ckt.emplace<Resistor>("R2", mid, ckt.ground(), 3000.0);

  const SolveResult op = solveDc(ckt);
  ASSERT_TRUE(op.converged);
  // Tolerance reflects the gmin (1e-12 S) leakage every node carries.
  EXPECT_NEAR(op.x[mid - 1], 7.5, 1e-6);
  EXPECT_NEAR(op.x[in - 1], 10.0, 1e-6);
}

TEST(Dc, VoltageSourceBranchCurrent) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  auto* src = ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 5.0);
  ckt.emplace<Resistor>("R1", in, ckt.ground(), 500.0);
  const SolveResult op = solveDc(ckt);
  ASSERT_TRUE(op.converged);
  // Branch current flows out of the + terminal through R to ground: 10 mA.
  EXPECT_NEAR(src->branchCurrent(op.x), -0.01, 1e-9);
}

TEST(Dc, SeriesVoltageSourcesStack) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
  ckt.emplace<VoltageSource>("V2", b, a, 2.0);
  ckt.emplace<Resistor>("RL", b, ckt.ground(), 1e4);
  const SolveResult op = solveDc(ckt);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.x[b - 1], 3.0, 1e-9);
}

TEST(Dc, FloatingNodeHandledByGmin) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.node("floating");  // never connected
  ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
  ckt.emplace<Resistor>("R1", a, ckt.ground(), 1000.0);
  const SolveResult op = solveDc(ckt);
  EXPECT_TRUE(op.converged);
}

TEST(Dc, ElementValidation) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  EXPECT_THROW(ckt.emplace<Resistor>("R", a, ckt.ground(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.emplace<Resistor>("R", a, ckt.ground(), -5.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.emplace<Capacitor>("C", a, ckt.ground(), 0.0),
               std::invalid_argument);
}

TEST(Circuit, NodeBookkeeping) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.findNode("a"), a);
  EXPECT_THROW(ckt.findNode("missing"), std::out_of_range);
  EXPECT_EQ(ckt.nodeCount(), 2u);
}

}  // namespace
}  // namespace nh::spice
