/// Sparse-vs-dense MNA stamping equivalence. NewtonOptions::sparseMinUnknowns
/// picks the matrix target (dense Jacobian + dense LU below, triplet-stream
/// CSR + Gilbert-Peierls LU at or above); these tests force both paths over
/// every netlist shape the seed suite builds -- linear dividers, stacked
/// sources, diodes, gmin-only floating nodes, and the distributed-segment
/// crossbar (DC and transient) -- and require the same solution. The sparse
/// LU pivots in a different order than the dense factorisation, so the
/// comparison is within Newton/solver tolerance rather than bit-exact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "xbar/array.hpp"
#include "xbar/fastsim.hpp"
#include "xbar/scheme.hpp"
#include "xbar/spicesim.hpp"

namespace nh::spice {
namespace {

NewtonOptions denseForced() {
  NewtonOptions opt;
  opt.sparseMinUnknowns = SIZE_MAX;
  return opt;
}

NewtonOptions sparseForced() {
  NewtonOptions opt;
  opt.sparseMinUnknowns = 0;
  return opt;
}

/// Solve the circuit built by \p build twice (fresh circuit each time, since
/// nonlinear elements keep state) and compare the full solution vectors.
template <typename BuildFn>
void expectDcEquivalence(BuildFn build, double tol = 1e-9) {
  Circuit dense;
  build(dense);
  const SolveResult refResult = solveDc(dense, denseForced());
  ASSERT_TRUE(refResult.converged);

  Circuit sparse;
  build(sparse);
  const SolveResult sparseResult = solveDc(sparse, sparseForced());
  ASSERT_TRUE(sparseResult.converged);

  ASSERT_EQ(refResult.x.size(), sparseResult.x.size());
  for (std::size_t i = 0; i < refResult.x.size(); ++i) {
    EXPECT_NEAR(sparseResult.x[i], refResult.x[i],
                tol * std::max(1.0, std::fabs(refResult.x[i])))
        << "unknown " << i;
  }
}

TEST(SparseStamping, ResistorDividerMatchesDense) {
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId in = ckt.node("in");
    const NodeId mid = ckt.node("mid");
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 10.0);
    ckt.emplace<Resistor>("R1", in, mid, 1000.0);
    ckt.emplace<Resistor>("R2", mid, ckt.ground(), 3000.0);
  });
}

TEST(SparseStamping, StackedSourcesAndCurrentSourceMatchDense) {
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    const NodeId n = ckt.node("n");
    ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
    ckt.emplace<VoltageSource>("V2", b, a, 2.0);
    ckt.emplace<Resistor>("RL", b, ckt.ground(), 1e4);
    ckt.emplace<CurrentSource>("I1", ckt.ground(), n, 1e-3);
    ckt.emplace<Resistor>("R1", n, ckt.ground(), 2000.0);
  });
}

TEST(SparseStamping, NonlinearDiodeNetworkMatchesDense) {
  // Forward and reverse diodes in one netlist: the sparse path must track
  // the dense Newton iteration through the exponential.
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId in = ckt.node("in");
    const NodeId d = ckt.node("d");
    const NodeId rn = ckt.node("rn");
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 5.0);
    ckt.emplace<Resistor>("R1", in, d, 1000.0);
    ckt.emplace<Diode>("D1", d, ckt.ground());
    ckt.emplace<Resistor>("R2", in, rn, 1000.0);
    ckt.emplace<Diode>("D2", ckt.ground(), rn);  // reverse-biased
  });
}

TEST(SparseStamping, FloatingNodeGminOnlyRowMatchesDense) {
  // A never-connected node leaves an all-gmin row: the weakest diagonal the
  // stamper produces, and a pivoting stress for the sparse LU.
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId a = ckt.node("a");
    ckt.node("floating");
    ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
    ckt.emplace<Resistor>("R1", a, ckt.ground(), 1000.0);
  });
}

TEST(SparseStamping, DistributedCrossbarDcMatchesDense) {
  // The real seed netlist: SpiceCrossbar's distributed-segment crossbar
  // with drivers, line-segment chains, and memristor bridges.
  using namespace nh::xbar;
  ArrayConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;

  const auto solveWith = [&](const NewtonOptions& newton) {
    CrossbarArray array(cfg);
    array.fill(CellState::Hrs);
    array.setState(1, 2, CellState::Lrs);
    SpiceEngineOptions opt;
    opt.traceCells = false;
    SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
    spice.programDrivers(selectBias(BiasScheme::Half, cfg.rows, cfg.cols, 1, 2, 1.05),
                         {});
    return solveDc(spice.circuit(), newton);
  };

  const SolveResult ref = solveWith(denseForced());
  const SolveResult sparse = solveWith(sparseForced());
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(sparse.converged);
  ASSERT_EQ(ref.x.size(), sparse.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_NEAR(sparse.x[i], ref.x[i], 1e-8 * std::max(1.0, std::fabs(ref.x[i])))
        << "unknown " << i;
  }
}

TEST(SparseStamping, CrossbarTransientHammerMatchesDense) {
  // Full transient through the sparse path: same pulse train, same victim
  // drift as the dense seed run within solver tolerance.
  using namespace nh::xbar;
  ArrayConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;

  const auto runWith = [&](const NewtonOptions& newton, double& victim) {
    CrossbarArray array(cfg);
    array.fill(CellState::Hrs);
    array.setState(1, 1, CellState::Lrs);
    SpiceEngineOptions opt;
    opt.traceCells = false;
    opt.newton = newton;
    SpiceCrossbar spice(array, AlphaTable::analytic(10e-9), opt);
    spice.programHammer(1, 1, 1.05, 50e-9, 100e-9, 3);
    const auto result = spice.run(300e-9);
    victim = array.cell(1, 0).normalisedState();
    return result.completed;
  };

  double victimDense = 0.0, victimSparse = 0.0;
  ASSERT_TRUE(runWith(denseForced(), victimDense));
  ASSERT_TRUE(runWith(sparseForced(), victimSparse));
  EXPECT_GT(victimDense, 0.0);
  EXPECT_NEAR(victimSparse, victimDense,
              1e-6 * std::max(1.0, std::fabs(victimDense)) + 1e-12);
}

}  // namespace
}  // namespace nh::spice
