#include "xbar/sneak.hpp"

#include <gtest/gtest.h>

#include "xbar/fastsim.hpp"

namespace nh::xbar {
namespace {

ArrayConfig config(std::size_t n) {
  ArrayConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  return cfg;
}

TEST(Sneak, HalfBiasBoundsUnselectedVoltage) {
  // What the V/2 scheme actually guarantees (paper: "All remaining inputs
  // are supplied with V/2 to minimize the sneak-path currents"): under a
  // write-level drive, no unselected cell sees more than V/2. With floating
  // lines and mixed data, an HRS cell inside a conductive sneak chain takes
  // nearly the full drive voltage -- a severe write disturb.
  CrossbarArray array(config(5));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      array.setState(r, c, (r + c) % 2 == 0 ? CellState::Lrs : CellState::Hrs);
    }
  }
  const double vWrite = 1.05;
  const auto floating =
      analyzeSneak(array, 2, 2, vWrite, ReadScheme::FloatingLines);
  const auto half = analyzeSneak(array, 2, 2, vWrite, ReadScheme::HalfBias);
  // V/2's bound is structural (data-independent); the floating bound is an
  // emergent property of the cells' diode-like nonlinearity and happens to
  // land near V/2 for this self-selecting device, but it is data-dependent.
  EXPECT_LE(half.maxUnselectedVoltage, vWrite / 2.0 + 0.02);
  EXPECT_GT(floating.maxUnselectedVoltage, 0.3);
  EXPECT_LT(floating.maxUnselectedVoltage, vWrite);
}

TEST(Sneak, HalfBiasBurnsHalfSelectPower) {
  CrossbarArray array(config(5));
  array.fill(CellState::Lrs);
  const auto floating = analyzeSneak(array, 2, 2, 0.2, ReadScheme::FloatingLines);
  const auto half = analyzeSneak(array, 2, 2, 0.2, ReadScheme::HalfBias);
  // The cost of the scheme: half-selected cells burn power.
  EXPECT_GT(half.halfSelectPower, floating.halfSelectPower);
}

TEST(Sneak, SelectedCurrentTracksState) {
  CrossbarArray array(config(5));
  array.fill(CellState::Hrs);
  array.setState(2, 2, CellState::Lrs);
  const auto lrs = analyzeSneak(array, 2, 2, 0.2, ReadScheme::HalfBias);
  array.setState(2, 2, CellState::Hrs);
  const auto hrs = analyzeSneak(array, 2, 2, 0.2, ReadScheme::HalfBias);
  EXPECT_GT(lrs.selectedCurrent, 20.0 * hrs.selectedCurrent);
}

TEST(Sneak, ReadMarginDegradesWithArraySize) {
  // The classic passive-crossbar scaling limit, under both schemes.
  for (const auto scheme : {ReadScheme::FloatingLines, ReadScheme::HalfBias}) {
    const auto m5 = worstCaseReadMargin(config(5), 0.2, scheme);
    const auto m9 = worstCaseReadMargin(config(9), 0.2, scheme);
    EXPECT_GT(m5.margin, m9.margin);
    EXPECT_GT(m9.margin, 0.0);
  }
}

TEST(Sneak, SneakCurrentGrowsWithArraySize) {
  for (const std::size_t n : {5u, 9u}) {
    CrossbarArray small(config(5));
    CrossbarArray larger(config(n));
    small.fill(CellState::Lrs);
    larger.fill(CellState::Lrs);
    const auto a = analyzeSneak(small, 2, 2, 0.2, ReadScheme::FloatingLines);
    const auto b =
        analyzeSneak(larger, n / 2, n / 2, 0.2, ReadScheme::FloatingLines);
    if (n > 5) EXPECT_GT(std::abs(b.sneakCurrent), std::abs(a.sneakCurrent));
  }
}

TEST(Sneak, MarginCurrentsOrdered) {
  const auto m = worstCaseReadMargin(config(5), 0.2, ReadScheme::HalfBias);
  EXPECT_GT(m.iSelectedLrs, m.iSelectedHrs);
  EXPECT_GT(m.iSelectedHrs, 0.0);
}

TEST(Sneak, Validation) {
  CrossbarArray array(config(3));
  EXPECT_THROW(analyzeSneak(array, 5, 0, 0.2, ReadScheme::HalfBias),
               std::out_of_range);
  EXPECT_THROW(analyzeSneak(array, 0, 0, 0.0, ReadScheme::HalfBias),
               std::invalid_argument);
}

// ---- energy accounting ------------------------------------------------------

TEST(Energy, AccumulatesDuringPulsesOnly) {
  CrossbarArray array(config(3));
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  EXPECT_DOUBLE_EQ(engine.totalEnergy(), 0.0);

  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyPulse(bias, 50e-9, 50e-9);
  const double onePulse = engine.totalEnergy();
  // LRS aggressor at ~1 V / ~120 uA for 50 ns ~ a few pJ.
  EXPECT_GT(onePulse, 1e-13);
  EXPECT_LT(onePulse, 1e-10);

  // Idle time adds (almost) nothing.
  engine.applyBias(idleBias(3, 3), 1e-6);
  EXPECT_NEAR(engine.totalEnergy(), onePulse, onePulse * 1e-6);
}

TEST(Energy, AggressorDominatesTheBreakdown) {
  CrossbarArray array(config(3));
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  const auto& byCell = engine.energyByCell();
  EXPECT_GT(byCell(1, 1), 10.0 * byCell(1, 0));
  EXPECT_GT(byCell(1, 0), byCell(0, 0));  // half-selected > unselected
}

TEST(Energy, BatchedTrainsExtrapolateEnergy) {
  const auto run = [](bool batching) {
    CrossbarArray array(config(3));
    array.fill(CellState::Hrs);
    array.setState(1, 1, CellState::Lrs);
    FastEngineOptions opt;
    opt.enableBatching = batching;
    FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
    engine.applyPulseTrain(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05),
                           50e-9, 50e-9, 200);
    return engine.totalEnergy();
  };
  const double exact = run(false);
  const double batched = run(true);
  EXPECT_NEAR(batched / exact, 1.0, 0.05);
}

TEST(Energy, PerCellBreakdownSumsToTotalAfterBatchedTrain) {
  CrossbarArray array(config(3));
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  const PulseTrainResult train = engine.applyPulseTrain(
      selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9, 200);
  ASSERT_LT(train.pulsesSimulated, train.pulsesApplied);  // batches replayed
  double sum = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) sum += engine.energyByCell()(r, c);
  }
  EXPECT_GT(engine.totalEnergy(), 0.0);
  EXPECT_NEAR(sum, engine.totalEnergy(), 1e-12 * engine.totalEnergy());
}

TEST(Energy, ResetClearsCounters) {
  CrossbarArray array(config(3));
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 0.0);
  EXPECT_GT(engine.totalEnergy(), 0.0);
  engine.resetEnergy();
  EXPECT_DOUBLE_EQ(engine.totalEnergy(), 0.0);
  EXPECT_DOUBLE_EQ(engine.energyByCell()(1, 1), 0.0);
}

}  // namespace
}  // namespace nh::xbar
