#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>

#include "xbar/fastsim.hpp"
#include "xbar/spicesim.hpp"

#include "quiescent_envelope_cases.hpp"

namespace nh::xbar {
namespace {

ArrayConfig config3x3() {
  ArrayConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  return cfg;
}

TEST(FastEngine, IdealAndNetworkVoltagesClose) {
  // With a 50-Ohm driver and uA-level currents the line nodes sit within a
  // few mV of the ideal bias.
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngineOptions opt;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 10e-9);
  const auto& lv = engine.lastLineVoltages();
  EXPECT_NEAR(lv[1], 1.05, 0.02);      // selected word line
  EXPECT_NEAR(lv[3 + 1], 0.0, 0.02);   // selected bit line
  EXPECT_NEAR(lv[0], 0.525, 0.02);     // half bias lines
  EXPECT_GT(engine.newtonIterationsTotal(), 0u);
}

TEST(FastEngine, IdealModeSkipsNetworkSolve) {
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.solveLineNetwork = false;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 10e-9);
  EXPECT_DOUBLE_EQ(engine.lastLineVoltages()[1], 1.05);
  EXPECT_EQ(engine.newtonIterationsTotal(), 0u);
}

TEST(FastEngine, IdleGapLeavesLinesAtZeroWithoutNewtonIterations) {
  // The idle gap drives every line to 0 V. Its network solution is +0.0 on
  // every line, returned without a Newton iteration, so a pulse costs the
  // iterations of its driven substeps only.
  ArrayConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  const LineBias bias = selectBias(BiasScheme::Half, 5, 5, 2, 2, 1.05);
  const auto makeArray = [&] {
    CrossbarArray array(cfg);
    array.fill(CellState::Hrs);
    array.setState(2, 2, CellState::Lrs);
    array.setState(0, 3, CellState::Lrs);
    return array;
  };
  CrossbarArray pulsedArray = makeArray();
  FastEngine pulsed(pulsedArray, AlphaTable::analytic(50e-9));
  pulsed.applyPulse(bias, 50e-9, 50e-9);
  CrossbarArray drivenArray = makeArray();
  FastEngine driven(drivenArray, AlphaTable::analytic(50e-9));
  driven.applyBias(bias, 50e-9);

  EXPECT_GT(driven.newtonIterationsTotal(), 0u);
  EXPECT_EQ(pulsed.newtonIterationsTotal(), driven.newtonIterationsTotal());
  EXPECT_GT(driven.lastLineVoltages()[2], 1.0);
  for (const double v : pulsed.lastLineVoltages()) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

TEST(FastEngine, TimeAdvances) {
  CrossbarArray array(config3x3());
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  EXPECT_NEAR(engine.time(), 100e-9, 1e-15);
}

TEST(FastEngine, HammeringHeatsWordLineNeighbourMost) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 50e-9);  // stay inside the pulse: temps are hot

  const double tAggressor = array.cell(1, 1).temperature();
  const double tWordNeighbour = array.cell(1, 0).temperature();
  const double tBitNeighbour = array.cell(0, 1).temperature();
  const double tDiagonal = array.cell(0, 0).temperature();
  EXPECT_GT(tAggressor, 450.0);
  EXPECT_GT(tWordNeighbour, tBitNeighbour);
  EXPECT_GT(tBitNeighbour, tDiagonal);
  EXPECT_GT(tDiagonal, 300.0);
}

TEST(FastEngine, GapCoolsArray) {
  CrossbarArray array(config3x3());
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(array.cell(r, c).temperature(), 300.0, 1.0);
    }
  }
}

TEST(FastEngine, UnselectedCellsDoNotDrift) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyPulseTrain(bias, 50e-9, 50e-9, 200);
  // Cells sharing no line with (1,1) see no voltage; they must stay put.
  EXPECT_LT(array.cell(0, 0).normalisedState(), 1e-6);
  EXPECT_LT(array.cell(2, 0).normalisedState(), 1e-6);
  // Half-selected neighbours have started to drift.
  EXPECT_GT(array.cell(1, 0).normalisedState(), 1e-5);
}

TEST(FastEngine, BatchingMatchesUnbatchedPulseCount) {
  // The accelerated train must flip within a few percent of the exact one.
  const auto runAttack = [](bool batching) {
    CrossbarArray array(config3x3());
    array.fill(CellState::Hrs);
    array.setState(1, 1, CellState::Lrs);
    FastEngineOptions opt;
    opt.enableBatching = batching;
    FastEngine engine(array, AlphaTable::analytic(10e-9), opt);
    const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
    std::size_t flipAt = 0;
    engine.applyPulseTrain(bias, 50e-9, 50e-9, 20000, [&](std::size_t pulse) {
      if (array.cell(1, 0).normalisedState() >= 0.5) {
        flipAt = pulse;
        return true;
      }
      return false;
    });
    return flipAt;
  };
  const std::size_t exact = runAttack(false);
  const std::size_t batched = runAttack(true);
  ASSERT_GT(exact, 0u);
  ASSERT_GT(batched, 0u);
  EXPECT_NEAR(static_cast<double>(batched), static_cast<double>(exact),
              0.08 * static_cast<double>(exact) + 3.0);
}

TEST(FastEngine, PulseTrainStopsEarlyViaCallback) {
  // Without batching the stop is exact; with batching the callback still
  // fires and stops the train, but only at batch granularity.
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.enableBatching = false;
  FastEngine exact(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = idleBias(3, 3);
  const auto precise = exact.applyPulseTrain(bias, 10e-9, 10e-9, 100,
                                             [](std::size_t p) { return p >= 7; });
  EXPECT_TRUE(precise.stoppedEarly);
  EXPECT_EQ(precise.pulsesApplied, 7u);

  FastEngine batched(array, AlphaTable::analytic(50e-9));
  const auto coarse = batched.applyPulseTrain(
      bias, 10e-9, 10e-9, 100, [](std::size_t p) { return p >= 7; });
  EXPECT_TRUE(coarse.stoppedEarly);
  EXPECT_LE(coarse.pulsesApplied, 100u);
}

TEST(FastEngine, HealthyAttackHasNoNonConvergedConductionSolves) {
  // Fig. 3-style attack: V/2 hammering of the centre of a 5x5 array at 10 nm
  // until the word-line neighbour flips.
  ArrayConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  CrossbarArray array(cfg);
  array.fill(CellState::Hrs);
  array.setState(2, 2, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(10e-9));
  const LineBias bias = selectBias(BiasScheme::Half, 5, 5, 2, 2, 1.05);
  std::size_t flipAt = 0;
  engine.applyPulseTrain(bias, 50e-9, 50e-9, 20000, [&](std::size_t pulse) {
    if (array.cell(2, 1).normalisedState() >= 0.5) {
      flipAt = pulse;
      return true;
    }
    return false;
  });
  EXPECT_GT(flipAt, 0u);
  EXPECT_GT(engine.newtonIterationsTotal(), 0u);
  EXPECT_EQ(engine.conductionNonConvergedTotal(), 0u);
  EXPECT_EQ(engine.newtonCapHitsTotal(), 0u);
}

TEST(FastEngine, CountsNewtonSolvesThatHitTheIterationCap) {
  // One Newton step from the ideal-bias warm start never meets the 1e-9 V
  // tolerance under a hammer bias: every biased solve hits the cap.
  CrossbarArray array(config3x3());
  array.setState(1, 1, CellState::Lrs);
  FastEngineOptions opt;
  opt.maxNewtonIterations = 1;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  EXPECT_GT(engine.newtonCapHitsTotal(), 0u);
  EXPECT_LE(engine.newtonCapHitsTotal(), engine.newtonIterationsTotal());
}

TEST(FastEngine, CountsNonConvergedConductionSolves) {
  // A NaN word-line drive gives the cells on that line a NaN operating
  // point, which no conduction solve can converge on.
  LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  bias.wordLine[1] = std::nan("");
  {
    // Ideal drivers: the cells are only reached through advance().
    CrossbarArray array(config3x3());
    FastEngineOptions opt;
    opt.solveLineNetwork = false;
    FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
    engine.applyBias(bias, 10e-9);
    EXPECT_GT(engine.conductionNonConvergedTotal(), 0u);
  }
  {
    // Line network: the Jacobian fill counts the solves before the
    // non-finite Newton update is rejected.
    CrossbarArray array(config3x3());
    FastEngine engine(array, AlphaTable::analytic(50e-9));
    EXPECT_THROW(engine.applyBias(bias, 10e-9), nh::util::SolverError);
    EXPECT_EQ(engine.conductionNonConvergedTotal(), 3u);
  }
}

TEST(FastEngine, CountsANanCrosstalkInputInTheIdleGap) {
  // A NaN coupling at offset (0, 1) makes the crosstalk input NaN in the
  // six cells that have a neighbour there. A zero-width pulse runs only the
  // idle gap: no line solve, each cell advanced at 0 V with a finite state,
  // in one substep. Each advance at a NaN temperature is counted.
  AlphaTable table = AlphaTable::analytic(50e-9);
  table.set(0, 1, std::nan(""));
  CrossbarArray array(config3x3());
  FastEngine engine(array, table);
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 0.0), 0.0, 50e-9);
  EXPECT_EQ(engine.conductionNonConvergedTotal(), 6u);
  EXPECT_EQ(engine.newtonIterationsTotal(), 0u);
}

TEST(FastEngine, NonFiniteDriveRaisesSolverErrorOnTheRowBlockPath) {
  // 32x32 = 1024 cells: the Jacobian fill runs in row blocks on the pool.
  // The NaN word line still ends in the unwrapped SolverError, after all 32
  // of its cells were counted as non-converged.
  ArrayConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  ASSERT_GE(cfg.rows * cfg.cols, kParallelMinCells);
  CrossbarArray array(cfg);
  LineBias bias = selectBias(BiasScheme::Half, 32, 32, 16, 16, 1.05);
  bias.wordLine[7] = std::nan("");
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  EXPECT_THROW(engine.applyBias(bias, 10e-9), nh::util::SolverError);
  EXPECT_EQ(engine.conductionNonConvergedTotal(), 32u);
}

TEST(FastEngine, CountsQuiescentEvaluationsOnlyWithTheLineNetwork) {
  // A 64x64 V/2 hammer leaves 3,969 cells idle at |v| ~ 1e-5 V: their fills
  // and advances take the certified linear path. Ideal drivers give no
  // budget, so every cell takes the full solve.
  for (const bool network : {true, false}) {
    ArrayConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    CrossbarArray array(cfg);
    array.setState(32, 32, CellState::Lrs);
    FastEngineOptions opt;
    opt.solveLineNetwork = network;
    FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
    engine.applyPulse(selectBias(BiasScheme::Half, 64, 64, 32, 32, 1.05), 50e-9, 50e-9);
    if (network) {
      // At least the idle cells of every fill and every driven advance but
      // the first fill: it sees them at exactly 0 V before any cache entry
      // exists and takes the (exact) solve there.
      const std::size_t idle = 63 * 63;
      EXPECT_GE(engine.quiescentEvaluationsTotal(),
                idle * (engine.newtonIterationsTotal() + opt.substepsPerPulse - 1));
    } else {
      EXPECT_EQ(engine.quiescentEvaluationsTotal(), 0u);
    }
    EXPECT_EQ(engine.conductionNonConvergedTotal(), 0u);
  }
}

TEST(FastEngine, QuiescentBypassStaysInsideTheEnvelope) {
  // Declared envelope against the engine without the bypass (outcomes
  // recorded from it below): pulses-to-flip within +-1 pulse, the victim's
  // normalised state within 1e-6.
  constexpr long long kPulseEnvelope = 1;
  constexpr double kStateEnvelope = 1e-6;
  const envelope::Outcome recorded[] = {
    {35, 0.50514616446257143},  // 5x5 V/2 LRS 0.0
    {35, 0.50558139922067569},  // 5x5 V/2 LRS 0.3
    {1140, 0.50290462980546125},  // 5x5 V/3 LRS 0.0
    {628, 0.50342735450716203},  // 5x5 V/3 LRS 0.3
    {35, 0.50519676020969784},  // 12x12 V/2 LRS 0.0
    {22, 0.5004891063077006},  // 12x12 V/2 LRS 0.2
    {735, 0.50493062957074553},  // 12x12 V/3 LRS 0.2
    {237, 0.50528719518948273},  // 24x24 V/2 LRS 0.0
    {28, 0.50914474072984084},  // 24x24 V/2 LRS 0.2
    {1141, 0.50290446496232799},  // 24x24 V/3 LRS 0.0
    {24, 0.50250369095560543},  // 40x40 V/2 LRS 0.1
    {36, 0.50659565228754533},  // 64x64 V/2 LRS 0.0
    {28, 0.50166550794194442},  // 64x64 V/2 LRS 0.1
    {708, 0.50694304394470702},  // 64x64 V/3 LRS 0.1
  };
  ASSERT_EQ(std::size(recorded), std::size(envelope::kCases));
  std::uint64_t stream = 0;
  for (const envelope::Case& k : envelope::kCases) {
    const envelope::Outcome& ref = recorded[stream];
    const envelope::Outcome got = envelope::run(k, stream);
    const std::string what = "case " + std::to_string(stream) + ": " +
                             std::to_string(k.n) + "x" + std::to_string(k.n);
    EXPECT_LE(std::llabs(static_cast<long long>(got.pulses) -
                         static_cast<long long>(ref.pulses)),
              kPulseEnvelope)
        << what;
    EXPECT_NEAR(got.victimState, ref.victimState, kStateEnvelope) << what;
    ++stream;
  }
}

TEST(FastEngine, OptionValidation) {
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.substepsPerPulse = 0;
  EXPECT_THROW(FastEngine(array, AlphaTable::analytic(50e-9), opt),
               std::invalid_argument);
  FastEngineOptions opt2;
  opt2.batchDriftLimit = 0.0;
  EXPECT_THROW(FastEngine(array, AlphaTable::analytic(50e-9), opt2),
               std::invalid_argument);
  FastEngine ok(array, AlphaTable::analytic(50e-9));
  LineBias wrong;
  wrong.wordLine.assign(2, 0.0);
  wrong.bitLine.assign(3, 0.0);
  EXPECT_THROW(ok.applyBias(wrong, 1e-9), std::invalid_argument);
}

// ---- SPICE engine ------------------------------------------------------------------

TEST(SpiceCrossbar, DcLevelsMatchScheme) {
  // 3x3 and 16x16 arrays; the 16x16 netlist has 2*256 + 2*32 = 576 unknowns,
  // the largest netlist the tests build.
  for (const std::size_t n : {std::size_t{3}, std::size_t{16}}) {
    SCOPED_TRACE(n);
    ArrayConfig cfg;
    cfg.rows = n;
    cfg.cols = n;
    CrossbarArray array(cfg);
    const std::size_t sel = n / 2;
    array.fill(CellState::Hrs);
    array.setState(sel, sel, CellState::Lrs);
    SpiceEngineOptions opt;
    opt.traceCells = false;
    SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
    spice.programDrivers(selectBias(BiasScheme::Half, n, n, sel, sel, 1.05), {});

    auto& ckt = spice.circuit();
    const auto result = nh::spice::solveDc(ckt);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.x.size(), 2 * n * n + 4 * n);
    const auto v = [&](const std::string& name) {
      const auto id = ckt.findNode(name);
      return id == 0 ? 0.0 : result.x[id - 1];
    };
    EXPECT_NEAR(v(spice.wordLineNode(sel, sel)), 1.05, 0.02);
    EXPECT_NEAR(v(spice.bitLineNode(sel, sel)), 0.0, 0.02);
    EXPECT_NEAR(v(spice.wordLineNode(0, 0)), 0.525, 0.02);
  }
}

TEST(SpiceCrossbar, TransientHammerAdvancesVictim) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  SpiceEngineOptions opt;
  opt.traceCells = true;
  SpiceCrossbar spice(array, AlphaTable::analytic(10e-9), opt);
  spice.programHammer(1, 1, 1.05, 50e-9, 100e-9, 5);
  const auto result = spice.run(500e-9);
  ASSERT_TRUE(result.completed) << result.failureReason;
  // Victim drifted up, unselected cell did not.
  EXPECT_GT(array.cell(1, 0).normalisedState(), 1e-5);
  EXPECT_LT(array.cell(0, 0).normalisedState(), 1e-6);
  // Traces exist and show the aggressor heating during pulses.
  const auto& tAgg = result.seriesFor("T(1,1)");
  double maxT = 0.0;
  for (const double t : tAgg) maxT = std::max(maxT, t);
  EXPECT_GT(maxT, 450.0);
}

TEST(SpiceVsFast, VictimDriftAgreesOverShortTrain) {
  // The quasi-static engine must agree with the full transient on the
  // victim state drift over a short pulse train (10 pulses, 10 nm spacing).
  const std::size_t pulses = 10;

  CrossbarArray arrayFast(config3x3());
  arrayFast.fill(CellState::Hrs);
  arrayFast.setState(1, 1, CellState::Lrs);
  FastEngine fast(arrayFast, AlphaTable::analytic(10e-9));
  fast.applyPulseTrain(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9,
                       50e-9, pulses);

  CrossbarArray arraySpice(config3x3());
  arraySpice.fill(CellState::Hrs);
  arraySpice.setState(1, 1, CellState::Lrs);
  SpiceEngineOptions opt;
  opt.traceCells = false;
  SpiceCrossbar spice(arraySpice, AlphaTable::analytic(10e-9), opt);
  spice.programHammer(1, 1, 1.05, 50e-9, 100e-9,
                      static_cast<long long>(pulses));
  const auto result = spice.run(static_cast<double>(pulses) * 100e-9);
  ASSERT_TRUE(result.completed) << result.failureReason;

  const double xFast = arrayFast.cell(1, 0).normalisedState();
  const double xSpice = arraySpice.cell(1, 0).normalisedState();
  ASSERT_GT(xSpice, 0.0);
  EXPECT_NEAR(xFast / xSpice, 1.0, 0.30);
}

TEST(SpiceCrossbar, StimulusValidation) {
  CrossbarArray array(config3x3());
  SpiceEngineOptions opt;
  opt.traceCells = false;
  SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
  LineStimulus bad;
  bad.isWordLine = false;
  bad.index = 9;
  bad.pulse.amplitude = 1.0;
  bad.pulse.width = 10e-9;
  EXPECT_THROW(spice.programDrivers(idleBias(3, 3), {bad}), std::out_of_range);
  LineBias wrong;
  wrong.wordLine.assign(2, 0.0);
  wrong.bitLine.assign(3, 0.0);
  EXPECT_THROW(spice.programDrivers(wrong, {}), std::invalid_argument);
}

}  // namespace
}  // namespace nh::xbar
