#include "xbar/sneak.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/linsolve.hpp"
#include "util/rng.hpp"
#include "xbar/fastsim.hpp"
#include "xbar/linenet.hpp"

#include "line_network_oracle.hpp"

namespace nh::xbar {
namespace {

ArrayConfig config(std::size_t n) {
  ArrayConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  return cfg;
}

/// Oracle: the read as a SPICE MNA circuit -- one node per line, a named
/// Memristor element per cell, a source behind the driver resistance on
/// each driven line, and SPICE's gmin from every node to ground (the only
/// model difference from analyzeSneak, visible on floating lines).
SneakAnalysis spiceRead(const CrossbarArray& array, std::size_t selRow,
                        std::size_t selCol, double vRead, ReadScheme scheme,
                        bool& converged) {
  using namespace nh::spice;
  Circuit ckt;
  const double rDrv = std::max(array.config().driverResistance, 1e-3);
  std::vector<NodeId> wordNodes, bitNodes;
  for (std::size_t r = 0; r < array.rows(); ++r) {
    wordNodes.push_back(ckt.node("wl" + std::to_string(r)));
  }
  for (std::size_t c = 0; c < array.cols(); ++c) {
    bitNodes.push_back(ckt.node("bl" + std::to_string(c)));
  }
  const auto drive = [&](const std::string& name, NodeId node, double level) {
    const NodeId src = ckt.node(name + "_src");
    auto* source = ckt.emplace<VoltageSource>(name, src, ckt.ground(), level);
    ckt.emplace<Resistor>(name + "_rdrv", src, node, rDrv);
    return source;
  };
  drive("vwl_sel", wordNodes[selRow], vRead);
  VoltageSource* bitDriver = drive("vbl_sel", bitNodes[selCol], 0.0);
  if (scheme == ReadScheme::HalfBias) {
    for (std::size_t r = 0; r < array.rows(); ++r) {
      if (r != selRow) drive("vwl" + std::to_string(r), wordNodes[r], vRead / 2);
    }
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (c != selCol) drive("vbl" + std::to_string(c), bitNodes[c], vRead / 2);
    }
  }
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      // const_cast: the Memristor element only mutates state via
      // acceptStep, which a DC solve never calls.
      auto* model = const_cast<jart::JartDevice*>(&array.cell(r, c));
      ckt.emplace<Memristor>("x" + std::to_string(r) + "_" + std::to_string(c),
                             wordNodes[r], bitNodes[c], model);
    }
  }

  const SolveResult op = solveDc(ckt);
  converged = op.converged;
  const auto nodeV = [&](NodeId id) { return id == 0 ? 0.0 : op.x[id - 1]; };
  SneakAnalysis out;
  // The source's branch current is the current into the 0 V driver.
  out.bitLineCurrent = bitDriver->branchCurrent(op.x);
  const double vCell = nodeV(wordNodes[selRow]) - nodeV(bitNodes[selCol]);
  out.selectedCurrent = array.cell(selRow, selCol).current(vCell);
  out.sneakCurrent = out.bitLineCurrent - out.selectedCurrent;
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (r == selRow && c == selCol) continue;
      const double v = nodeV(wordNodes[r]) - nodeV(bitNodes[c]);
      out.halfSelectPower += std::abs(v * array.cell(r, c).current(v));
      out.maxUnselectedVoltage = std::max(out.maxUnselectedVoltage, std::abs(v));
    }
  }
  return out;
}

TEST(Sneak, MatchesSpiceReadOracleOnSampledArrays) {
  // Seeded arrays from 3x3 to 32x32 (non-square too): random LRS/HRS mixes
  // at a per-array LRS fraction, plus checkerboards, read under both
  // schemes at a read and at a write level. Declared envelope: 1e-8
  // relative under V/2; 1e-4 with floating lines, where SPICE's 1e-12 S
  // gmin on every node is the only model difference.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3, 3}, {3, 7}, {4, 4}, {5, 5}, {8, 6}, {9, 9}, {12, 16}, {16, 16}, {32, 32}};
  std::uint64_t stream = 0;
  std::size_t compared = 0;
  for (const auto& [rows, cols] : shapes) {
    for (const bool checkerboard : {false, true}) {
      util::Rng rng = util::Rng::forStream(2026, stream++);
      ArrayConfig cfg;
      cfg.rows = rows;
      cfg.cols = cols;
      CrossbarArray array(cfg);
      const double lrsFraction = rng.uniform(0.1, 0.9);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          const bool lrs = checkerboard ? (r + c) % 2 == 0 : rng.uniform() < lrsFraction;
          array.setState(r, c, lrs ? CellState::Lrs : CellState::Hrs);
        }
      }
      const std::size_t selRow = rng.uniformInt(rows);
      const std::size_t selCol = rng.uniformInt(cols);
      for (const ReadScheme scheme : {ReadScheme::HalfBias, ReadScheme::FloatingLines}) {
        const double tol = scheme == ReadScheme::HalfBias ? 1e-8 : 1e-4;
        for (const double vRead : {0.2, 1.05}) {
          const std::string what = std::to_string(rows) + "x" + std::to_string(cols) +
                                   (checkerboard ? " checkerboard" : " mixed") +
                                   (scheme == ReadScheme::HalfBias ? " V/2 " : " floating ") +
                                   std::to_string(vRead) + " V";
          bool converged = false;
          const SneakAnalysis ref = spiceRead(array, selRow, selCol, vRead, scheme, converged);
          ASSERT_TRUE(converged) << what;
          const SneakAnalysis got = analyzeSneak(array, selRow, selCol, vRead, scheme);
          EXPECT_GT(got.newtonIterations, 0u) << what;
          const auto near = [&](double a, double b, double scale, const char* field) {
            EXPECT_LE(std::abs(a - b), tol * std::abs(scale)) << what << ": " << field;
          };
          near(got.bitLineCurrent, ref.bitLineCurrent, ref.bitLineCurrent, "bitLineCurrent");
          near(got.selectedCurrent, ref.selectedCurrent, ref.selectedCurrent,
               "selectedCurrent");
          // The sneak share is a difference of the two: scale by the total.
          near(got.sneakCurrent, ref.sneakCurrent, ref.bitLineCurrent, "sneakCurrent");
          near(got.halfSelectPower, ref.halfSelectPower, ref.halfSelectPower,
               "halfSelectPower");
          near(got.maxUnselectedVoltage, ref.maxUnselectedVoltage,
               ref.maxUnselectedVoltage, "maxUnselectedVoltage");
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, std::size(shapes) * 2 * 2 * 2);
}

TEST(LineNetworkSolver, ReportsTheIterationCap) {
  // One Newton iteration cannot meet newtonTol from the ideal-driver start
  // of a loaded network: the solve reports the cap instead of passing the
  // unconverged voltages off as a solution.
  CrossbarArray array(config(5));
  array.fill(CellState::Lrs);
  const LineBias bias = selectBias(BiasScheme::Half, 5, 5, 2, 2, 1.05);
  LineDrivers drivers;
  drivers.level = bias.wordLine;
  drivers.level.insert(drivers.level.end(), bias.bitLine.begin(), bias.bitLine.end());
  drivers.conductance.assign(10, 1.0 / array.config().driverResistance);
  FastEngineOptions options;
  options.maxNewtonIterations = 1;
  LineNetworkSolver solver;
  util::Vector voltages;
  const LineSolveResult capped = solver.solve(array, drivers, options, voltages);
  EXPECT_EQ(capped.newtonIterations, 1u);
  EXPECT_TRUE(capped.capHit);
  EXPECT_FALSE(capped.converged());
  EXPECT_GT(capped.lastStep, options.newtonTol);

  const LineSolveResult full = solver.solve(array, drivers, FastEngineOptions{}, voltages);
  EXPECT_TRUE(full.converged());
  EXPECT_FALSE(full.capHit);
  EXPECT_GT(full.newtonIterations, 1u);
  // The loop may stop on the contraction estimate while the last step is
  // still above newtonTol: the estimate, and the distance to the dense
  // oracle, are what newtonTol bounds.
  const double tol = FastEngineOptions{}.newtonTol;
  EXPECT_LT(full.errorEstimate, tol);
  const util::Vector ref = oracle::denseLineNewton(array, drivers);
  ASSERT_EQ(voltages.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(voltages[i], ref[i], tol) << "line " << i;
  }
}

TEST(LineNetworkSolver, ContractionStopLandsWithinNewtonTolOfDenseOracle) {
  // Seeded arrays from 3x3 to 16x16 with LRS/HRS mixes, read under both
  // schemes (every line driven; unselected lines floating), at a read and
  // a write-level drive: wherever the loop stops, the line voltages lie
  // within newtonTol of the dense-Jacobian Newton, and the estimate that
  // stopped it is below newtonTol.
  const double tol = FastEngineOptions{}.newtonTol;
  // The 32x32 and 64x64 arrays, one with a sparse LRS mix, are where the
  // quiescent-cell bypass engages: the oracle evaluates every cell in full.
  const std::pair<std::size_t, std::size_t> shapes[] = {{3, 3},   {4, 7},   {8, 8}, {11, 6},
                                                        {16, 16}, {32, 32}, {64, 64}};
  std::uint64_t stream = 0;
  std::size_t solves = 0;
  std::size_t contractionStops = 0;
  std::size_t linearised = 0;
  for (const auto& [rows, cols] : shapes) {
    util::Rng rng = util::Rng::forStream(77, stream++);
    ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    CrossbarArray array(cfg);
    const double lrsFraction = rows == 64 ? 0.05 : rng.uniform(0.1, 0.9);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        array.setState(r, c, rng.uniform() < lrsFraction ? CellState::Lrs : CellState::Hrs);
      }
    }
    const std::size_t selRow = rng.uniformInt(rows);
    const std::size_t selCol = rng.uniformInt(cols);
    const double gDrv = 1.0 / cfg.driverResistance;
    for (const ReadScheme scheme : {ReadScheme::HalfBias, ReadScheme::FloatingLines}) {
      for (const double vRead : {0.2, 1.05}) {
        // The read's drivers, as analyzeSneak sets them.
        LineDrivers drivers{util::Vector(rows + cols, vRead / 2),
                            util::Vector(rows + cols,
                                         scheme == ReadScheme::HalfBias ? gDrv : 0.0)};
        drivers.level[selRow] = vRead;
        drivers.conductance[selRow] = gDrv;
        drivers.level[rows + selCol] = 0.0;
        drivers.conductance[rows + selCol] = gDrv;
        const std::string what = std::to_string(rows) + "x" + std::to_string(cols) +
                                 (scheme == ReadScheme::HalfBias ? " V/2 " : " floating ") +
                                 std::to_string(vRead) + " V";

        LineNetworkSolver solver;
        util::Vector voltages;
        const LineSolveResult solved =
            solver.solve(array, drivers, FastEngineOptions{}, voltages);
        ASSERT_TRUE(solved.converged()) << what;
        EXPECT_LT(solved.errorEstimate, tol) << what;
        if (solved.lastStep >= tol) ++contractionStops;
        linearised += solved.quiescentEvaluations;
        const util::Vector ref = oracle::denseLineNewton(array, drivers);
        ASSERT_EQ(voltages.size(), ref.size()) << what;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_NEAR(voltages[i], ref[i], tol) << what << ", line " << i;
        }
        ++solves;
      }
    }
  }
  EXPECT_EQ(solves, std::size(shapes) * 2 * 2);
  // Some solves stop on the estimate with their last step still above
  // newtonTol, so the oracle check above covers that stop.
  EXPECT_GT(contractionStops, 0u);
  EXPECT_GT(linearised, 0u);
}

/// Every line of an n x n array driven through the configured driver.
LineDrivers drivenLines(const CrossbarArray& array, double level) {
  const std::size_t lines = array.rows() + array.cols();
  return {util::Vector(lines, level),
          util::Vector(lines, 1.0 / array.config().driverResistance)};
}

TEST(QuiescentCells, BudgetIsOnePercentOfTheLineToleranceSharedByItsCells) {
  CrossbarArray array(config(64));
  QuiescentCells cells;
  EXPECT_EQ(cells.budget(0, 0), 0.0);  // no solve yet
  LineDrivers drivers = drivenLines(array, 0.0);
  drivers.conductance[3] = 0.0;        // word line 3 floats
  cells.setBudgets(array, drivers, 1e-9);
  const double expected = 0.01 * 1e-9 * (1.0 / 50.0) / 64.0;
  EXPECT_DOUBLE_EQ(cells.budget(0, 0), expected);
  EXPECT_DOUBLE_EQ(cells.budget(63, 17), expected);
  EXPECT_EQ(cells.budget(3, 17), 0.0);
}

TEST(QuiescentCells, CertifiesIdleHrsButNotLrsAt1e4V) {
  // Deep HRS at 1e-5 V leaves a remainder of ~5e-18 A against the 64-cell
  // budget of 3.1e-15 A; LRS at 1e-4 V leaves ~3e-13 A.
  CrossbarArray array(config(64));
  array.setState(5, 5, CellState::Lrs);
  QuiescentCells cells;
  cells.setBudgets(array, drivenLines(array, 1.0), 1e-9);
  const auto lin = [&](std::size_t r, std::size_t c, double v, jart::Conduction& out) {
    const auto& d = array.cell(r, c);
    return cells.linearise(r, c, d.model(), v, d.nDisc(), d.temperature(),
                           cells.budget(r, c), 0.0, out);
  };
  const auto& hrs = array.cell(0, 0);
  const jart::ZeroBias z = hrs.model().zeroBias(hrs.nDisc(), hrs.temperature());
  for (const double v : {1e-5, -1e-5, 0.0}) {
    jart::Conduction out;
    ASSERT_TRUE(lin(0, 0, v, out)) << v;
    EXPECT_EQ(out.current, z.conductance(v) * v);
    EXPECT_EQ(out.conductance, z.conductance(v));
    EXPECT_EQ(out.vDisc, out.current * z.rDisc);
    EXPECT_NEAR(out.current, hrs.current(v), cells.budget(0, 0));
    EXPECT_TRUE(out.converged);
  }
  jart::Conduction out;
  EXPECT_FALSE(lin(5, 5, 1e-4, out));
  EXPECT_FALSE(lin(5, 5, -1e-4, out));
  EXPECT_FALSE(lin(0, 0, 0.1, out));
}

TEST(QuiescentCells, NanStateOrVoltageIsNeverCertified) {
  CrossbarArray array(config(64));
  QuiescentCells cells;
  cells.setBudgets(array, drivenLines(array, 1.0), 1e-9);
  const auto& d = array.cell(1, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double budget = cells.budget(1, 1);
  jart::Conduction out;
  EXPECT_TRUE(cells.linearise(1, 1, d.model(), 1e-6, d.nDisc(), d.temperature(), budget, 0.0, out));
  EXPECT_FALSE(cells.linearise(1, 1, d.model(), nan, d.nDisc(), d.temperature(), budget, 0.0, out));
  EXPECT_FALSE(cells.linearise(1, 1, d.model(), 1e-6, nan, d.temperature(), budget, 0.0, out));
  EXPECT_FALSE(cells.linearise(1, 1, d.model(), 1e-6, d.nDisc(), nan, budget, 0.0, out));
  EXPECT_FALSE(cells.linearise(1, 1, d.model(), 0.0, nan, nan, budget, 0.0, out));
  // The poisoned entry is recomputed, not reused.
  EXPECT_TRUE(cells.linearise(1, 1, d.model(), 1e-6, d.nDisc(), d.temperature(), budget, 0.0, out));
}

TEST(QuiescentCells, FloatingLinesNeverBypass) {
  // With floating unselected lines only the selected cell has two drivers;
  // every other cell sits on a line without a budget and takes the full
  // solve. The same array read under V/2 linearises its idle cells.
  CrossbarArray array(config(32));
  for (const ReadScheme scheme : {ReadScheme::FloatingLines, ReadScheme::HalfBias}) {
    const double gDrv = 1.0 / array.config().driverResistance;
    LineDrivers drivers{util::Vector(64, 0.1),
                        util::Vector(64, scheme == ReadScheme::HalfBias ? gDrv : 0.0)};
    drivers.level[4] = 0.2;
    drivers.conductance[4] = gDrv;
    drivers.level[32 + 9] = 0.0;
    drivers.conductance[32 + 9] = gDrv;
    LineNetworkSolver solver;
    util::Vector voltages;
    const LineSolveResult solved =
        solver.solve(array, drivers, FastEngineOptions{}, voltages);
    ASSERT_TRUE(solved.converged());
    if (scheme == ReadScheme::FloatingLines) {
      EXPECT_EQ(solved.quiescentEvaluations, 0u);
    } else {
      EXPECT_GT(solved.quiescentEvaluations, 0u);
    }
  }
}

TEST(Sneak, NonFiniteReadThrowsSolverError) {
  // A read the Newton loop cannot finish is an error, never a silent
  // result: a NaN drive level poisons the first update.
  CrossbarArray array(config(3));
  array.fill(CellState::Lrs);
  try {
    analyzeSneak(array, 1, 1, std::numeric_limits<double>::quiet_NaN(),
                 ReadScheme::HalfBias);
    FAIL() << "expected SolverError";
  } catch (const util::SolverError& e) {
    EXPECT_EQ(e.solve(), "xbar.read");
    EXPECT_EQ(e.iterations(), 1u);
  }
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
