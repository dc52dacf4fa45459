/// End-to-end pipeline tests: FEM extraction -> crosstalk table -> circuit
/// engine -> attack, plus cross-checks between the analytic alpha tables and
/// fresh FEM extractions, the normal-operation safety property the
/// security claim rests on, and the Fig. 3 series shapes.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "core/study.hpp"
#include "xbar/controller.hpp"

namespace nh::core {
namespace {

TEST(Pipeline, FemAlphasDriveTheAttack) {
  // Full paper flow on a coarse 3x3 geometry: extract alphas with the FEM,
  // hand R_th to the compact model, run the attack.
  StudyConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.spacing = 10e-9;
  cfg.useFemAlphas = true;
  AttackStudy study(cfg);

  // The FEM extraction produced a usable table.
  EXPECT_GT(study.alphas().at(0, 1), 0.05);
  EXPECT_LT(study.alphas().at(0, 1), 0.9);
  EXPECT_GT(study.rThEff(), 1e5);

  const AttackResult r = study.attackCenter(HammerPulse{}, 500000);
  ASSERT_TRUE(r.flipped);
  EXPECT_EQ(r.flippedCell.row, 1u);  // word-line neighbour of (1,1)
}

TEST(Pipeline, AnalyticTableTracksFemExtraction) {
  // The shipped analytic table was calibrated against the 5x5 extraction;
  // a fresh 5x5 run must stay within a few percent.
  StudyConfig cfg;
  cfg.spacing = 50e-9;
  cfg.useFemAlphas = true;
  AttackStudy fem(cfg);
  const xbar::AlphaTable analytic = xbar::AlphaTable::analytic(50e-9);
  EXPECT_NEAR(fem.alphas().at(0, 1), analytic.at(0, 1), 0.05 * analytic.at(0, 1));
  EXPECT_NEAR(fem.alphas().at(1, 0), analytic.at(1, 0), 0.05 * analytic.at(1, 0));
  EXPECT_NEAR(fem.rThEff(), analytic.rTh(), 0.05 * analytic.rTh());
}

TEST(Pipeline, NormalOperationIsSafeAttackIsNot) {
  // The security property: writing ordinary data (including rewriting the
  // aggressor cell a modest number of times) leaves neighbours intact;
  // hammering flips one.
  StudyConfig cfg;
  cfg.spacing = 10e-9;
  AttackStudy study(cfg);
  auto bench = study.makeBench();
  xbar::MemoryController controller(*bench.engine);

  // Regular use: write a pattern, rewrite some cells, read everything.
  controller.writeBit(2, 2, true);
  controller.writeBit(2, 0, true);
  for (int i = 0; i < 10; ++i) {
    controller.writeBit(2, 2, i % 2 == 0);
  }
  controller.writeBit(2, 2, true);
  EXPECT_EQ(controller.readBit(2, 1).state, xbar::CellState::Hrs);
  EXPECT_EQ(controller.readBit(2, 3).state, xbar::CellState::Hrs);

  // Now hammer: the neighbour flips within the budget.
  BitFlipDetector detector;
  bool flipped = false;
  controller.hammer(2, 2, 100000, 50e-9, 0.0, [&](std::size_t) {
    flipped = detector.classify(bench.array->cell(2, 1)) == ReadState::Lrs ||
              detector.classify(bench.array->cell(2, 3)) == ReadState::Lrs;
    return flipped;
  });
  EXPECT_TRUE(flipped);
}

TEST(Pipeline, VictimFollowsFourPhaseMechanics) {
  // Fig. 1 storyline: aggressor hot during hammering, victim temperature
  // elevated via crosstalk, victim state ratchets up, flip occurs.
  StudyConfig cfg;
  cfg.spacing = 10e-9;
  AttackStudy study(cfg);
  AttackConfig attack;
  attack.aggressors = {{2, 2}};
  attack.victims = {{2, 1}};
  attack.maxPulses = 100000;
  attack.traceSamples = 2000;
  const AttackResult r = study.attack(attack);
  ASSERT_TRUE(r.flipped);
  ASSERT_GT(r.tracePulse.size(), 5u);

  // Phase 2: aggressor filament runs hundreds of kelvin above ambient
  // somewhere in the trace (trace samples after the gap read ~ambient, but
  // the in-pulse callback samples catch hot instants).
  double maxAggressor = 0.0;
  double maxVictim = 0.0;
  for (std::size_t i = 0; i < r.tracePulse.size(); ++i) {
    maxAggressor = std::max(maxAggressor, r.traceAggressorTemperature[i]);
    maxVictim = std::max(maxVictim, r.traceVictimTemperature[i]);
  }
  EXPECT_GT(maxAggressor, 450.0);
  EXPECT_GT(maxVictim, 350.0);
  // Phase 4: state ends beyond the detection level.
  EXPECT_GT(r.traceVictimState.back(), 0.4);
}

TEST(Pipeline, StudyRejectsTinyArrays) {
  StudyConfig cfg;
  cfg.rows = 2;
  EXPECT_THROW(AttackStudy{cfg}, std::invalid_argument);
}

std::size_t columnIndex(const ExperimentResult& result,
                        const std::string& name) {
  for (std::size_t i = 0; i < result.columns.size(); ++i) {
    if (result.columns[i].name == name) return i;
  }
  throw std::out_of_range("no column " + name);
}

/// Run a registered Fig. 3 experiment on the fast 10 nm regime with the
/// given axis values; every point must flip within \p maxPulses.
ExperimentResult runAt10nm(
    const std::string& name,
    std::map<std::string, std::vector<double>> axisOverrides,
    std::size_t maxPulses) {
  ExperimentSpec spec = makeExperiment(name);
  spec.base.spacing = 10e-9;
  RunOptions options;
  options.axisOverrides = std::move(axisOverrides);
  options.maxPulsesOverride = maxPulses;
  ExperimentResult result = runExperiment(spec, options);
  const std::size_t flipped = columnIndex(result, "flipped");
  for (const auto& row : result.rows) {
    EXPECT_DOUBLE_EQ(row[flipped].number, 1.0) << name;
  }
  return result;
}

/// Pulses-to-flip of every row, in grid order.
std::vector<double> pulses(const ExperimentResult& result) {
  const std::size_t column = columnIndex(result, "pulses");
  std::vector<double> out;
  for (const auto& row : result.rows) out.push_back(row[column].number);
  return out;
}

/// The Fig. 3 shapes as metamorphic checks over the registry: pulses-to-flip
/// falls with pulse width and ambient temperature and rises with spacing,
/// and the 8-aggressor Ring beats a single aggressor.
TEST(Pipeline, Fig3SeriesAreOrdered) {
  const auto byLength = pulses(
      runAt10nm("fig3a_pulse_length", {{"width", {30e-9, 90e-9}}}, 300'000));
  ASSERT_EQ(byLength.size(), 2u);
  EXPECT_GT(byLength[0], byLength[1]);

  const auto bySpacing =
      pulses(runAt10nm("fig3b_electrode_spacing",
                       {{"spacing", {10e-9, 30e-9}}, {"width", {50e-9}}},
                       2'000'000));
  ASSERT_EQ(bySpacing.size(), 2u);
  EXPECT_LT(bySpacing[0], bySpacing[1]);

  const auto byAmbient =
      pulses(runAt10nm("fig3c_ambient_temperature",
                       {{"ambient", {300.0, 348.0}}, {"width", {50e-9}}},
                       2'000'000));
  ASSERT_EQ(byAmbient.size(), 2u);
  EXPECT_GT(byAmbient[0], byAmbient[1]);

  const ExperimentResult byPattern =
      runAt10nm("fig3d_attack_patterns", {}, 500'000);
  ASSERT_EQ(byPattern.rows.size(), allPatterns().size());
  const auto patternPulses = pulses(byPattern);
  double ringPulses = 0.0;
  double singlePulses = 0.0;
  for (std::size_t i = 0; i < byPattern.rows.size(); ++i) {
    const std::string& pattern = byPattern.rows[i][0].text;
    if (pattern == patternName(AttackPattern::Ring)) {
      ringPulses = patternPulses[i];
    }
    if (pattern == patternName(AttackPattern::SingleAggressor)) {
      singlePulses = patternPulses[i];
    }
  }
  ASSERT_GT(ringPulses, 0.0);
  EXPECT_LT(ringPulses, singlePulses);
}

}  // namespace
}  // namespace nh::core
