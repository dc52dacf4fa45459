/// Cross-module property tests: randomised and parameterised invariants
/// that the physics and numerics must satisfy regardless of operating
/// point. These complement the per-module suites with wide sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "core/attack.hpp"
#include "core/study.hpp"
#include "jart/model.hpp"
#include "util/rng.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/scheme.hpp"

namespace nh {
namespace {

// ---- conduction-solver invariants over random operating points ---------------

class ConductionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConductionProperty, SolveIsConsistentAndSmooth) {
  util::Rng rng(GetParam());
  const jart::Model model(jart::Params::paperDefaults());
  const auto& p = model.params();
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform();
    const double n = p.nDiscMin * std::pow(p.nDiscMax / p.nDiscMin, x);
    const double v = rng.uniform(-1.5, 1.5);
    const double t = rng.uniform(250.0, 600.0);
    const auto c = model.solveConduction(v, n, t);
    ASSERT_TRUE(c.converged) << "v=" << v << " n=" << n << " T=" << t;
    // Sign consistency.
    if (v > 0.01) EXPECT_GT(c.current, 0.0);
    if (v < -0.01) EXPECT_LT(c.current, 0.0);
    // Voltage division adds up.
    const double rOhmic = p.discResistance(n) + p.plugResistance() + p.rSeries;
    EXPECT_NEAR(c.vSchottky + c.current * rOhmic, v,
                1e-6 * std::max(1.0, std::fabs(v)));
    // Power is non-negative and bounded by |V*I|.
    EXPECT_GE(c.powerFilament, 0.0);
    EXPECT_LE(c.powerFilament, std::fabs(v * c.current) + 1e-18);
    // Local smoothness: a tiny voltage perturbation moves the current
    // continuously (no solver branch jumps).
    const double h = 1e-4;
    const auto cPlus = model.solveConduction(v + h, n, t);
    EXPECT_GE((cPlus.current - c.current) * (v >= 0 ? 1.0 : 1.0), 0.0)
        << "monotonicity at v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConductionProperty,
                         ::testing::Values(1u, 2u, 3u));

// ---- kinetics invariants ----------------------------------------------------------

class KineticsProperty : public ::testing::TestWithParam<double> {};

TEST_P(KineticsProperty, RateMonotoneInFieldAndTemperature) {
  const jart::Model model(jart::Params::paperDefaults());
  const double n = GetParam();
  double prevRate = 0.0;
  for (double v = 0.05; v <= 0.8; v += 0.05) {
    const double rate = model.ionicRate(v, n, 350.0);
    EXPECT_GT(rate, prevRate) << "v=" << v;
    prevRate = rate;
  }
  prevRate = 0.0;
  for (double t = 280.0; t <= 500.0; t += 20.0) {
    const double rate = model.ionicRate(0.3, n, t);
    EXPECT_GT(rate, prevRate) << "T=" << t;
    prevRate = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(States, KineticsProperty,
                         ::testing::Values(1e24, 1e25, 1e26));

// ---- biasing-scheme invariants over random selections --------------------------

TEST(SchemeProperty, EveryCellLevelIsInTheSchemeSet) {
  util::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t rows = 2 + rng.uniformInt(6);
    const std::size_t cols = 2 + rng.uniformInt(6);
    const std::size_t sr = rng.uniformInt(rows);
    const std::size_t sc = rng.uniformInt(cols);
    const double v = rng.bernoulli(0.5) ? 1.05 : -1.3;

    const auto half = xbar::cellVoltageMap(
        xbar::selectBias(xbar::BiasScheme::Half, rows, cols, sr, sc, v));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const double level = half(r, c);
        if (r == sr && c == sc) {
          EXPECT_NEAR(level, v, 1e-12);
        } else if (r == sr || c == sc) {
          EXPECT_NEAR(std::fabs(level), std::fabs(v) / 2.0, 1e-12);
        } else {
          EXPECT_NEAR(level, 0.0, 1e-12);
        }
      }
    }
    // V/3: no unselected cell may exceed |V|/3 (the scheme's guarantee).
    const auto third = xbar::cellVoltageMap(
        xbar::selectBias(xbar::BiasScheme::Third, rows, cols, sr, sc, v));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (r == sr && c == sc) continue;
        EXPECT_LE(std::fabs(third(r, c)), std::fabs(v) / 3.0 + 1e-12);
      }
    }
  }
}

// ---- crosstalk-hub invariants ----------------------------------------------------

TEST(HubProperty, LinearityAndPositivity) {
  util::Rng rng(99);
  xbar::CrosstalkHub hub(5, 5, xbar::AlphaTable::analytic(50e-9));
  for (int trial = 0; trial < 50; ++trial) {
    util::Matrix a(5, 5, 0.0), b(5, 5, 0.0), sum(5, 5, 0.0);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) {
        a(r, c) = rng.uniform(0.0, 300.0);
        b(r, c) = rng.uniform(0.0, 300.0);
        sum(r, c) = a(r, c) + b(r, c);
      }
    }
    const auto ta = hub.inputTemperatures(a);
    const auto tb = hub.inputTemperatures(b);
    const auto tSum = hub.inputTemperatures(sum);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) {
        EXPECT_NEAR(tSum(r, c), ta(r, c) + tb(r, c), 1e-9);  // linearity
        EXPECT_GE(ta(r, c), 0.0);                            // positivity
      }
    }
  }
}

TEST(HubProperty, ScalingHomogeneity) {
  xbar::CrosstalkHub hub(5, 5, xbar::AlphaTable::analytic(30e-9));
  util::Matrix excess(5, 5, 0.0);
  excess(2, 2) = 100.0;
  const auto t1 = hub.inputTemperatures(excess);
  excess(2, 2) = 250.0;
  const auto t2 = hub.inputTemperatures(excess);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(t2(r, c), 2.5 * t1(r, c), 1e-9);
    }
  }
}

// ---- alpha-table invariants across the full spacing range -------------------------

class AlphaTableProperty : public ::testing::TestWithParam<double> {};

TEST_P(AlphaTableProperty, StructureHoldsAtEverySpacing) {
  const xbar::AlphaTable t = xbar::AlphaTable::analytic(GetParam() * 1e-9);
  // Decay with distance along every ray.
  EXPECT_GT(t.at(0, 1), t.at(0, 2));
  EXPECT_GT(t.at(1, 0), t.at(2, 0));
  EXPECT_GT(t.at(1, 1), t.at(2, 2));
  // Word-line dominance.
  EXPECT_GT(t.at(0, 1), t.at(1, 0));
  // All couplings within (0, 1); R_th positive.
  for (long long dr = -2; dr <= 2; ++dr) {
    for (long long dc = -2; dc <= 2; ++dc) {
      if (dr == 0 && dc == 0) continue;
      EXPECT_GT(t.at(dr, dc), 0.0);
      EXPECT_LT(t.at(dr, dc), 1.0);
    }
  }
  EXPECT_GT(t.rTh(), 1e5);
}

INSTANTIATE_TEST_SUITE_P(Spacings, AlphaTableProperty,
                         ::testing::Values(10.0, 20.0, 35.0, 50.0, 65.0, 80.0,
                                           90.0));

// ---- mirror invariance of a FEM-alpha study ---------------------------------------

TEST(FemAlphaProperty, MirrorImagesOfTheVictimFlipAlike) {
  // The quadrant extraction makes the FEM alpha table exactly mirror-equal
  // and the V/2 line network is mirror symmetric, so a single-aggressor
  // attack on a victim and on its three mirror images about the array
  // centre, each with its aggressor mirrored too, must flip after the same
  // number of pulses.
  core::StudyConfig config;
  config.rows = 5;
  config.cols = 5;
  config.useFemAlphas = true;
  const core::AttackStudy study(config);
  const xbar::AlphaTable& alphas = study.alphas();
  for (long long dr = -2; dr <= 2; ++dr) {
    for (long long dc = -2; dc <= 2; ++dc) {
      if (dr == 0 && dc == 0) continue;
      EXPECT_EQ(alphas.at(dr, dc), alphas.at(-dr, dc)) << dr << "," << dc;
      EXPECT_EQ(alphas.at(dr, dc), alphas.at(dr, -dc)) << dr << "," << dc;
    }
  }

  const auto pulsesAtMirrorImages = [&](xbar::CellCoord victim,
                                        xbar::CellCoord aggressor) {
    std::vector<std::size_t> pulses;
    for (unsigned mirror = 0; mirror < 4; ++mirror) {
      const auto image = [&](xbar::CellCoord c) {
        if ((mirror & 1U) != 0) c.row = config.rows - 1 - c.row;
        if ((mirror & 2U) != 0) c.col = config.cols - 1 - c.col;
        return c;
      };
      core::AttackConfig attack;
      attack.aggressors = {image(aggressor)};
      attack.victims = {image(victim)};
      attack.maxPulses = 500'000;
      const core::AttackResult result = study.attack(attack);
      EXPECT_TRUE(result.flipped) << "mirror " << mirror;
      pulses.push_back(result.pulsesToFlip);
    }
    return pulses;
  };
  // An off-centre victim with its word-line neighbour toward the edge, and
  // the centre victim with the single-aggressor pattern's neighbour.
  for (const auto& [victim, aggressor] :
       {std::pair<xbar::CellCoord, xbar::CellCoord>{{1, 1}, {1, 0}},
        std::pair<xbar::CellCoord, xbar::CellCoord>{{2, 2}, {2, 1}}}) {
    const std::vector<std::size_t> pulses = pulsesAtMirrorImages(victim, aggressor);
    for (const std::size_t p : pulses) {
      EXPECT_EQ(p, pulses.front()) << "victim " << victim.row << "," << victim.col;
    }
  }
}

}  // namespace
}  // namespace nh
