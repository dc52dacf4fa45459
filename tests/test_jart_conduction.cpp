#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "jart/device.hpp"
#include "jart/model.hpp"
#include "jart_conduction_oracle.hpp"
#include "util/units.hpp"

namespace nh::jart {
namespace {

Model defaultModel() { return Model(Params::paperDefaults()); }

TEST(Params, DerivedQuantities) {
  const Params p = Params::paperDefaults();
  EXPECT_NEAR(p.filamentArea(), 7.0686e-16, 1e-19);
  EXPECT_GT(p.conductivity(p.nDiscMax), 1000.0 * p.conductivity(p.nDiscMin));
  EXPECT_GT(p.discResistance(p.nDiscMin), 1e6);
  EXPECT_LT(p.discResistance(p.nDiscMax), 5e3);
  EXPECT_GT(p.fieldCoefficient(), 1e3);  // K/V
  EXPECT_NEAR(p.normalisedState(p.nDiscMin), 0.0, 1e-12);
  EXPECT_NEAR(p.normalisedState(p.nDiscMax), 1.0, 1e-12);
  EXPECT_NEAR(p.normalisedState(std::sqrt(p.nDiscMin * p.nDiscMax)), 0.5, 1e-12);
}

TEST(Params, ValidationCatchesBadValues) {
  Params p = Params::paperDefaults();
  p.lDisc = 2e-9;  // breaks lDisc + lPlug == lCell
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.nDiscMin = p.nDiscMax;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.rThEff = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.activationEnergySet = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, VariabilityStaysValidAndDeterministic) {
  const Params base = Params::paperDefaults();
  nh::util::Rng rngA(7), rngB(7);
  const Params a = base.withVariability(rngA, 0.05);
  const Params b = base.withVariability(rngB, 0.05);
  EXPECT_DOUBLE_EQ(a.rFilament, b.rFilament);
  EXPECT_NE(a.rFilament, base.rFilament);
  EXPECT_NO_THROW(a.validate());
  EXPECT_THROW(base.withVariability(rngA, -0.1), std::invalid_argument);
  EXPECT_THROW(base.withVariability(rngA, std::nan("")), std::invalid_argument);
  EXPECT_THROW(base.withVariability(rngA, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Conduction, ZeroVoltageZeroCurrent) {
  const Model m = defaultModel();
  const auto c = m.solveConduction(0.0, 1e25, 300.0);
  EXPECT_DOUBLE_EQ(c.current, 0.0);
  EXPECT_DOUBLE_EQ(c.powerFilament, 0.0);
}

TEST(Conduction, MonotoneInVoltage) {
  const Model m = defaultModel();
  const Params& p = m.params();
  for (const double n : {p.nDiscMin, 1e25, p.nDiscMax}) {
    double prev = 0.0;
    for (double v = 0.05; v <= 1.5; v += 0.05) {
      const auto c = m.solveConduction(v, n, 300.0);
      EXPECT_TRUE(c.converged);
      EXPECT_GT(c.current, prev) << "n=" << n << " v=" << v;
      prev = c.current;
    }
  }
}

TEST(Conduction, MonotoneInState) {
  const Model m = defaultModel();
  double prev = 0.0;
  for (double n = m.params().nDiscMin; n <= m.params().nDiscMax; n *= 3.0) {
    const auto c = m.solveConduction(0.525, n, 300.0);
    EXPECT_GT(c.current, prev);
    prev = c.current;
  }
}

TEST(Conduction, LrsHrsWindowAtReadVoltage) {
  const Model m = defaultModel();
  const Params& p = m.params();
  const double rHrs = m.resistance(0.2, p.nDiscMin, 300.0);
  const double rLrs = m.resistance(0.2, p.nDiscMax, 300.0);
  EXPECT_GT(rHrs, 5e6);    // deep HRS reads in the MOhm range
  EXPECT_LT(rLrs, 1e5);    // deep LRS reads in the 10-kOhm range
  EXPECT_GT(rHrs / rLrs, 50.0);
}

TEST(Conduction, PolarityAsymmetry) {
  // Same |V|: the device is a bipolar (asymmetric) stack.
  const Model m = defaultModel();
  const auto fwd = m.solveConduction(0.6, 1e26, 300.0);
  const auto rev = m.solveConduction(-0.6, 1e26, 300.0);
  EXPECT_GT(fwd.current, 0.0);
  EXPECT_LT(rev.current, 0.0);
  EXPECT_NE(std::fabs(fwd.current / rev.current), 1.0);
}

TEST(Conduction, VoltageDivisionSumsToApplied) {
  const Model m = defaultModel();
  const Params& p = m.params();
  for (const double n : {p.nDiscMin, 4e25, p.nDiscMax}) {
    for (const double v : {0.2, 0.525, 1.05}) {
      const auto c = m.solveConduction(v, n, 300.0);
      const double vOhmic =
          c.current * (p.discResistance(n) + p.plugResistance() + p.rSeries);
      EXPECT_NEAR(c.vSchottky + vOhmic, v, 1e-6 * v);
      EXPECT_GT(c.vDisc, 0.0);
      EXPECT_LT(c.vDisc, v);
    }
  }
}

TEST(Conduction, HigherTemperatureMoreCurrent) {
  // Thermionic emission grows steeply with T.
  const Model m = defaultModel();
  const auto cold = m.solveConduction(0.525, 1e25, 300.0);
  const auto hot = m.solveConduction(0.525, 1e25, 400.0);
  EXPECT_GT(hot.current, cold.current);
}

TEST(Conduction, HrsDropsMostVoltageOnDisc) {
  const Model m = defaultModel();
  const Params& p = m.params();
  const auto hrs = m.solveConduction(1.05, p.nDiscMin, 300.0);
  const auto lrs = m.solveConduction(1.05, p.nDiscMax, 300.0);
  EXPECT_GT(hrs.vDisc, 0.4);  // disc dominates in HRS
  EXPECT_LT(lrs.vDisc, 0.3);  // interface/series dominate in LRS
}

TEST(Thermal, SteadyTemperatureEquation) {
  const Model m = defaultModel();
  const double rth = m.params().rThEff;
  EXPECT_DOUBLE_EQ(m.steadyTemperature(0.0, 300.0, 0.0), 300.0);
  EXPECT_DOUBLE_EQ(m.steadyTemperature(1e-4, 300.0, 50.0), 350.0 + rth * 1e-4);
}

TEST(Window, SoftClampBehaviour) {
  const Model m = defaultModel();
  const Params& p = m.params();
  EXPECT_NEAR(m.windowSet(p.nDiscMax), 0.0, 1e-12);
  EXPECT_GT(m.windowSet(p.nDiscMin), 0.99);
  EXPECT_NEAR(m.windowReset(p.nDiscMin), 0.0, 1e-12);
  EXPECT_GT(m.windowReset(p.nDiscMax), 0.99);
}

TEST(Kinetics, RateSignsFollowPolarity) {
  const Model m = defaultModel();
  EXPECT_GT(m.ionicRate(0.3, 1e25, 400.0), 0.0);   // SET direction
  EXPECT_LT(m.ionicRate(-0.3, 1e25, 400.0), 0.0);  // RESET direction
  EXPECT_DOUBLE_EQ(m.ionicRate(0.0, 1e25, 400.0), 0.0);
}

TEST(Kinetics, ArrheniusAcceleration) {
  const Model m = defaultModel();
  const double cold = m.ionicRate(0.25, 1e25, 300.0);
  const double hot = m.ionicRate(0.25, 1e25, 375.0);
  // ~3 decades per 75 K is the calibrated regime of the attack.
  EXPECT_GT(hot / cold, 1e2);
  EXPECT_LT(hot / cold, 1e5);
}

TEST(Kinetics, FieldNonlinearity) {
  const Model m = defaultModel();
  const double low = m.ionicRate(0.15, 1e25, 350.0);
  const double high = m.ionicRate(0.30, 1e25, 350.0);
  // Doubling the disc voltage must accelerate switching far more than 2x
  // (ultra-nonlinear kinetics, Menzel et al.).
  EXPECT_GT(high / low, 50.0);
}

// ---- fused solve vs the finite-difference oracle ---------------------------

double relativeError(double got, double want) {
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

TEST(ConductionOracle, SampledOperatingPointsMatchReference) {
  // Seeded operating points across the attack envelope: V in [-1.5, 1.5] V,
  // N_disc log-uniform in the window, T in [250, 600] K, and device-to-device
  // variability up to sigma = 0.1. One RNG stream per sample.
  const Params base = Params::paperDefaults();
  constexpr std::uint64_t kSeed = 0x6e6853ull;
  constexpr std::uint64_t kSamples = 400;
  for (std::uint64_t k = 0; k < kSamples; ++k) {
    nh::util::Rng rng = nh::util::Rng::forStream(kSeed, k);
    const double sigma = rng.uniform(0.0, 0.1);
    const Params p = base.withVariability(rng, sigma);
    const double v = rng.uniform(-1.5, 1.5);
    const double n = std::clamp(
        p.nDiscMin * std::pow(p.nDiscMax / p.nDiscMin, rng.uniform()), p.nDiscMin,
        p.nDiscMax);
    const double t = rng.uniform(250.0, 600.0);
    SCOPED_TRACE(::testing::Message() << "sample " << k << ": v=" << v
                                      << " n=" << n << " T=" << t);
    const Model m(p);
    const Conduction got = m.solveConduction(v, n, t);
    const Conduction ref = oracle::solveConduction(p, v, n, t);
    EXPECT_TRUE(got.converged);
    EXPECT_TRUE(ref.converged);
    EXPECT_LT(relativeError(got.current, ref.current), 1e-9);
    EXPECT_LT(relativeError(got.vDisc, ref.vDisc), 1e-9);
    EXPECT_LT(relativeError(got.powerFilament, ref.powerFilament), 1e-9);

    // Conductance against a central difference of the oracle's current, on
    // one branch (|V| > h) and away from the Schottky exponent clamp.
    const double h = 1e-5;
    const double vt = (v > 0.0 ? p.idealityFwd : p.idealityRev) *
                      nh::util::kBoltzmannEv * t;
    if (std::fabs(v) > 2.0 * h && std::fabs(got.vSchottky) / vt < 55.0) {
      const double fd = (oracle::solveConduction(p, v + h, n, t).current -
                         oracle::solveConduction(p, v - h, n, t).current) /
                        (2.0 * h);
      EXPECT_GT(got.conductance, 0.0);
      EXPECT_LT(relativeError(got.conductance, fd), 1e-4);
    }

    // The zero-bias slope is the forward branch's: compare with the oracle's
    // one-sided difference from V = 0.
    const double g0 = m.solveConduction(0.0, n, t).conductance;
    const double h0 = 1e-7;
    EXPECT_LT(relativeError(g0, oracle::solveConduction(p, h0, n, t).current / h0),
              1e-4);

    // The device API reports the same solve, bit for bit.
    const JartDevice d(p, t, n);
    const nh::spice::CurrentAndConductance e = d.evaluate(v);
    EXPECT_EQ(e.current, d.current(v));
    EXPECT_EQ(e.conductance, d.conductance(v));
    EXPECT_EQ(e.current, got.current);
    EXPECT_EQ(e.conductance, got.conductance);
    EXPECT_TRUE(e.converged);
  }
}

TEST(ConductionOracle, SchottkyCurrentMatchesReference) {
  // The public interface evaluation is the same expression as the oracle's,
  // term by term: bit-identical on both branches and at the clamp.
  const Model m = defaultModel();
  const Params& p = m.params();
  for (const double n : {p.nDiscMin, 3e25, p.nDiscMax}) {
    for (const double vs : {-8.0, -0.7, -1e-9, 0.0, 1e-9, 0.3, 0.9, 4.0}) {
      EXPECT_EQ(m.schottkyCurrent(vs, n, 310.0),
                oracle::schottkyCurrent(p, vs, n, 310.0))
          << "vs=" << vs << " n=" << n;
    }
  }
}

TEST(Conduction, NonFiniteVoltageReportsNonConvergence) {
  // A NaN or infinite bias poisons the bracket itself, so neither the
  // residual nor the step test can pass. A NaN state or temperature keeps
  // the bracket finite, so the bisection settles on an endpoint; the
  // non-finite result must still report non-convergence.
  const Model m = defaultModel();
  EXPECT_FALSE(m.solveConduction(std::nan(""), 1e25, 300.0).converged);
  EXPECT_FALSE(m.solveConduction(HUGE_VAL, 1e25, 300.0).converged);
  EXPECT_FALSE(m.solveConduction(0.5, std::nan(""), 300.0).converged);
  EXPECT_FALSE(m.solveConduction(0.5, 1e26, std::nan("")).converged);
  // At 0 V there is no iteration: the NaN temperature must reach the
  // zero-bias slope, not be clamped to a finite conductance of 0.
  EXPECT_FALSE(m.solveConduction(0.0, m.params().nDiscMin, std::nan("")).converged);
  EXPECT_FALSE(oracle::solveConduction(m.params(), std::nan(""), 1e25, 300.0).converged);
}

TEST(Resistance, RejectsZeroReadVoltage) {
  const Model m = defaultModel();
  EXPECT_THROW(m.resistance(0.0, 1e25, 300.0), std::invalid_argument);
}

}  // namespace
}  // namespace nh::jart
