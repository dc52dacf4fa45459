#include "jart/device.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nh::jart {
namespace {

Params params() { return Params::paperDefaults(); }

TEST(JartDevice, StartsInDeepHrsAtAmbient) {
  const JartDevice d(params(), 300.0);
  EXPECT_DOUBLE_EQ(d.nDisc(), params().nDiscMin);
  EXPECT_DOUBLE_EQ(d.temperature(), 300.0);
  EXPECT_DOUBLE_EQ(d.normalisedState(), 0.0);
  EXPECT_DOUBLE_EQ(d.selfExcessTemperature(), 0.0);
}

TEST(JartDevice, RejectsNonPositiveAmbient) {
  EXPECT_THROW(JartDevice(params(), 0.0), std::invalid_argument);
  JartDevice d(params(), 300.0);
  EXPECT_THROW(d.setAmbient(-10.0), std::invalid_argument);
}

TEST(JartDevice, SetNDiscClampsToWindow) {
  JartDevice d(params(), 300.0);
  d.setNDisc(1e30);
  EXPECT_DOUBLE_EQ(d.nDisc(), params().nDiscMax);
  d.setNDisc(1.0);
  EXPECT_DOUBLE_EQ(d.nDisc(), params().nDiscMin);
  d.setLrs();
  EXPECT_DOUBLE_EQ(d.normalisedState(), 1.0);
  d.setHrs();
  EXPECT_DOUBLE_EQ(d.normalisedState(), 0.0);
}

TEST(JartDevice, SelfHeatingReachesSteadyStateWithinPulse) {
  JartDevice d(params(), 300.0);
  d.setLrs();
  d.advance(1.05, 50e-9);  // >> tauThermal
  // Steady self-heating: RthEff * P. For the calibrated LRS this is a few
  // hundred kelvin of excess.
  EXPECT_GT(d.selfExcessTemperature(), 100.0);
  const double steady = d.selfExcessTemperature();
  d.advance(1.05, 10e-9);
  EXPECT_NEAR(d.selfExcessTemperature(), steady, 2.0);
}

TEST(JartDevice, CoolsBackToAmbientWhenIdle) {
  JartDevice d(params(), 300.0);
  d.setLrs();
  d.advance(1.05, 50e-9);
  ASSERT_GT(d.temperature(), 400.0);
  d.advance(0.0, 50e-9);  // 25 thermal time constants
  EXPECT_NEAR(d.temperature(), 300.0, 0.5);
}

TEST(JartDevice, CrosstalkAddsToTemperature) {
  JartDevice d(params(), 300.0);
  d.setCrosstalk(75.0);
  EXPECT_DOUBLE_EQ(d.temperature(), 375.0);
  EXPECT_DOUBLE_EQ(d.excessTemperature(), 75.0);
  EXPECT_DOUBLE_EQ(d.selfExcessTemperature(), 0.0);
  d.setCrosstalk(0.0);
  EXPECT_DOUBLE_EQ(d.temperature(), 300.0);
}

TEST(JartDevice, RelaxDropsOnlySelfHeat) {
  JartDevice d(params(), 300.0);
  d.setLrs();
  d.setCrosstalk(40.0);
  d.advance(1.05, 30e-9);
  ASSERT_GT(d.selfExcessTemperature(), 50.0);
  d.relaxTemperature();
  EXPECT_DOUBLE_EQ(d.selfExcessTemperature(), 0.0);
  EXPECT_DOUBLE_EQ(d.temperature(), 340.0);  // crosstalk input remains
}

TEST(JartDevice, AmbientShiftKeepsExcess) {
  JartDevice d(params(), 300.0);
  d.setLrs();
  d.advance(1.05, 30e-9);
  const double excess = d.selfExcessTemperature();
  d.setAmbient(350.0);
  EXPECT_DOUBLE_EQ(d.ambient(), 350.0);
  EXPECT_NEAR(d.temperature(), 350.0 + excess, 1e-9);
}

TEST(JartDevice, SetStressMovesStateTowardLrs) {
  JartDevice d(params(), 300.0);
  d.setCrosstalk(80.0);  // hot victim
  const double before = d.normalisedState();
  d.advance(0.525, 1e-6);
  EXPECT_GT(d.normalisedState(), before);
}

TEST(JartDevice, ResetStressMovesStateTowardHrs) {
  JartDevice d(params(), 300.0);
  d.setLrs();
  d.advance(-1.3, 1e-5);
  EXPECT_LT(d.normalisedState(), 0.2);
}

TEST(JartDevice, IdleBiasDoesNotMoveState) {
  JartDevice d(params(), 300.0);
  d.setNDisc(1e25);
  const double before = d.nDisc();
  d.advance(0.0, 1e-3);
  EXPECT_DOUBLE_EQ(d.nDisc(), before);
}

TEST(JartDevice, AdvanceIsStepSizeInsensitive) {
  // One 100 ns advance must agree with 100 x 1 ns advances within the
  // explicit integrator's documented tolerance (the substep controller
  // bounds the state move per step to 1% of the window).
  JartDevice coarse(params(), 300.0);
  JartDevice fine(params(), 300.0);
  coarse.setCrosstalk(80.0);
  fine.setCrosstalk(80.0);
  coarse.advance(0.525, 100e-9);
  for (int i = 0; i < 100; ++i) fine.advance(0.525, 1e-9);
  EXPECT_NEAR(coarse.normalisedState(), fine.normalisedState(),
              0.08 * std::max(1e-3, fine.normalisedState()));
  EXPECT_NEAR(coarse.temperature(), fine.temperature(), 1.0);
}

TEST(JartDevice, ReadResistanceTracksState) {
  JartDevice d(params(), 300.0);
  d.setHrs();
  const double rHrs = d.readResistance();
  d.setLrs();
  const double rLrs = d.readResistance();
  EXPECT_GT(rHrs, 50.0 * rLrs);
}

TEST(JartDevice, CurrentUsesFrozenState) {
  JartDevice d(params(), 300.0);
  d.setHrs();
  const double i1 = d.current(0.5);
  const double i2 = d.current(0.5);
  EXPECT_DOUBLE_EQ(i1, i2);  // no state advance through current()
  EXPECT_DOUBLE_EQ(d.normalisedState(), 0.0);
}

TEST(JartDevice, ConductancePositive) {
  JartDevice d(params(), 300.0);
  for (const double v : {-1.0, -0.5, 0.2, 0.525, 1.05}) {
    EXPECT_GT(d.conductance(v), 0.0) << "v=" << v;
  }
}

TEST(JartDevice, AdvanceReportsNonConvergedSolves) {
  JartDevice d(params(), 300.0);
  d.advance(0.525, 50e-9);
  EXPECT_EQ(d.lastAdvanceNonConverged(), 0u);
  EXPECT_GT(d.lastCurrent(), 0.0);
  d.advance(std::nan(""), 10e-9);
  EXPECT_GT(d.lastAdvanceNonConverged(), 0u);
  d.setHrs();
  d.relaxTemperature();
  d.advance(0.525, 10e-9);
  EXPECT_EQ(d.lastAdvanceNonConverged(), 0u);  // per call, not cumulative
}

TEST(JartDevice, ZeroBiasConductanceIsForwardSlope) {
  // At V = 0 the conduction solve returns the forward branch's analytic
  // zero-bias slope, positive and finite, in one solve with the current.
  const JartDevice d(params(), 300.0);
  const auto e = d.evaluate(0.0);
  EXPECT_DOUBLE_EQ(e.current, 0.0);
  EXPECT_GT(e.conductance, 0.0);
  EXPECT_TRUE(std::isfinite(e.conductance));
  EXPECT_TRUE(e.converged);
}

}  // namespace
}  // namespace nh::jart
