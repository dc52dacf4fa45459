#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"

namespace nh::spice {
namespace {

TEST(Transient, RcChargingMatchesAnalytic) {
  // 1 V step into R = 1k, C = 1 nF: tau = 1 us.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  PulseSpec step;
  step.base = 0.0;
  step.amplitude = 1.0;
  step.delay = 0.0;
  step.rise = 1e-9;
  step.fall = 1e-9;
  step.width = 1.0;  // effectively a step
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(step));
  ckt.emplace<Resistor>("R1", in, out, 1000.0);
  ckt.emplace<Capacitor>("C1", out, ckt.ground(), 1e-9);

  TransientOptions opt;
  opt.tStop = 3e-6;
  opt.dtMax = 10e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "out")});
  ASSERT_TRUE(result.completed) << result.failureReason;

  const auto& vout = result.seriesFor("v(out)");
  for (std::size_t k = 0; k < result.time.size(); k += 25) {
    const double t = result.time[k];
    if (t < 5e-9) continue;
    const double expected = 1.0 - std::exp(-t / 1e-6);
    EXPECT_NEAR(vout[k], expected, 0.02) << "at t=" << t;
  }
  // After 3 tau the capacitor is ~95% charged.
  EXPECT_GT(vout.back(), 0.94);
}

TEST(Transient, PulseEdgesAreResolved) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  PulseSpec pulse;
  pulse.base = 0.0;
  pulse.amplitude = 1.0;
  pulse.delay = 100e-9;
  pulse.rise = 1e-9;
  pulse.fall = 1e-9;
  pulse.width = 50e-9;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(pulse));
  ckt.emplace<Resistor>("R1", in, ckt.ground(), 1000.0);

  TransientOptions opt;
  opt.tStop = 300e-9;
  opt.dtMax = 20e-9;  // coarser than the edges; breakpoints must kick in
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "in")});
  ASSERT_TRUE(result.completed);

  // The recorded series must contain the exact plateau values.
  const auto& vin = result.seriesFor("v(in)");
  double maxV = 0.0;
  for (std::size_t k = 0; k < result.time.size(); ++k) {
    maxV = std::max(maxV, vin[k]);
    if (result.time[k] < 100e-9 - 1e-12) {
      EXPECT_NEAR(vin[k], 0.0, 1e-9) << "before delay at t=" << result.time[k];
    }
  }
  EXPECT_NEAR(maxV, 1.0, 1e-9);
}

/// Minimal memristive model for engine tests: conductance grows linearly
/// with the time integral of |v| (no temperature).
class ToyMemristor final : public MemristiveModel {
 public:
  double current(double v) const override { return g_ * v; }
  void advance(double v, double dt) override {
    g_ += 1e-2 * std::fabs(v) * dt / 1e-9;  // 10 mS per V*ns
  }
  double conductanceNow() const { return g_; }

 private:
  double g_ = 1e-4;
};

TEST(Transient, MemristorStateAdvancesOnlyWithBias) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ToyMemristor model;
  PulseSpec pulse;
  pulse.base = 0.0;
  pulse.amplitude = 1.0;
  pulse.delay = 20e-9;
  pulse.rise = 0.5e-9;
  pulse.fall = 0.5e-9;
  pulse.width = 30e-9;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(pulse));
  ckt.emplace<Memristor>("M1", in, ckt.ground(), &model);

  TransientOptions opt;
  opt.tStop = 100e-9;
  opt.dtMax = 1e-9;
  const auto result = runTransient(ckt, opt);
  ASSERT_TRUE(result.completed);
  // Integral of |v| dt ~ 1 V * ~30.5 ns -> dG ~ 0.305 S.
  EXPECT_NEAR(model.conductanceNow(), 1e-4 + 0.305, 0.02);
}

TEST(Transient, RejectsNonPositiveStopTime) {
  Circuit ckt;
  TransientOptions opt;
  opt.tStop = 0.0;
  EXPECT_THROW(runTransient(ckt, opt), std::invalid_argument);
}

TEST(Transient, StepHookFires) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 1.0);
  ckt.emplace<Resistor>("R1", in, ckt.ground(), 1000.0);
  TransientOptions opt;
  opt.tStop = 10e-9;
  opt.dtMax = 1e-9;
  std::size_t calls = 0;
  double lastTime = 0.0;
  opt.onStepAccepted = [&](const nh::util::Vector&, double t, double) {
    ++calls;
    EXPECT_GT(t, lastTime);
    lastTime = t;
  };
  const auto result = runTransient(ckt, opt);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(calls, 10u);
  EXPECT_NEAR(lastTime, 10e-9, 1e-12);
}

}  // namespace
}  // namespace nh::spice
