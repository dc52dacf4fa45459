#include "spice/waveform.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nh::spice {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double Waveform::nextBreakpoint(double) const { return kInf; }

PulseWaveform::PulseWaveform(const PulseSpec& spec) : spec_(spec) {
  if (spec_.rise <= 0.0 || spec_.fall <= 0.0) {
    throw std::invalid_argument("PulseWaveform: rise/fall must be > 0");
  }
  if (spec_.width < 0.0) throw std::invalid_argument("PulseWaveform: negative width");
  const double minPeriod = spec_.rise + spec_.width + spec_.fall;
  if (spec_.period != 0.0 && spec_.period < minPeriod) {
    throw std::invalid_argument("PulseWaveform: period shorter than pulse shape");
  }
}

double PulseWaveform::value(double t) const {
  const auto& s = spec_;
  if (t < s.delay) return s.base;
  double local = t - s.delay;
  if (s.period > 0.0) {
    const double k = std::floor(local / s.period);
    if (s.count >= 0 && k >= static_cast<double>(s.count)) return s.base;
    local -= k * s.period;
  } else if (s.count == 0) {
    return s.base;
  }
  if (local < s.rise) {
    return s.base + (s.amplitude - s.base) * (local / s.rise);
  }
  if (local < s.rise + s.width) return s.amplitude;
  if (local < s.rise + s.width + s.fall) {
    const double f = (local - s.rise - s.width) / s.fall;
    return s.amplitude + (s.base - s.amplitude) * f;
  }
  return s.base;
}

double PulseWaveform::nextBreakpoint(double t) const {
  const auto& s = spec_;
  // Breakpoints within one period, relative to the pulse start.
  const double marks[4] = {0.0, s.rise, s.rise + s.width, s.rise + s.width + s.fall};
  const double eps = 1e-18;
  if (t < s.delay - eps) return s.delay;

  const double local = t - s.delay;
  double k = 0.0;
  double inPeriod = local;
  if (s.period > 0.0) {
    k = std::floor(local / s.period);
    inPeriod = local - k * s.period;
  }
  // Next mark in this period -- only if this period's pulse exists.
  const bool pulseExists =
      s.count < 0 || (s.period > 0.0 ? k < static_cast<double>(s.count) : k == 0.0);
  if (pulseExists) {
    for (double m : marks) {
      if (inPeriod < m - eps) {
        return s.delay + k * s.period + m;
      }
    }
  }
  // Otherwise the start of the next period, if any pulses remain.
  if (s.period > 0.0) {
    const double nextK = k + 1.0;
    if (s.count < 0 || nextK < static_cast<double>(s.count)) {
      return s.delay + nextK * s.period;
    }
  }
  return kInf;
}

}  // namespace nh::spice
