#pragma once
/// \file waveform.hpp
/// Time-domain stimulus descriptions for independent sources. The memory
/// controller drives word/bit lines with rectangular pulse trains exactly as
/// the paper defines them: "a rectangular electrical pulse with a fixed
/// amplitude ... and a given pulse length", plus period and pulse count.

namespace nh::spice {

/// Rectangular/trapezoidal pulse train (SPICE PULSE-style).
struct PulseSpec {
  double base = 0.0;      ///< Level before delay / between pulses [V].
  double amplitude = 0.0; ///< Active level [V].
  double delay = 0.0;     ///< Time of first rising edge [s].
  double rise = 1e-10;    ///< Rise time [s] (>0 keeps the waveform continuous).
  double fall = 1e-10;    ///< Fall time [s].
  double width = 0.0;     ///< Time at the active level per pulse [s].
  double period = 0.0;    ///< Pulse repetition period [s]; 0 = single pulse.
  long long count = -1;   ///< Number of pulses; -1 = unlimited.
};

/// Polymorphic waveform: value as a function of time.
class Waveform {
 public:
  virtual ~Waveform() = default;
  /// Instantaneous value at time \p t [s].
  virtual double value(double t) const = 0;
  /// Next time > \p t at which the waveform has a breakpoint (edge); the
  /// transient engine aligns timesteps to these so edges are not smeared.
  /// Returns +inf when no further breakpoints exist.
  virtual double nextBreakpoint(double t) const;
};

/// Constant value.
class DcWaveform final : public Waveform {
 public:
  explicit DcWaveform(double value) : value_(value) {}
  double value(double) const override { return value_; }

 private:
  double value_;
};

/// Pulse train per PulseSpec.
class PulseWaveform final : public Waveform {
 public:
  explicit PulseWaveform(const PulseSpec& spec);
  double value(double t) const override;
  double nextBreakpoint(double t) const override;
  const PulseSpec& spec() const { return spec_; }

 private:
  PulseSpec spec_;
};

}  // namespace nh::spice
