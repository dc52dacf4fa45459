#pragma once
/// \file quiescent_envelope_cases.hpp
/// Sampled attacks for the quiescent-cell bypass envelope: arrays from 5x5
/// to 64x64, both biasing schemes, all-HRS and random LRS/HRS backgrounds.
/// Each case hammers the centre cell (LRS) with the engine's default
/// options and stops when its word-line neighbour (the victim, HRS) reaches
/// a normalised state of 0.5, or at the case's pulse cap. The outcomes of
/// the engine without the bypass are recorded in test_xbar_engines.cpp
/// (FastEngine.QuiescentBypassStaysInsideTheEnvelope).

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/fastsim.hpp"
#include "xbar/scheme.hpp"

namespace nh::xbar::envelope {

struct Case {
  std::size_t n;        ///< Array side.
  BiasScheme scheme;
  double lrsFraction;   ///< Share of LRS cells in the background.
  double spacing;       ///< Electrode spacing [m] (analytic alpha table).
  std::size_t maxPulses;
};

struct Outcome {
  std::size_t pulses = 0;     ///< Pulses applied when the train stopped.
  double victimState = 0.0;   ///< Victim's normalised state then.
};

inline const Case kCases[] = {
    {5, BiasScheme::Half, 0.0, 10e-9, 20000},   {5, BiasScheme::Half, 0.3, 10e-9, 20000},
    {5, BiasScheme::Third, 0.0, 10e-9, 3000},   {5, BiasScheme::Third, 0.3, 10e-9, 3000},
    {12, BiasScheme::Half, 0.0, 10e-9, 20000},  {12, BiasScheme::Half, 0.2, 10e-9, 20000},
    {12, BiasScheme::Third, 0.2, 10e-9, 3000},  {24, BiasScheme::Half, 0.0, 30e-9, 20000},
    {24, BiasScheme::Half, 0.2, 10e-9, 20000},  {24, BiasScheme::Third, 0.0, 10e-9, 3000},
    {40, BiasScheme::Half, 0.1, 10e-9, 20000},  {64, BiasScheme::Half, 0.0, 10e-9, 20000},
    {64, BiasScheme::Half, 0.1, 10e-9, 20000},  {64, BiasScheme::Third, 0.1, 10e-9, 1000},
};

inline Outcome run(const Case& k, std::uint64_t stream) {
  ArrayConfig cfg;
  cfg.rows = k.n;
  cfg.cols = k.n;
  CrossbarArray array(cfg);
  util::Rng rng = util::Rng::forStream(21, stream);
  for (std::size_t r = 0; r < k.n; ++r) {
    for (std::size_t c = 0; c < k.n; ++c) {
      array.setState(r, c, rng.uniform() < k.lrsFraction ? CellState::Lrs : CellState::Hrs);
    }
  }
  const std::size_t centre = k.n / 2;
  array.setState(centre, centre, CellState::Lrs);
  array.setState(centre, centre - 1, CellState::Hrs);
  FastEngine engine(array, AlphaTable::analytic(k.spacing));
  const LineBias bias = selectBias(k.scheme, k.n, k.n, centre, centre, 1.05);
  const auto& victim = array.cell(centre, centre - 1);
  const PulseTrainResult train = engine.applyPulseTrain(
      bias, 50e-9, 50e-9, k.maxPulses,
      [&](std::size_t) { return victim.normalisedState() >= 0.5; });
  return {train.pulsesApplied, victim.normalisedState()};
}

}  // namespace nh::xbar::envelope
