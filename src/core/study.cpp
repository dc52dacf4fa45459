#include "core/study.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "fem/geometry.hpp"

namespace nh::core {

namespace {
std::atomic<std::size_t> studyConstructions{0};
}  // namespace

std::size_t AttackStudy::constructionCount() {
  return studyConstructions.load();
}

AttackStudy::AttackStudy(StudyConfig config) : config_(std::move(config)) {
  studyConstructions.fetch_add(1, std::memory_order_relaxed);
  if (config_.rows < 3 || config_.cols < 3) {
    throw std::invalid_argument("AttackStudy: need at least a 3x3 array");
  }

  if (config_.useFemAlphas) {
    fem::CrossbarLayout layout;
    layout.rows = config_.rows;
    layout.cols = config_.cols;
    layout.spacing = config_.spacing;
    layout.voxelSize = config_.femVoxelSize;
    // extractAlpha solves the centre cell's mirror quadrant of the
    // symmetric model and chains the power sweep's CG solves (each point
    // warm-starts from the previous point's rise over ambient scaled by the
    // power ratio, so only the first point iterates in earnest);
    // femOptions picks the preconditioner -- on fine-voxel grids the solves
    // run GMG-preconditioned CG.
    const auto extraction =
        fem::extractCentreAlpha(layout, config_.ambientK, config_.femOptions);
    alphas_ = xbar::AlphaTable::fromExtraction(extraction);
  } else {
    alphas_ = xbar::AlphaTable::analytic(config_.spacing);
  }

  arrayConfig_.rows = config_.rows;
  arrayConfig_.cols = config_.cols;
  arrayConfig_.cellParams = config_.cellParams;
  arrayConfig_.ambientK = config_.ambientK;
  // COMSOL -> Virtuoso hand-off: the FEM-extracted thermal resistance
  // replaces the compact-model default (paper Sec. IV).
  if (alphas_.rTh() > 0.0) arrayConfig_.cellParams.rThEff = alphas_.rTh();
}

AttackStudy::Bench AttackStudy::makeBench() const {
  Bench bench;
  bench.array = std::make_unique<xbar::CrossbarArray>(arrayConfig_);
  bench.array->fill(xbar::CellState::Hrs);
  bench.engine = std::make_unique<xbar::FastEngine>(*bench.array, alphas_,
                                                    config_.engineOptions);
  return bench;
}

AttackResult AttackStudy::attack(const AttackConfig& attackConfig) const {
  Bench bench = makeBench();
  AttackEngine engine(*bench.engine, config_.detector);
  return engine.run(attackConfig);
}

AttackResult AttackStudy::attackCenter(const HammerPulse& pulse,
                                       std::size_t maxPulses,
                                       std::size_t traceSamples) const {
  AttackConfig cfg = centerAttackConfig(pulse, maxPulses);
  cfg.traceSamples = traceSamples;
  return attack(cfg);
}

AttackConfig AttackStudy::centerAttackConfig(const HammerPulse& pulse,
                                             std::size_t maxPulses) const {
  const std::size_t cr = config_.rows / 2;
  const std::size_t cc = config_.cols / 2;
  AttackConfig cfg;
  cfg.aggressors = {{cr, cc}};
  cfg.pulse = pulse;
  cfg.maxPulses = maxPulses;
  // Monitor the aggressor's word-line neighbour explicitly first (strongest
  // coupling; this is the cell Fig. 1 calls M2) plus all remaining HRS cells.
  if (cc > 0) cfg.victims.push_back({cr, cc - 1});
  if (cc + 1 < config_.cols) cfg.victims.push_back({cr, cc + 1});
  if (cr > 0) cfg.victims.push_back({cr - 1, cc});
  if (cr + 1 < config_.rows) cfg.victims.push_back({cr + 1, cc});
  return cfg;
}

AttackResult AttackStudy::attackPattern(AttackPattern pattern,
                                        const HammerPulse& pulse,
                                        std::size_t maxPulses) const {
  const xbar::CellCoord victim{config_.rows / 2, config_.cols / 2};
  AttackConfig cfg;
  cfg.aggressors = patternAggressors(pattern, victim, config_.rows, config_.cols);
  cfg.pulse = pulse;
  cfg.maxPulses = maxPulses;
  cfg.victims = {victim};
  return attack(cfg);
}

}  // namespace nh::core
