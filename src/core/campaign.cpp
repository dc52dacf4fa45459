#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nh::core {

namespace {

/// One trial: perturb the cell params under the trial's own counter-based
/// stream, build a fresh study, attack. When \p disturbRow is non-null
/// (recordCellHealth), runs on an inspectable bench and marks every
/// non-aggressor cell whose detector classification changed.
void runTrial(const CampaignConfig& config, std::size_t trial,
              TrialOutcome& out, std::uint8_t* disturbRow) {
  util::Rng rng = util::Rng::forStream(config.seed, trial);
  StudyConfig trialConfig = config.base;
  trialConfig.cellParams =
      config.base.cellParams.withVariability(rng, config.sigma);
  // Fresh construction, deliberately not getOrBuildStudy: every perturbed
  // config is unique, and thousands of one-shot entries would evict the warm
  // studies the rest of the experiment catalog shares.
  const AttackStudy study(trialConfig);
  // The V/3 countermeasure arm of the blinded comparison needs its own bias
  // scheme on the centre attack.
  AttackConfig attack = study.centerAttackConfig(config.pulse, config.budget);
  attack.scheme = config.scheme;

  if (disturbRow == nullptr) {
    const AttackResult r = study.attack(attack);
    out.flipped = r.flipped;
    out.pulses = r.flipped ? r.pulsesToFlip : 0;
    return;
  }

  AttackStudy::Bench bench = study.makeBench();
  const BitFlipDetector detector(config.base.detector);
  const std::vector<ReadState> before = detector.snapshot(*bench.array);
  AttackEngine engine(*bench.engine, config.base.detector);
  const AttackResult r = engine.run(attack);
  out.flipped = r.flipped;
  out.pulses = r.flipped ? r.pulsesToFlip : 0;
  for (const FlipEvent& ev : detector.flipsSince(*bench.array, before)) {
    const bool aggressor =
        std::find(attack.aggressors.begin(), attack.aggressors.end(), ev.cell) !=
        attack.aggressors.end();
    if (aggressor) continue;  // LRS preparation, not a disturb event.
    disturbRow[ev.cell.row * config.base.cols + ev.cell.col] = 1;
  }
}

}  // namespace

CampaignResult runCampaign(const CampaignConfig& config) {
  if (config.trials == 0)
    throw std::invalid_argument("runCampaign: trials must be > 0");
  if (config.batchSize == 0)
    throw std::invalid_argument("runCampaign: batchSize must be > 0");
  if (!(std::isfinite(config.sigma) && config.sigma >= 0.0))
    throw std::invalid_argument("runCampaign: sigma must be finite and >= 0");
  if (!(config.confidence > 0.0 && config.confidence < 1.0))
    throw std::invalid_argument("runCampaign: confidence outside (0, 1)");
  if (config.bootstrapResamples == 0)
    throw std::invalid_argument("runCampaign: bootstrapResamples must be > 0");

  const std::size_t trials = config.trials;
  const std::size_t cells = config.base.rows * config.base.cols;
  std::vector<TrialOutcome> outcomes(trials);
  // Trial-indexed disturb bitmaps, reduced serially after the barrier so the
  // health matrix never depends on completion order.
  std::vector<std::uint8_t> disturbed;
  if (config.recordCellHealth) disturbed.assign(trials * cells, 0);

  // Trials run through the indexed-task runner under the "trial:<i>" label,
  // without retries, under the caller's ambient cancellation token. Settle
  // calls are serialised, so the observer sees completed = 1, 2, ... in
  // order.
  std::vector<std::size_t> order(trials);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t completed = 0;  // touched only by the serialised settle calls
  runIndexedTasks(
      order,
      {.label = "trial",
       .threads = config.threads,
       .grain = config.batchSize,
       .onFailure = config.onTrialFailure,
       .cancel = util::currentCancellation()},
      [&](std::size_t trial) {
        runTrial(config, trial, outcomes[trial],
                 config.recordCellHealth ? &disturbed[trial * cells] : nullptr);
      },
      [&](std::size_t trial, PointOutcome outcome) {
        TrialOutcome& out = outcomes[trial];
        if (!outcome.ok()) {
          // A half-run trial must not leak partial results or disturb marks.
          out = TrialOutcome{};
          if (config.recordCellHealth) {
            std::fill_n(&disturbed[trial * cells], cells, std::uint8_t{0});
          }
        }
        static_cast<PointOutcome&>(out) = std::move(outcome);
        if (config.onTrialComplete) config.onTrialComplete(trial, ++completed);
      });

  // Serial reduction in trial order: everything below is scheduling-free.
  CampaignResult result;
  result.trials = trials;
  result.confidence = config.confidence;
  result.outcomes = std::move(outcomes);
  for (const TrialOutcome& out : result.outcomes) {
    // A cancelled trial means a cancelled campaign: no partial statistics.
    if (out.status == PointOutcome::Status::Cancelled ||
        out.status == PointOutcome::Status::TimedOut) {
      throw util::CancelledError(out.error,
                                 out.status == PointOutcome::Status::TimedOut);
    }
    if (out.status == PointOutcome::Status::Failed) {
      ++result.trialsFailed;
      continue;
    }
    ++result.trialsOk;
    if (out.flipped) {
      ++result.flips;
      result.pulsesPerFlip.push_back(out.pulses);
    }
  }
  if (result.trialsOk > 0) {
    result.flipRate = static_cast<double>(result.flips) /
                      static_cast<double>(result.trialsOk);
    result.flipRateCI =
        util::wilsonInterval(result.flips, result.trialsOk, config.confidence);
  }
  if (!result.pulsesPerFlip.empty()) {
    std::vector<double> sorted(result.pulsesPerFlip.begin(),
                               result.pulsesPerFlip.end());
    std::sort(sorted.begin(), sorted.end());
    result.p10Pulses = util::quantileSorted(sorted, 0.10);
    result.medianPulses = util::quantileSorted(sorted, 0.50);
    result.p90Pulses = util::quantileSorted(sorted, 0.90);
    if (sorted.size() >= 2 && sorted.front() > 0.0)
      result.spreadDecades = std::log10(sorted.back() / sorted.front());
    // A distinct stream family for the bootstrap so its draws never collide
    // with the trial streams.
    result.medianPulsesCI = util::bootstrapQuantileInterval(
        sorted, 0.50, config.bootstrapResamples,
        config.seed ^ 0xb0075a1b00757ULL, config.confidence);
  }
  if (config.recordCellHealth) {
    result.healthRows = config.base.rows;
    result.healthCols = config.base.cols;
    result.cellDisturbRate.assign(cells, 0.0);
    if (result.trialsOk > 0) {
      for (std::size_t trial = 0; trial < trials; ++trial) {
        if (result.outcomes[trial].status != PointOutcome::Status::Ok) continue;
        for (std::size_t c = 0; c < cells; ++c)
          result.cellDisturbRate[c] += disturbed[trial * cells + c];
      }
      for (double& rate : result.cellDisturbRate)
        rate /= static_cast<double>(result.trialsOk);
    }
  }
  return result;
}

namespace {

/// Salted FNV-1a over the label bytes, finalized SplitMix64-style. Decides
/// which registered label becomes "arm A" — deterministic per salt,
/// uncorrelated with registration order or label spelling.
std::uint64_t saltedLabelHash(std::uint64_t salt, const std::string& label) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ salt;
  for (const char ch : label) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

constexpr const char* kArmNames[2] = {"arm A", "arm B"};

void writeArmRecord(util::JsonWriter& w, const char* name,
                    const CampaignResult& r) {
  w.key(name).beginObject();
  w.key("trials").value(r.trials);
  w.key("trials_ok").value(r.trialsOk);
  w.key("flips").value(r.flips);
  w.key("flip_rate").value(r.flipRate);
  w.key("flip_rate_lo").value(r.flipRateCI.lo);
  w.key("flip_rate_hi").value(r.flipRateCI.hi);
  w.key("median_pulses").value(r.medianPulses);
  w.endObject();
}

}  // namespace

BlindedAbStudy::BlindedAbStudy(std::string labelX, CampaignConfig configX,
                               std::string labelY, CampaignConfig configY,
                               std::uint64_t salt) {
  if (labelX == labelY)
    throw std::invalid_argument("BlindedAbStudy: arm labels must differ");
  const std::uint64_t hashX = saltedLabelHash(salt, labelX);
  const std::uint64_t hashY = saltedLabelHash(salt, labelY);
  // Smaller salted hash is "arm A"; labels break the (astronomically
  // unlikely) tie so the assignment is total.
  const bool xFirst = hashX < hashY || (hashX == hashY && labelX < labelY);
  arms_[0] = Arm{xFirst ? std::move(labelX) : std::move(labelY),
                 xFirst ? std::move(configX) : std::move(configY),
                 {}};
  arms_[1] = Arm{xFirst ? std::move(labelY) : std::move(labelX),
                 xFirst ? std::move(configY) : std::move(configX),
                 {}};
}

std::vector<std::string> BlindedAbStudy::armNames() {
  return {kArmNames[0], kArmNames[1]};
}

void BlindedAbStudy::run() {
  if (ran_) return;
  arms_[0].result = runCampaign(arms_[0].config);
  arms_[1].result = runCampaign(arms_[1].config);
  ran_ = true;
}

std::size_t BlindedAbStudy::armIndex(const std::string& armName) const {
  for (std::size_t i = 0; i < 2; ++i)
    if (armName == kArmNames[i]) return i;
  throw std::invalid_argument("BlindedAbStudy: unknown arm \"" + armName +
                              "\" (expected \"arm A\" or \"arm B\")");
}

const CampaignResult& BlindedAbStudy::result(const std::string& armName) const {
  if (!ran_) throw std::logic_error("BlindedAbStudy: run() first");
  return arms_[armIndex(armName)].result;
}

double BlindedAbStudy::flipRateDelta() const {
  if (!ran_) throw std::logic_error("BlindedAbStudy: run() first");
  return arms_[0].result.flipRate - arms_[1].result.flipRate;
}

bool BlindedAbStudy::separated() const {
  if (!ran_) throw std::logic_error("BlindedAbStudy: run() first");
  const util::Interval& a = arms_[0].result.flipRateCI;
  const util::Interval& b = arms_[1].result.flipRateCI;
  return a.hi < b.lo || b.hi < a.lo;
}

const std::string& BlindedAbStudy::analysisRecord() const {
  if (!unblinded_)
    throw std::logic_error(
        "BlindedAbStudy: the analysis record is frozen by unblind(); it does "
        "not exist before");
  return record_;
}

std::map<std::string, std::string> BlindedAbStudy::unblind() {
  if (!ran_) throw std::logic_error("BlindedAbStudy: run() before unblind()");
  if (!unblinded_) {
    // Freeze the blinded analysis FIRST: the record is rendered from the
    // opaque arms and committed before any label is reachable.
    util::JsonWriter w;
    w.beginObject();
    w.key("blinded").value(true);
    w.key("confidence").value(arms_[0].result.confidence);
    writeArmRecord(w, "arm_a", arms_[0].result);
    writeArmRecord(w, "arm_b", arms_[1].result);
    w.key("flip_rate_delta").value(flipRateDelta());
    w.key("separated").value(separated());
    w.endObject();
    record_ = w.str();
    unblinded_ = true;
  }
  return {{kArmNames[0], arms_[0].label}, {kArmNames[1], arms_[1].label}};
}

const std::string& BlindedAbStudy::trueLabel(const std::string& armName) const {
  const std::size_t index = armIndex(armName);
  if (!unblinded_)
    throw std::logic_error("BlindedAbStudy: labels are blinded until "
                           "unblind()");
  return arms_[index].label;
}

}  // namespace nh::core
