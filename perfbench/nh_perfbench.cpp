/// \file nh_perfbench.cpp
/// End-to-end attack-simulation benchmark program (see README.md).
///
///   nh_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                --reference-dir <dir> [--trace-file <path>] [--threads <n>]
///                [--commit <id>] [--record-reference]
///
/// A run repeats one end-to-end *cycle* of its workload -- set-up, run
/// phase, JSON emission, output check -- until --seconds are used, and
/// prints the medians. --trace 1 is the separate traced run: an untraced
/// cycle, a one-thread cycle, a traced cycle, then layer probes against the
/// live array state the traced cycle's attack left behind. The program times
/// only calls into libnh's public API; it never reaches into src/.
///
/// The last stdout line is the result object {correct, attempted, failed,
/// metrics}. The process exits 1 when any operation failed (threw, timed
/// out, or fell outside its reference tolerance).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/attack.hpp"
#include "core/baseline.hpp"
#include "core/campaign.hpp"
#include "core/detector.hpp"
#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "core/patterns.hpp"
#include "core/study.hpp"
#include "fem/alpha.hpp"
#include "fem/geometry.hpp"
#include "fem/materials.hpp"
#include "trace.hpp"
#include "util/cancellation.hpp"
#include "util/json.hpp"
#include "util/linsolve.hpp"
#include "util/rng.hpp"
#include "util/spmv.hpp"
#include "util/threadpool.hpp"
#include "xbar/scheme.hpp"
#include "xbar/sneak.hpp"

namespace core = nh::core;
namespace util = nh::util;
namespace xbar = nh::xbar;
namespace fs = std::filesystem;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::Span;
using perfbench::Tracer;

namespace {

/// The seed whose inputs reproduce the registry configuration exactly (and
/// the campaign's default RNG seed).
constexpr std::uint64_t kDefaultSeed = 2026;
/// Every cycle must end this long after process start, so the process exits
/// inside its 180 s budget even on a machine far slower than expected.
constexpr double kDeadlineS = 165.0;
/// setup_s is a median of at least kMinSetups set-ups; a set-up shorter than
/// kSetupSampleS is instead timed as batched samples, kSetupSamplesPerCycle
/// before the first cycle and after each.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupSampleS = 0.02;
constexpr std::size_t kSetupSamplesPerCycle = 3;

const Clock::time_point kProcessStart = Clock::now();

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;  ///< 0 = min(4, nproc).
  fs::path referenceDir;
  fs::path traceFile;
  std::string commit = "unknown";
  bool record = false;
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Pins the calling thread to one CPU of its affinity mask at a time and
/// restores the mask on destruction. On a shared host the CPUs' speeds
/// differ and drift independently, and the scheduler keeps a busy thread on
/// the CPU it started on; pinning cycle k's calling thread to the k-th
/// allowed CPU makes every run sample all CPUs alike.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t index) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[index % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Live state of a workload's attack: what the layer probes run against.
struct Subject {
  std::shared_ptr<const core::AttackStudy> study;
  core::AttackStudy::Bench bench;
  core::AttackConfig attack;
};

/// Work counters of one cycle. Every field but attackSeconds is an exact
/// count that must repeat run to run.
struct Counts {
  std::size_t pulsesApplied = 0;  ///< Over every operation, batched included.
  /// Attacks this program runs itself (the campaign's trials are opaque; its
  /// attack counters come from the oracle trials).
  std::size_t attacks = 0;
  std::size_t attackPulsesApplied = 0;
  std::size_t attackPulsesSimulated = 0;
  std::size_t newtonIterations = 0;
  std::size_t studyConstructions = 0;
  std::size_t cellsPerArray = 0;
  double attackSeconds = 0.0;

  void add(const Counts& o) {
    pulsesApplied += o.pulsesApplied;
    attacks += o.attacks;
    attackPulsesApplied += o.attackPulsesApplied;
    attackPulsesSimulated += o.attackPulsesSimulated;
    newtonIterations += o.newtonIterations;
    studyConstructions += o.studyConstructions;
    cellsPerArray = std::max(cellsPerArray, o.cellsPerArray);
    attackSeconds += o.attackSeconds;
  }

  void addAttack(const core::AttackResult& r, const xbar::FastEngine& engine,
                 double seconds) {
    ++attacks;
    attackPulsesApplied += r.pulsesApplied;
    attackPulsesSimulated += r.pulsesSimulated;
    newtonIterations += engine.newtonIterationsTotal();
    cellsPerArray = engine.array().cellCount();
    attackSeconds += seconds;
  }
};

/// One end-to-end cycle: set-up, run phase, emission, check.
struct Cycle {
  double setupS = 0.0;
  double runS = 0.0;
  double emitS = 0.0;
  double wallS = 0.0;
  core::ExperimentResult result;  ///< Rows in the registry's column layout.
  std::vector<std::size_t> rowOps;  ///< Operations behind each row.
  std::set<std::size_t> failedRows;
  std::size_t extraFailed = 0;  ///< Failed operations inside a passing row.
  std::vector<std::string> problems;
  Counts counts;
  /// Per-operation outputs the rows aggregate (campaign trial outcomes),
  /// folded into the physics digest.
  std::string detail;

  std::size_t attempted() const {
    std::size_t n = 0;
    for (std::size_t ops : rowOps) n += ops;
    return n;
  }
  std::size_t failed() const {
    std::size_t n = extraFailed;
    for (std::size_t r : failedRows) n += r < rowOps.size() ? rowOps[r] : 0;
    return std::min(n, attempted());
  }
  void fail(std::size_t row, std::string what) {
    failedRows.insert(row);
    problems.push_back("row " + std::to_string(row) + ": " + std::move(what));
  }
};

core::ResultValue placeholder() { return core::ResultValue::str("-"); }

class Workload {
 public:
  Workload(const Options& options, std::string name, const std::string& experiment)
      : options_(options), spec_(core::makeExperiment(experiment)) {
    spec_.name = std::move(name);
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return spec_.name; }

  /// Empty result carrying the registry's columns and the config digest the
  /// reference was recorded under.
  core::ExperimentResult newResult(std::size_t threads) const {
    core::ExperimentResult r;
    r.name = spec_.name;
    r.tableTitle = spec_.tableTitle;
    r.columns = spec_.columns;
    r.threads = threads;
    r.fast = specOptions_.fast;
    r.configDigest = core::configDigest(spec_, specOptions_);
    return r;
  }

  /// Set-up: build what the run phase needs. Timed as setup_s.
  virtual void setup(Tracer* tracer) = 0;
  /// Run phase: the timed operations. Fills rows, row ops and counters.
  virtual void run(std::size_t threads, Cycle& cycle, Tracer* tracer) = 0;
  /// Checks beyond the reference rows (after emission, inside wall_s).
  virtual void verify(Cycle& /*cycle*/, Tracer* /*tracer*/) {}
  /// Columns whose values depend on the inputs' seed: checked only when the
  /// cycle runs the default seed's inputs.
  virtual std::set<std::string> seedDependentColumns() const { return {}; }
  /// Select the inputs of cycle \p index of a run (before its set-up).
  virtual void beginCycle(std::size_t /*index*/) {}
  /// The current inputs are the default seed's (the registry configuration).
  virtual bool defaultInputs() const { return options_.seed == kDefaultSeed; }
  /// Live state of the last cycle's probed attack.
  virtual const Subject& subject() const = 0;
  /// fem.build_s / fem.extract_s; the layer does no work unless overridden.
  virtual std::pair<double, double> femProbe(Tracer* /*tracer*/) { return {0.0, 0.0}; }
  /// The cycle runs on the calling thread alone (no pool work).
  virtual bool singleThreaded() const { return false; }

 protected:
  Options options_;
  core::ExperimentSpec spec_;
  core::RunOptions specOptions_;
};

/// Attack through AttackEngine on \p bench and count its work.
core::AttackResult timedAttack(core::AttackStudy::Bench& bench,
                               const core::AttackConfig& attack,
                               const core::DetectorConfig& detector, Counts& counts,
                               Tracer* tracer, const std::string& label,
                               std::size_t parent = 0) {
  Span span(tracer, "core.attack", "AttackEngine::run " + label, parent);
  const auto start = Clock::now();
  core::AttackEngine engine(*bench.engine, detector);
  const core::AttackResult r = engine.run(attack);
  counts.addAttack(r, *bench.engine, secondsSince(start));
  return r;
}

// ---- large_array_attack -----------------------------------------------------

/// scaling_array_size at size = 64 (a point of both its grids): one
/// single-aggressor attack monitoring every other cell, then the worst-case
/// read margin.
class LargeArrayAttack final : public Workload {
 public:
  static constexpr std::size_t kSize = 64;

  explicit LargeArrayAttack(const Options& options)
      : Workload(options, "large_array_attack", "scaling_array_size") {
    specOptions_.axisOverrides["size"] = {static_cast<double>(kSize)};
    config_ = spec_.base;
    for (const core::ParamAxis& axis : spec_.axes) {
      if (axis.name == "size") axis.apply(config_, static_cast<double>(kSize));
    }
    aggressor_ = {kSize / 2, kSize / 2};
    if (options.seed != kDefaultSeed) {
      // Any interior cell: the fast engine's line network is symmetric under
      // row/column permutations and the alpha table is translation
      // invariant, so the centre reference holds wherever the hammered cell
      // sits, as long as its thermal neighbourhood stays inside the array.
      const auto margin = static_cast<std::size_t>(
          xbar::AlphaTable::analytic(config_.spacing).radius() + 2);
      util::Rng rng = util::Rng::forStream(options.seed, 0);
      const std::size_t span = kSize - 2 * margin;
      aggressor_ = {margin + rng.uniformInt(span), margin + rng.uniformInt(span)};
    }
  }

  void setup(Tracer* tracer) override {
    core::clearStudyCache();
    {
      Span span(tracer, "core.study", "getOrBuildStudy");
      subject_.study = core::getOrBuildStudy(config_);
    }
    Span span(tracer, "core.study", "AttackStudy::makeBench");
    subject_.bench = subject_.study->makeBench();
  }

  void run(std::size_t /*threads*/, Cycle& cycle, Tracer* tracer) override {
    cycle.rowOps = {1};
    core::AttackConfig& a = subject_.attack;
    a = core::AttackConfig{};
    a.aggressors = {aggressor_};
    a.maxPulses = spec_.maxPulses;
    std::vector<core::ResultValue> row(spec_.columns.size(), placeholder());
    try {
      const auto attackStart = Clock::now();
      const core::AttackResult r =
          timedAttack(subject_.bench, a, config_.detector, cycle.counts, tracer,
                      "(single aggressor)");
      cycle.counts.pulsesApplied += r.pulsesApplied;
      // Reach at the flip, as the registry experiment measures it.
      double disturbed = 0.0;
      double reach = 0.0;
      const auto& array = *subject_.bench.array;
      const auto dist = [](std::size_t x, std::size_t y) {
        return static_cast<double>(x > y ? x - y : y - x);
      };
      for (std::size_t r = 0; r < kSize; ++r) {
        for (std::size_t c = 0; c < kSize; ++c) {
          if (xbar::CellCoord{r, c} == aggressor_) continue;
          if (array.cell(r, c).normalisedState() < 0.05) continue;
          disturbed += 1.0;
          reach = std::max(reach, std::max(dist(r, aggressor_.row),
                                           dist(c, aggressor_.col)));
        }
      }
      const double attackWall = secondsSince(attackStart);
      const auto sneakStart = Clock::now();
      xbar::ReadMargin margin;
      {
        Span span(tracer, "xbar.sneak", "worstCaseReadMargin");
        margin = xbar::worstCaseReadMargin(subject_.study->arrayConfig(), 0.2,
                                           xbar::ReadScheme::HalfBias);
      }
      const double n = static_cast<double>(kSize);
      row = {core::ResultValue::num(n),
             core::ResultValue::num(n * n),
             core::ResultValue::num(static_cast<double>(r.pulsesToFlip)),
             core::ResultValue::num(r.stressTime),
             core::ResultValue::num(disturbed),
             core::ResultValue::num(reach),
             core::ResultValue::num(margin.margin),
             core::ResultValue::num(attackWall),
             core::ResultValue::num(secondsSince(sneakStart)),
             core::ResultValue::num(0.0)};
    } catch (const util::CancelledError&) {
      throw;
    } catch (const std::exception& e) {
      cycle.fail(0, e.what());
    }
    cycle.result.rows.push_back(std::move(row));
  }

  const Subject& subject() const override { return subject_; }
  bool singleThreaded() const override { return true; }

 private:
  core::StudyConfig config_;
  xbar::CellCoord aggressor_;
  Subject subject_;
};

// ---- round_robin_fem --------------------------------------------------------

/// fig3d_attack_patterns (fast) on FEM-extracted alphas: the attack patterns
/// around the centre victim but the column pair, hammered round-robin, each
/// at its four mirror images about the victim -- one pool task per attack,
/// 16 tasks on the pool, so no single thread sets the cycle's time. The
/// mirror images have the same physics up to the FEM mesh's symmetry, so the
/// registry's rows hold for each. The column pair (~101k pulses, 7x the
/// others) is left out so that a cycle lasts seconds, not tens of seconds.
class RoundRobinFem final : public Workload {
 public:
  explicit RoundRobinFem(const Options& options)
      : Workload(options, "round_robin_fem", "fig3d_attack_patterns") {
    spec_.base.useFemAlphas = true;
    specOptions_.fast = true;
    budget_ = spec_.fastMaxPulses > 0 ? spec_.fastMaxPulses : spec_.maxPulses;
    if (options.seed != kDefaultSeed) {
      // A different first aggressor of the round-robin: the default-seed
      // reference still applies.
      rotation_ = util::Rng::forStream(options.seed, 0).uniformInt(8);
    }
  }

  void setup(Tracer* tracer) override {
    core::clearStudyCache();
    Span span(tracer, "core.study", "getOrBuildStudy (FEM alphas)");
    study_ = core::getOrBuildStudy(spec_.base);
  }

  void run(std::size_t threads, Cycle& cycle, Tracer* tracer) override {
    // Longest attacks first, so the pool drains on the short ones.
    const std::vector<core::AttackPattern> patterns = {
        core::AttackPattern::SingleAggressor, core::AttackPattern::Ring,
        core::AttackPattern::Cross, core::AttackPattern::RowPair};
    const std::size_t n = patterns.size() * kMirrors;
    const auto patternOf = [&](std::size_t i) { return patterns[i / kMirrors]; };
    std::vector<core::AttackResult> results(n);
    std::vector<std::string> errors(n);
    std::vector<core::AttackStudy::Bench> benches(n);
    std::vector<core::AttackConfig> attacks(n);
    std::vector<Counts> counts(n);
    Span phase(tracer, "perfbench", "patterns");
    util::parallelFor(
        n,
        [&](std::size_t i) {
          try {
            attacks[i] = attackFor(patternOf(i), i % kMirrors);
            benches[i] = study_->makeBench();
            results[i] = timedAttack(benches[i], attacks[i], spec_.base.detector,
                                     counts[i], tracer,
                                     core::patternName(patternOf(i)), phase.id());
          } catch (const util::CancelledError&) {
            throw;
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
        },
        threads);
    for (std::size_t i = 0; i < n; ++i) {
      cycle.rowOps.push_back(1);
      if (!errors[i].empty()) {
        cycle.fail(i, errors[i]);
        cycle.result.rows.emplace_back(spec_.columns.size(), placeholder());
        continue;
      }
      cycle.counts.add(counts[i]);
      cycle.counts.pulsesApplied += results[i].pulsesApplied;
      cycle.result.rows.push_back(
          {core::ResultValue::str(core::patternName(patternOf(i))),
           core::ResultValue::num(static_cast<double>(attacks[i].aggressors.size())),
           core::ResultValue::num(static_cast<double>(results[i].pulsesToFlip)),
           core::ResultValue::boolean(results[i].flipped)});
      // The ring hammers the most aggressors round-robin: probe its end state.
      if (patternOf(i) == core::AttackPattern::Ring && i % kMirrors == 0) {
        subject_.study = study_;
        subject_.bench = std::move(benches[i]);
        subject_.attack = attacks[i];
      }
    }
  }

  const Subject& subject() const override { return subject_; }

  std::pair<double, double> femProbe(Tracer* tracer) override {
    // The two halves of the study's FEM extraction, called as the study
    // constructor calls them.
    Span span(tracer, "fem", "CrossbarModel3D::build + extractAlpha");
    const core::StudyConfig& cfg = spec_.base;
    nh::fem::CrossbarLayout layout;
    layout.rows = cfg.rows;
    layout.cols = cfg.cols;
    layout.spacing = cfg.spacing;
    layout.voxelSize = cfg.femVoxelSize;
    auto start = Clock::now();
    const auto model = nh::fem::CrossbarModel3D::build(layout);
    const double build = secondsSince(start);
    start = Clock::now();
    const auto extraction = nh::fem::extractAlpha(
        model, nh::fem::MaterialTable::defaults(), cfg.rows / 2, cfg.cols / 2,
        {0.05e-3, 0.10e-3, 0.15e-3}, cfg.ambientK, cfg.femOptions);
    const double extract = secondsSince(start);
    if (!(extraction.rTh > 0.0)) throw std::runtime_error("FEM probe: no R_th");
    return {build, extract};
  }

 private:
  static constexpr std::size_t kMirrors = 4;

  /// \p pattern mirrored about the victim: rows when bit 0 of \p mirror is
  /// set, columns when bit 1 is.
  core::AttackConfig attackFor(core::AttackPattern pattern, std::size_t mirror) const {
    const std::size_t vr = spec_.base.rows / 2;
    const std::size_t vc = spec_.base.cols / 2;
    core::AttackConfig a;
    a.aggressors =
        core::patternAggressors(pattern, {vr, vc}, spec_.base.rows, spec_.base.cols);
    for (xbar::CellCoord& c : a.aggressors) {
      if ((mirror & 1U) != 0) c.row = 2 * vr - c.row;
      if ((mirror & 2U) != 0) c.col = 2 * vc - c.col;
    }
    std::rotate(a.aggressors.begin(),
                a.aggressors.begin() +
                    static_cast<std::ptrdiff_t>(rotation_ % a.aggressors.size()),
                a.aggressors.end());
    a.maxPulses = budget_;
    a.victims = {{vr, vc}};
    return a;
  }

  std::size_t budget_ = 0;
  std::size_t rotation_ = 0;
  std::shared_ptr<const core::AttackStudy> study_;
  Subject subject_;
};

// ---- variability_campaign ---------------------------------------------------

/// campaign_flip_rate at sigma = 0.10, 100 trials per cycle: short
/// independent attacks across the pool, each on a freshly built perturbed
/// study. A sample of trials is recomputed serially (fresh study, centre
/// attack through AttackEngine) and must match the campaign exactly -- the
/// check that holds for every seed.
class VariabilityCampaign final : public Workload {
 public:
  static constexpr std::size_t kTrials = 100;
  static constexpr std::size_t kOracleTrials = 4;

  explicit VariabilityCampaign(const Options& options)
      : Workload(options, "variability_campaign", "campaign_flip_rate") {
    specOptions_.axisOverrides["sigma"] = {0.10};
    specOptions_.axisOverrides["trials"] = {static_cast<double>(kTrials)};
    campaign_.base = spec_.base;
    campaign_.sigma = 0.10;
    campaign_.trials = kTrials;
    // Small work items keep all pool threads busy to the end of the
    // campaign; results are identical for every batch size.
    campaign_.batchSize = 4;
    campaign_.budget = spec_.maxPulses;
    campaign_.onTrialFailure = core::TrialFailurePolicy::Skip;
    const std::size_t cr = spec_.base.rows / 2;
    const std::size_t cc = spec_.base.cols / 2;
    // AttackStudy::attackCenter's configuration (what every trial runs).
    centre_.aggressors = {{cr, cc}};
    centre_.pulse = campaign_.pulse;
    centre_.maxPulses = campaign_.budget;
    centre_.victims = {{cr, cc - 1}, {cr, cc + 1}, {cr - 1, cc}, {cr + 1, cc}};
    beginCycle(0);
  }

  /// Cycle 0 runs --seed itself; later cycles of a run draw fresh trial
  /// populations from seeds derived from it, so a run's medians average over
  /// inputs instead of repeating one population's few slowest trials.
  void beginCycle(std::size_t index) override {
    campaign_.seed = index == 0
                         ? options_.seed
                         : util::Rng::forStream(options_.seed, 1000 + index).nextU64();
    util::Rng rng = util::Rng::forStream(campaign_.seed, 0);
    oracleTrials_ = {0};
    while (oracleTrials_.size() < kOracleTrials) {
      oracleTrials_.push_back(1 + rng.uniformInt(campaign_.trials - 1));
    }
  }

  bool defaultInputs() const override { return campaign_.seed == kDefaultSeed; }

  /// Set-up builds the oracle trials' perturbed studies and benches; the
  /// campaign's own constructions happen inside runCampaign.
  void setup(Tracer* tracer) override {
    Span span(tracer, "core.study", "AttackStudy + makeBench (oracle trials)");
    oracle_.clear();
    for (std::size_t trial : oracleTrials_) {
      util::Rng rng = util::Rng::forStream(campaign_.seed, trial);
      core::StudyConfig cfg = campaign_.base;
      cfg.cellParams = campaign_.base.cellParams.withVariability(rng, campaign_.sigma);
      Subject s;
      s.study = std::make_shared<const core::AttackStudy>(cfg);
      s.bench = s.study->makeBench();
      s.attack = centre_;
      oracle_.push_back(std::move(s));
    }
  }

  void run(std::size_t threads, Cycle& cycle, Tracer* tracer) override {
    core::CampaignConfig cfg = campaign_;
    cfg.threads = threads;
    {
      Span span(tracer, "core.campaign", "runCampaign");
      last_ = core::runCampaign(cfg);
    }
    const core::CampaignResult& r = last_;
    cycle.rowOps = {r.trials};
    cycle.extraFailed += r.trialsFailed;
    for (const core::TrialOutcome& t : r.outcomes) {
      cycle.detail += std::to_string(static_cast<int>(t.status)) +
                      (t.flipped ? "f" : "n") + std::to_string(t.pulses) + ";";
      if (t.status != core::TrialOutcome::Status::Ok) continue;
      cycle.counts.pulsesApplied += t.flipped ? t.pulses : cfg.budget;
    }
    cycle.result.rows.push_back(
        {core::ResultValue::num(cfg.sigma),
         core::ResultValue::num(static_cast<double>(r.trials)),
         core::ResultValue::num(r.flipRate), core::ResultValue::num(r.flipRateCI.lo),
         core::ResultValue::num(r.flipRateCI.hi), core::ResultValue::num(r.p10Pulses),
         core::ResultValue::num(r.medianPulses), core::ResultValue::num(r.p90Pulses),
         core::ResultValue::num(r.medianPulsesCI.lo),
         core::ResultValue::num(r.medianPulsesCI.hi),
         core::ResultValue::num(r.spreadDecades)});
  }

  void verify(Cycle& cycle, Tracer* tracer) override {
    for (std::size_t k = 0; k < oracle_.size(); ++k) {
      const std::size_t trial = oracleTrials_[k];
      Subject& s = oracle_[k];
      const core::AttackResult r =
          timedAttack(s.bench, s.attack, campaign_.base.detector, cycle.counts,
                      tracer, "(oracle trial " + std::to_string(trial) + ")");
      const core::TrialOutcome& t = last_.outcomes.at(trial);
      const std::size_t pulses = r.flipped ? r.pulsesToFlip : 0;
      if (t.status != core::TrialOutcome::Status::Ok || t.flipped != r.flipped ||
          t.pulses != pulses) {
        ++cycle.extraFailed;
        cycle.problems.push_back(
            "trial " + std::to_string(trial) + ": campaign reports " +
            std::to_string(t.pulses) + " pulses, serial recomputation " +
            std::to_string(pulses));
      }
    }
  }

  std::set<std::string> seedDependentColumns() const override {
    return {"p10", "median", "p90", "median_lo", "median_hi", "spread_decades"};
  }

  const Subject& subject() const override { return oracle_.front(); }

 private:
  core::CampaignConfig campaign_;
  core::AttackConfig centre_;
  std::vector<std::size_t> oracleTrials_;
  std::vector<Subject> oracle_;
  core::CampaignResult last_;
};

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "large_array_attack")
    return std::make_unique<LargeArrayAttack>(options);
  if (options.workload == "round_robin_fem")
    return std::make_unique<RoundRobinFem>(options);
  if (options.workload == "variability_campaign")
    return std::make_unique<VariabilityCampaign>(options);
  throw std::invalid_argument(
      "unknown workload '" + options.workload +
      "' (large_array_attack, round_robin_fem, variability_campaign)");
}

// ---- the cycle ----------------------------------------------------------------

/// Compare the cycle's rows with the default-seed reference under the
/// registry's column tolerances (core::checkBaseline applies them through
/// core::withinTolerance); seed-dependent columns only at the default seed.
void checkReference(const Workload& w, const Options& options, Cycle& cycle,
                    Tracer* tracer) {
  Span span(tracer, "core.experiment", "checkBaseline");
  core::ExperimentResult checked = cycle.result;
  if (!w.defaultInputs()) {
    const std::set<std::string> skip = w.seedDependentColumns();
    for (core::ColumnSpec& c : checked.columns) {
      if (skip.count(c.name) > 0) c.tolerance.ignore = true;
    }
  }
  const core::BaselineCheck check = core::checkBaseline(checked, options.referenceDir);
  if (check.passed()) return;
  if (check.status != core::BaselineCheck::Status::ValueMismatch) {
    for (std::size_t r = 0; r < cycle.rowOps.size(); ++r) cycle.failedRows.insert(r);
    cycle.problems.push_back(std::string(core::baselineStatusName(check.status)) +
                             ": " + check.message);
    return;
  }
  for (const core::BaselineDiff& d : check.diffs) {
    cycle.fail(d.row, d.column + " expected " + d.expected + ", got " + d.actual);
  }
}

Cycle runCycle(Workload& w, const Options& options, std::size_t threads,
               Tracer* tracer) {
  Cycle cycle;
  const std::size_t builtBefore = core::AttackStudy::constructionCount();
  const auto start = Clock::now();
  Span root(tracer, "perfbench", "cycle " + w.name());
  auto phase = Clock::now();
  w.setup(tracer);
  cycle.setupS = secondsSince(phase);
  cycle.result = w.newResult(threads);
  phase = Clock::now();
  w.run(threads, cycle, tracer);
  cycle.runS = secondsSince(phase);
  cycle.counts.studyConstructions =
      core::AttackStudy::constructionCount() - builtBefore;
  phase = Clock::now();
  {
    Span span(tracer, "core.experiment", "toJson");
    const std::string doc = core::toJson(cycle.result);
    if (doc.empty()) throw std::runtime_error("toJson returned nothing");
  }
  cycle.emitS = secondsSince(phase);
  if (!options.record) {
    checkReference(w, options, cycle, tracer);
    w.verify(cycle, tracer);
  }
  cycle.wallS = secondsSince(start);
  return cycle;
}

/// runCycle under the process deadline; a cycle cut by it fails as a whole.
Cycle runCycleBounded(Workload& w, const Options& options, std::size_t threads,
                      Tracer* tracer) {
  const double left = kDeadlineS - secondsSince(kProcessStart);
  util::CancellationSource source =
      util::CancellationSource::withDeadline(std::max(left, 0.001));
  const util::CancellationScope scope(source.token());
  try {
    return runCycle(w, options, threads, tracer);
  } catch (const util::CancelledError& e) {
    Cycle cycle;
    cycle.rowOps = {1};
    cycle.fail(0, std::string("timed out: ") + e.what());
    return cycle;
  }
}

/// FNV-1a over the physics outputs -- every row cell but the wall-clock
/// columns the registry ignores, plus per-operation detail: equal digests
/// mean identical outputs.
std::string physicsDigest(const Cycle& cycle) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  for (const auto& row : cycle.result.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (cycle.result.columns[c].tolerance.ignore) continue;
      mix(row[c].kind == core::ResultValue::Kind::Text ? row[c].text
                                                       : util::jsonNumber(row[c].number));
      mix("|");
    }
  }
  mix(cycle.detail);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string countsJson(const Cycle& cycle) {
  const Counts& c = cycle.counts;
  util::JsonWriter w;
  w.beginObject();
  w.key("attempted").value(cycle.attempted());
  w.key("pulses_applied").value(c.pulsesApplied);
  w.key("attacks").value(c.attacks);
  w.key("attack_pulses_applied").value(c.attackPulsesApplied);
  w.key("attack_pulses_simulated").value(c.attackPulsesSimulated);
  w.key("newton_iterations").value(c.newtonIterations);
  w.key("study_constructions").value(c.studyConstructions);
  w.key("physics_digest").value(physicsDigest(cycle));
  w.endObject();
  return w.str();
}

// ---- run context ------------------------------------------------------------

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The build type libnh was compiled with, as its own result JSON records it.
std::string libraryBuildType() {
  core::ExperimentResult probe;
  probe.name = "build_type_probe";
  const util::JsonValue doc = util::JsonValue::parse(core::toJson(probe));
  const util::JsonValue* type = doc.find("build_type");
  return type != nullptr ? type->asString() : "unknown";
}

std::string contextJson(const Options& options, std::size_t threads) {
  const std::string buildType = libraryBuildType();
  util::JsonWriter w;
  w.beginObject();
  w.key("workload").value(options.workload);
  w.key("seed").value(static_cast<std::size_t>(options.seed));
  w.key("seconds").value(options.seconds);
  w.key("trace").value(options.trace);
  w.key("threads").value(threads);
  w.key("nproc").value(nproc());
  w.key("cpu_model").value(cpuModel());
  w.key("build_type").value(buildType);
  // Numbers from a non-Release library are never compared with Release ones.
  w.key("comparable").value(buildType == "Release");
  w.key("spmv_kernel").value(util::spmv::activeKernelName());
#if defined(__clang__)
  w.key("compiler").value("clang " __clang_version__);
#elif defined(__GNUC__)
  w.key("compiler").value("gcc " __VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
  w.key("commit").value(options.commit);
  w.endObject();
  return w.str();
}

// ---- layer probes -------------------------------------------------------------

/// Times the thunk and returns seconds.
double timed(const std::function<void()>& f) {
  const auto start = Clock::now();
  f();
  return secondsSince(start);
}

/// Median seconds per call of \p pass, which makes \p calls calls. Passes
/// repeat until 50 ms of probing and at least \p minPasses passes;
/// \p prepare runs untimed before each pass.
double probe(const std::function<void()>& pass, std::size_t calls,
             std::size_t minPasses = 5, const std::function<void()>& prepare = {}) {
  std::vector<double> perCall;
  double total = 0.0;
  while (perCall.size() < minPasses || total < 0.05) {
    if (prepare) prepare();
    const double s = timed(pass);
    total += s;
    perCall.push_back(s / static_cast<double>(calls));
  }
  return median(perCall);
}

/// Per-call probes of the compact model, the crosstalk hub, the detector and
/// the line-network Schur solve against the subject's live array, at the
/// workload's own operating point (the first aggressor's hammer bias: about
/// V on the aggressor, V/2 on half-selected cells, near 0 V elsewhere).
void probeLayers(const Workload& w, std::uint64_t seed,
                 std::map<std::string, double>& m, double& sink) {
  const Subject& s = w.subject();
  const xbar::CrossbarArray& array = *s.bench.array;
  const xbar::FastEngine& engine = *s.bench.engine;
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  const std::size_t cells = rows * cols;
  const xbar::CellCoord agg = s.attack.aggressors.front();
  const xbar::LineBias bias = xbar::selectBias(s.attack.scheme, rows, cols, agg.row,
                                               agg.col, s.attack.pulse.amplitude);
  // Cell voltages at the hammer bias from one line-network solve on a copy
  // of the live array: the line drivers' drops leave the unselected cells at small
  // but non-zero voltages, as during the attack.
  std::vector<double> volts(cells);
  {
    xbar::CrossbarArray copy = array;
    xbar::FastEngine solved(copy, s.study->alphas(), engine.options());
    solved.applyBias(bias, 1e-15);
    const util::Vector& lines = solved.lastLineVoltages();
    for (std::size_t i = 0; i < cells; ++i) {
      volts[i] = lines[i / cols] - lines[rows + i % cols];
    }
  }
  const auto device = [&](std::size_t i) -> const nh::jart::JartDevice& {
    return array.cell(i / cols, i % cols);
  };
  const auto overCells = [&](const std::function<void(const nh::jart::JartDevice&, double)>& f) {
    return [&, f] {
      for (std::size_t i = 0; i < cells; ++i) f(device(i), volts[i]);
    };
  };
  m["jart.conduction_ns"] = 1e9 * probe(overCells([&](const auto& d, double v) {
    sink += d.model().solveConduction(v, d.nDisc(), d.temperature()).current;
  }), cells);
  m["jart.current_ns"] = 1e9 * probe(overCells([&](const auto& d, double v) {
    sink += d.current(v);
  }), cells);
  m["jart.conductance_ns"] = 1e9 * probe(overCells([&](const auto& d, double v) {
    sink += d.conductance(v);
  }), cells);
  // advance() changes the state: each pass integrates fresh copies.
  const double dt = s.attack.pulse.width /
                    static_cast<double>(engine.options().substepsPerPulse);
  std::vector<nh::jart::JartDevice> copies;
  m["jart.advance_ns"] = 1e9 * probe(
      [&] {
        for (std::size_t i = 0; i < cells; ++i) {
          copies[i].advance(volts[i], dt);
          sink += copies[i].nDisc();
        }
      },
      cells, 5, [&] {
        copies.clear();
        for (std::size_t i = 0; i < cells; ++i) copies.push_back(device(i));
      });

  util::Matrix excess(rows, cols);
  for (std::size_t i = 0; i < cells; ++i) {
    excess(i / cols, i % cols) = device(i).selfExcessTemperature();
  }
  m["xbar.crosstalk.hub_us"] =
      1e6 * probe([&] { sink += engine.hub().inputTemperatures(excess)(0, 0); }, 1);

  // The attack's victim list without the cells that already read LRS: the
  // scan the per-pulse callback makes before the flip.
  const core::BitFlipDetector detector(s.study->config().detector);
  std::vector<xbar::CellCoord> victims = s.attack.victims;
  if (victims.empty()) {
    for (std::size_t i = 0; i < cells; ++i) {
      const xbar::CellCoord cell{i / cols, i % cols};
      if (std::find(s.attack.aggressors.begin(), s.attack.aggressors.end(), cell) ==
          s.attack.aggressors.end()) {
        victims.push_back(cell);
      }
    }
  }
  std::vector<xbar::CellCoord> scanned;
  for (const xbar::CellCoord& v : victims) {
    if (detector.classify(array.cell(v)) != core::ReadState::Lrs) scanned.push_back(v);
  }
  if (scanned.empty()) scanned = victims;
  m["core.detector.first_lrs_us"] = 1e6 * probe([&] {
    sink += detector.firstLrs(array, scanned).has_value() ? 1.0 : 0.0;
  }, 1);

  // Line-network Jacobian at the hammer bias, solved the way the engine's
  // Auto Schur mode picks: dense complement below the crossover,
  // matrix-free CG at or above it.
  const double gDrv = 1.0 / array.config().driverResistance;
  util::Matrix g(rows, cols);
  util::Vector d1(rows, gDrv), d2(cols, gDrv), residual(rows + cols, 0.0), x;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const double current = device(i).current(volts[i]);
    const double gc = std::max(device(i).conductance(volts[i]), 1e-12);
    residual[r] += current;
    residual[rows + c] -= current;
    g(r, c) = gc;
    d1[r] += gc;
    d2[c] += gc;
  }
  const xbar::FastEngineOptions& eo = engine.options();
  const bool iterative =
      eo.schurMode == xbar::FastEngineOptions::SchurMode::Iterative ||
      (eo.schurMode == xbar::FastEngineOptions::SchurMode::Auto &&
       cols >= eo.schurIterativeMinCols);
  util::SchurComplementSolver solver;
  solver.options().mode = util::SchurOptions::Mode::Iterative;
  const auto solveIterative = [&] {
    return solver.solveBanded(util::TridiagonalView::diagonal(d1),
                              util::TridiagonalView::diagonal(d2), g, residual, x);
  };
  m["util.linsolve.schur_us"] = 1e6 * probe([&] {
    const bool ok = iterative ? solveIterative() : solver.solve(d1, d2, g, residual, x);
    if (!ok) throw std::runtime_error("Schur probe: solve failed");
    sink += x.front();
  }, 1);
  // CG iterations of the matrix-free path on this Jacobian, also where the
  // engine takes the dense path at this size.
  if (!iterative && !solveIterative()) {
    throw std::runtime_error("Schur probe: iterative solve failed");
  }
  m["util.linsolve.schur_cg_iters"] =
      static_cast<double>(solver.lastIterative().iterations);

  m["xbar.sneak.margin_s"] = probe([&] {
    sink += xbar::worstCaseReadMargin(s.study->arrayConfig(), 0.2,
                                      xbar::ReadScheme::HalfBias).margin;
  }, 1, 1);

  // One perturbed study plus bench (analytic alphas), as a campaign trial
  // builds it.
  core::StudyConfig perturbed = s.study->config();
  perturbed.useFemAlphas = false;
  util::Rng rng = util::Rng::forStream(seed, 0);
  perturbed.cellParams = perturbed.cellParams.withVariability(rng, 0.10);
  m["core.study.construct_ms"] = 1e3 * probe([&] {
    const core::AttackStudy study(perturbed);
    sink += study.makeBench().array->cell(0, 0).nDisc();
  }, 1);
}

// ---- runs ------------------------------------------------------------------------

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void add(const Cycle& c) {
    attempted += c.attempted();
    failed += c.failed();
    for (const std::string& p : c.problems) problems.push_back(p);
  }
};

void printCycle(const char* label, const Cycle& c) {
  std::printf(
      "perfbench %s: setup %.4f s, run %.4f s, emit %.6f s, wall %.4f s, "
      "ops %zu, failed %zu, pulses %zu\n",
      label, c.setupS, c.runS, c.emitS, c.wallS, c.attempted(), c.failed(),
      c.counts.pulsesApplied);
  std::printf("perfbench counts %s\n", countsJson(c).c_str());
}

double rate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

/// Untraced, time-boxed run: the end-to-end metrics.
std::map<std::string, double> measure(Workload& w, const Options& options,
                                      std::size_t threads, Outcome& outcome) {
  // A set-up dearer than kSetupSampleS is sampled once per cycle. A cheaper
  // one is timed in batches -- one sample is the mean of as many set-ups as
  // fill kSetupSampleS, which keeps timer granularity out of the median --
  // taken before the cycles and between them, so the samples span the run
  // like the cycles do instead of one short burst of machine state.
  w.beginCycle(0);
  std::vector<double> setups;
  const double first = timed([&] { w.setup(nullptr); });
  const bool batched = first < kSetupSampleS;
  std::size_t batch = 1;
  const auto sampleSetups = [&](std::size_t count) {
    for (std::size_t taken = 0; taken < count;) {
      const double s = timed([&] {
        for (std::size_t i = 0; i < batch; ++i) w.setup(nullptr);
      });
      if (s < kSetupSampleS) {
        batch *= 2;
        continue;
      }
      setups.push_back(s / static_cast<double>(batch));
      ++taken;
    }
  };
  if (batched) {
    sampleSetups(kSetupSamplesPerCycle);
  } else {
    setups.push_back(first);
  }

  // A pin must not confine other threads: a thread inherits the affinity
  // of the thread that starts it. The shared pool's workers are started
  // here, before the first pin. A parallelFor at any other thread count
  // starts fresh workers, so such runs stay unpinned unless their cycles use
  // no pool at all.
  std::optional<CpuRotation> rotation;
  if (w.singleThreaded() || threads == util::defaultThreadCount()) {
    util::ThreadPool::shared();
    rotation.emplace();
  }
  std::vector<double> walls, opsRate;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (rotation) rotation->pin(k);
    w.beginCycle(k);
    const Cycle c = runCycleBounded(w, options, threads, nullptr);
    printCycle("cycle", c);
    outcome.add(c);
    walls.push_back(c.wallS);
    opsRate.push_back(rate(static_cast<double>(c.attempted()), c.runS));
    if (batched) {
      sampleSetups(kSetupSamplesPerCycle);
    } else {
      setups.push_back(c.setupS);
    }
    // Start another cycle only when a whole one fits the budget.
    const double elapsed = secondsSince(start);
    if (c.failed() > 0 || elapsed + c.wallS > options.seconds) break;
  }
  while (setups.size() < kMinSetups) setups.push_back(timed([&] { w.setup(nullptr); }));
  return {{"wall_s", median(walls)},
          {"setup_s", median(setups)},
          {"ops_per_s", median(opsRate)},
          {"peak_rss_mb", peakRssMb()}};
}

/// The traced run: per-layer metrics and the trace file.
std::map<std::string, double> measureTraced(Workload& w, const Options& options,
                                            std::size_t threads, Outcome& outcome,
                                            const std::string& context) {
  // The one-thread cycle goes first, so the untraced and traced cycles it is
  // compared with both run on a warmed-up process.
  const Cycle serial = runCycleBounded(w, options, 1, nullptr);
  printCycle("one-thread", serial);
  outcome.add(serial);
  const Cycle plain = runCycleBounded(w, options, threads, nullptr);
  printCycle("untraced", plain);
  outcome.add(plain);
  Tracer tracer;
  const Cycle traced = runCycleBounded(w, options, threads, &tracer);
  printCycle("traced", traced);
  outcome.add(traced);
  if (outcome.failed > 0) return {};
  if (physicsDigest(plain) != physicsDigest(traced)) {
    outcome.failed += traced.attempted();
    outcome.problems.push_back("traced outputs differ from untraced outputs");
  }
  if (physicsDigest(plain) != physicsDigest(serial)) {
    outcome.failed += serial.attempted();
    outcome.problems.push_back("outputs at 1 thread differ from " +
                               std::to_string(threads) + " threads");
  }

  std::map<std::string, double> m;
  double sink = 0.0;
  {
    Span span(&tracer, "perfbench", "layer probes");
    probeLayers(w, options.seed, m, sink);
    const auto [build, extract] = w.femProbe(&tracer);
    m["fem.build_s"] = build;
    m["fem.extract_s"] = extract;
  }
  const Counts& c = traced.counts;
  const double simulated = static_cast<double>(c.attackPulsesSimulated);
  m["xbar.fastsim.pulses_simulated"] = simulated;
  m["xbar.fastsim.batch_ratio"] =
      rate(static_cast<double>(c.attackPulsesApplied), simulated);
  m["xbar.fastsim.newton_iters"] = static_cast<double>(c.newtonIterations);
  m["xbar.fastsim.newton_per_pulse"] =
      rate(static_cast<double>(c.newtonIterations), simulated);
  m["xbar.fastsim.us_per_cell_pulse"] =
      1e6 * rate(c.attackSeconds, simulated * static_cast<double>(c.cellsPerArray));
  m["pulses_per_s"] = rate(static_cast<double>(plain.counts.pulsesApplied), plain.runS);
  m["core.study.constructions"] = static_cast<double>(c.studyConstructions);
  m["util.threadpool.speedup"] = rate(serial.runS, plain.runS);
  m["core.experiment.emit_s"] = traced.emitS;
  m["trace_overhead_frac"] = rate(traced.wallS, plain.wallS) - 1.0;
  const std::map<std::string, double> self = tracer.selfSecondsByLayer();
  for (const char* layer : {"core.study", "core.attack", "core.campaign",
                            "xbar.sneak", "core.experiment"}) {
    const auto it = self.find(layer);
    m[std::string(layer) + ".self_s"] = it == self.end() ? 0.0 : it->second;
  }

  if (!options.traceFile.empty()) {
    fs::create_directories(options.traceFile.parent_path());
    util::JsonWriter probeSink;
    probeSink.beginObject().key("probe_checksum").value(sink).endObject();
    tracer.write(options.traceFile.string(),
                 "{\"context\":" + context + ",\"probes\":" + probeSink.str() + "}");
    std::printf("perfbench trace written to %s\n", options.traceFile.string().c_str());
  }
  return m;
}

/// Unit of every metric the program reports (BENCHMARK.json lists the same).
const char* unitOf(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"pulses_per_s", "1/s"},
      {"jart.conduction_ns", "ns"},
      {"jart.current_ns", "ns"},
      {"jart.conductance_ns", "ns"},
      {"jart.advance_ns", "ns"},
      {"xbar.fastsim.pulses_simulated", "count"},
      {"xbar.fastsim.batch_ratio", "ratio"},
      {"xbar.fastsim.newton_iters", "count"},
      {"xbar.fastsim.newton_per_pulse", "1/pulse"},
      {"xbar.fastsim.us_per_cell_pulse", "us"},
      {"xbar.crosstalk.hub_us", "us"},
      {"core.detector.first_lrs_us", "us"},
      {"util.linsolve.schur_us", "us"},
      {"util.linsolve.schur_cg_iters", "count"},
      {"xbar.sneak.margin_s", "s"},
      {"fem.build_s", "s"},
      {"fem.extract_s", "s"},
      {"core.study.constructions", "count"},
      {"core.study.construct_ms", "ms"},
      {"util.threadpool.speedup", "ratio"},
      {"core.experiment.emit_s", "s"},
      {"trace_overhead_frac", "fraction"},
      {"core.study.self_s", "s"},
      {"core.attack.self_s", "s"},
      {"core.campaign.self_s", "s"},
      {"xbar.sneak.self_s", "s"},
      {"core.experiment.self_s", "s"},
  };
  return units.at(name);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--threads") {
      o.threads = std::stoul(next());
    } else if (a == "--reference-dir") {
      o.referenceDir = next();
    } else if (a == "--trace-file") {
      o.traceFile = next();
    } else if (a == "--commit") {
      o.commit = next();
    } else if (a == "--record-reference") {
      o.record = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.referenceDir.empty()) throw std::invalid_argument("--reference-dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int runMain(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  const std::size_t threads =
      options.threads > 0 ? options.threads : std::min<std::size_t>(4, nproc());
  const std::string context = contextJson(options, threads);
  std::printf("perfbench context %s\n", context.c_str());
  if (context.find("\"comparable\":false") != std::string::npos) {
    std::fprintf(stderr,
                 "perfbench: WARNING: libnh is not a Release build; do not "
                 "compare these numbers with Release numbers\n");
  }
  std::unique_ptr<Workload> w = makeWorkload(options);

  if (options.record) {
    if (options.seed != kDefaultSeed) {
      throw std::invalid_argument("references are recorded at the default seed");
    }
    const Cycle c = runCycle(*w, options, threads, nullptr);
    printCycle("record", c);
    if (!c.failedRows.empty()) throw std::runtime_error("a reference row failed");
    std::printf("perfbench reference written to %s\n",
                core::writeBaseline(c.result, options.referenceDir).string().c_str());
    return 0;
  }

  Outcome outcome;
  const std::map<std::string, double> metrics =
      options.trace ? measureTraced(*w, options, threads, outcome, context)
                    : measure(*w, options, threads, outcome);
  for (const std::string& p : outcome.problems) {
    std::printf("perfbench FAILED %s\n", p.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.problems.empty();
  util::JsonWriter out;
  out.beginObject();
  out.key("correct").value(correct);
  out.key("attempted").value(outcome.attempted);
  out.key("failed").value(outcome.failed);
  out.key("metrics").beginObject();
  for (const auto& [name, value] : metrics) {
    out.key(name).beginObject();
    out.key("value").value(value);
    out.key("unit").value(unitOf(name));
    out.endObject();
  }
  out.endObject();
  out.endObject();
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nh_perfbench: %s\n", e.what());
    return 2;
  }
}
