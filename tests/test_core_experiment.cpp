#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "fem/diffusion.hpp"
#include "jart/params.hpp"
#include "util/cancellation.hpp"
#include "xbar/fastsim.hpp"

namespace nh::core {
namespace {

/// ---- config equality (the study-dedup cache key) -------------------------

TEST(ConfigEquality, DefaultConstructedPairsCompareEqual) {
  EXPECT_EQ(StudyConfig{}, StudyConfig{});
  EXPECT_EQ(DetectorConfig{}, DetectorConfig{});
  EXPECT_EQ(fem::DiffusionOptions{}, fem::DiffusionOptions{});
  EXPECT_EQ(xbar::FastEngineOptions{}, xbar::FastEngineOptions{});
  EXPECT_EQ(jart::Params::paperDefaults(), jart::Params::paperDefaults());
}

TEST(ConfigEquality, PerturbedFieldBreaksEquality) {
  StudyConfig a;
  StudyConfig b;
  b.spacing = 10e-9;
  EXPECT_NE(a, b);

  StudyConfig c;
  c.cellParams.activationEnergySet += 1e-3;  // nested jart::Params member
  EXPECT_NE(a, c);

  StudyConfig d;
  d.femOptions.relTol *= 10.0;  // nested fem::DiffusionOptions member
  EXPECT_NE(a, d);

  StudyConfig e;
  e.engineOptions.batchDriftLimit *= 2.0;  // nested FastEngineOptions member
  EXPECT_NE(a, e);

  StudyConfig f;
  f.detector.rHrsMin *= 2.0;  // nested DetectorConfig member
  EXPECT_NE(a, f);

  DetectorConfig g;
  g.readVoltage = 0.3;
  EXPECT_NE(DetectorConfig{}, g);

  fem::DiffusionOptions h;
  h.maxIterations += 1;
  EXPECT_NE(fem::DiffusionOptions{}, h);

  xbar::FastEngineOptions i;
  i.schurIterativeMinCols += 1;
  EXPECT_NE(xbar::FastEngineOptions{}, i);

  jart::Params j = jart::Params::paperDefaults();
  j.rFilament *= 1.01;
  EXPECT_NE(jart::Params::paperDefaults(), j);
}

/// ---- engine mechanics (no studies involved) ------------------------------

/// Two-axis spec whose run function just echoes its slot and values; used
/// to pin down the row-major cross-product order and the override plumbing.
ExperimentSpec echoSpec() {
  ExperimentSpec spec;
  spec.name = "echo";
  spec.buildStudies = false;
  spec.axes = {{"outer", {1.0, 2.0}, {}, {}}, {"inner", {10.0, 20.0, 30.0}, {}, {}}};
  spec.columns = {{"index", "", {}}, {"outer", "", {}}, {"inner", "", {}}};
  spec.run = [](const PointContext& ctx) {
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(ctx.index)),
        ResultValue::num(ctx.value("outer")),
        ResultValue::num(ctx.value("inner"))};
  };
  return spec;
}

TEST(ExperimentEngine, CrossProductIsRowMajorFirstAxisOutermost) {
  const ExperimentResult result = runExperiment(echoSpec());
  ASSERT_EQ(result.rows.size(), 6u);
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto& row = result.rows[o * 3 + i];
      EXPECT_EQ(row[0].number, static_cast<double>(o * 3 + i));
      EXPECT_EQ(row[1].number, (o + 1) * 1.0);
      EXPECT_EQ(row[2].number, (i + 1) * 10.0);
    }
  }
  EXPECT_EQ(result.studiesConstructed, 0u);  // buildStudies = false
  ASSERT_EQ(result.axes.size(), 2u);
  EXPECT_EQ(result.axes[0].name, "outer");
  EXPECT_EQ(result.axes[1].values, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(ExperimentEngine, AxisOverrideReplacesValuesAndUnknownAxisThrows) {
  RunOptions options;
  options.axisOverrides["inner"] = {99.0};
  const ExperimentResult result = runExperiment(echoSpec(), options);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][2].number, 99.0);
  EXPECT_EQ(result.rows[1][1].number, 2.0);

  RunOptions bad;
  bad.axisOverrides["no_such_axis"] = {1.0};
  EXPECT_THROW(runExperiment(echoSpec(), bad), std::out_of_range);

  RunOptions empty;
  empty.axisOverrides["inner"] = {};
  EXPECT_THROW(runExperiment(echoSpec(), empty), std::invalid_argument);
}

/// The CLI surfaces this message verbatim: a mistyped --set axis must name
/// every valid axis, not leave the user guessing (and must never be
/// silently ignored).
TEST(ExperimentEngine, UnknownAxisErrorListsTheValidAxes) {
  RunOptions bad;
  bad.axisOverrides["no_such_axis"] = {1.0};
  try {
    runExperiment(echoSpec(), bad);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_axis"), std::string::npos);
    EXPECT_NE(what.find("outer"), std::string::npos);
    EXPECT_NE(what.find("inner"), std::string::npos);
  }
}

TEST(ExperimentEngine, FastModeUsesAxisSubsetsAndShrunkBudget) {
  ExperimentSpec spec = echoSpec();
  spec.axes[1].fastValues = {20.0};
  spec.maxPulses = 1000;
  spec.fastMaxPulses = 10;
  std::size_t seenBudget = 0;
  spec.run = [&seenBudget](const PointContext& ctx) {
    seenBudget = ctx.maxPulses;
    return std::vector<ResultValue>{ResultValue::num(0.0),
                                    ResultValue::num(ctx.value("outer")),
                                    ResultValue::num(ctx.value("inner"))};
  };
  RunOptions options;
  options.fast = true;
  options.threads = 1;
  const ExperimentResult result = runExperiment(spec, options);
  EXPECT_EQ(result.rows.size(), 2u);  // 2 outer x 1 fast inner
  EXPECT_EQ(seenBudget, 10u);
  EXPECT_TRUE(result.fast);
}

TEST(ExperimentEngine, RowWidthMismatchThrows) {
  ExperimentSpec spec = echoSpec();
  spec.run = [](const PointContext&) {
    return std::vector<ResultValue>{ResultValue::num(0.0)};  // 1 cell, 3 columns
  };
  RunOptions options;
  options.threads = 1;
  EXPECT_THROW(runExperiment(spec, options), std::runtime_error);
}

TEST(ExperimentEngine, DigestIsStableAndInputSensitive) {
  const std::string digest = configDigest(echoSpec(), {});
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest, configDigest(echoSpec(), {}));

  ExperimentSpec other = echoSpec();
  other.base.spacing = 10e-9;
  EXPECT_NE(digest, configDigest(other, {}));

  RunOptions override1;
  override1.axisOverrides["inner"] = {99.0};
  EXPECT_NE(digest, configDigest(echoSpec(), override1));
}

/// ---- study-dedup cache + determinism over real attacks -------------------

/// Small, fast two-axis grid: tight spacing flips in O(10^2..10^3) pulses.
ExperimentSpec attackGridSpec() {
  ExperimentSpec spec;
  spec.name = "attack_grid";
  spec.base.rows = 3;
  spec.base.cols = 3;
  spec.maxPulses = 100'000;
  spec.axes = {{"spacing",
                {10e-9, 20e-9},
                {},
                [](StudyConfig& cfg, double v) { cfg.spacing = v; }},
               {"width", {50e-9, 80e-9}, {}, {}}};
  spec.columns = {{"spacing_nm", "", {}},
                  {"pulse_length_ns", "", {}},
                  {"pulses", "", {}},
                  {"flipped", "", {}}};
  spec.run = [](const PointContext& ctx) {
    HammerPulse pulse;
    pulse.width = ctx.value("width");
    const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("spacing") * 1e9),
        ResultValue::num(pulse.width * 1e9),
        ResultValue::num(static_cast<double>(r.pulsesToFlip)),
        ResultValue::boolean(r.flipped)};
  };
  return spec;
}

TEST(ExperimentEngine, TwoAxisGridConstructsOneStudyPerUniqueConfig) {
  clearStudyCache();  // cold start: earlier tests may have warmed the cache
  const std::size_t before = AttackStudy::constructionCount();
  const ExperimentResult result = runExperiment(attackGridSpec(), {});
  const std::size_t built = AttackStudy::constructionCount() - before;

  // 2 spacings x 2 widths = 4 points, but the width axis has no StudyConfig
  // setter, so the dedup cache must build exactly one study per spacing.
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(built, 2u);
  EXPECT_EQ(result.studiesConstructed, 2u);
  EXPECT_EQ(result.studiesReused, 0u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[3].number, 1.0) << "point did not flip within budget";
  }
}

/// The study cache is process-wide: a second run of the same grid (and any
/// other experiment sharing a config) must construct zero new studies and
/// still return bit-identical rows.
TEST(ExperimentEngine, ProcessWideCacheServesRepeatRunsWarm) {
  clearStudyCache();
  const ExperimentResult cold = runExperiment(attackGridSpec(), {});
  EXPECT_EQ(cold.studiesReused, 0u);
  EXPECT_EQ(studyCacheSize(), 2u);

  const std::size_t before = AttackStudy::constructionCount();
  const ExperimentResult warm = runExperiment(attackGridSpec(), {});
  EXPECT_EQ(AttackStudy::constructionCount(), before) << "cache missed";
  EXPECT_EQ(warm.studiesConstructed, 2u);
  EXPECT_EQ(warm.studiesReused, 2u);
  EXPECT_EQ(warm.rows, cold.rows);

  clearStudyCache();
  EXPECT_EQ(studyCacheSize(), 0u);
}

/// The process-wide cache is LRU-bounded: capacity caps the entry count,
/// shrinking evicts immediately, and the *least recently used* study is the
/// one to go -- a recently re-touched entry must survive an insert at
/// capacity.
TEST(ExperimentEngine, StudyCacheIsLruBounded) {
  clearStudyCache();
  const std::size_t defaultCapacity = studyCacheCapacity();
  EXPECT_GE(defaultCapacity, 2u);

  // Warm the cache with the two unique studies of the attack grid.
  runExperiment(attackGridSpec(), {});
  ASSERT_EQ(studyCacheSize(), 2u);

  // Shrinking the capacity below the population evicts immediately.
  setStudyCacheCapacity(1);
  EXPECT_EQ(studyCacheCapacity(), 1u);
  EXPECT_EQ(studyCacheSize(), 1u);

  // With room for one study, the two-study grid must stay bounded (the
  // second insert evicts the first) and still produce correct rows: every
  // point re-runs against a freshly built study when its entry is gone.
  const std::size_t before = AttackStudy::constructionCount();
  const ExperimentResult bounded = runExperiment(attackGridSpec(), {});
  EXPECT_EQ(studyCacheSize(), 1u);
  EXPECT_GT(AttackStudy::constructionCount(), before);
  for (const auto& row : bounded.rows) {
    EXPECT_EQ(row[3].number, 1.0) << "point did not flip within budget";
  }

  // Restore a roomy capacity and check LRU recency: re-running the grid
  // touches both entries, so they must both survive further activity below
  // the cap.
  setStudyCacheCapacity(defaultCapacity);
  clearStudyCache();
  runExperiment(attackGridSpec(), {});
  const ExperimentResult warm = runExperiment(attackGridSpec(), {});
  EXPECT_EQ(warm.studiesReused, 2u);

  // Capacity is clamped to >= 1 so the cache never degenerates to "throw
  // on insert".
  setStudyCacheCapacity(0);
  EXPECT_EQ(studyCacheCapacity(), 1u);
  setStudyCacheCapacity(defaultCapacity);
  clearStudyCache();
}

TEST(ExperimentEngine, SerialAndParallelRunsAreBitIdentical) {
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const ExperimentResult a = runExperiment(attackGridSpec(), serial);
  const ExperimentResult b = runExperiment(attackGridSpec(), parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.rows, b.rows);  // ResultValue::operator== is exact
  EXPECT_EQ(a.pointValues, b.pointValues);
  EXPECT_EQ(a.configDigest, b.configDigest);
}

/// ---- shaped results (trace / matrix / pivot) -----------------------------

/// One-axis spec whose rows carry a scalar, a trace, and nothing else.
ExperimentSpec traceSpec() {
  ExperimentSpec spec;
  spec.name = "trace_echo";
  spec.buildStudies = false;
  spec.axes = {{"x", {1.0, 2.0}, {}, {}}};
  spec.columns = {{"x", "", {}},
                  {"series", "", {}, ColumnSpec::Shape::Trace}};
  spec.run = [](const PointContext& ctx) {
    const double x = ctx.value("x");
    return std::vector<ResultValue>{
        ResultValue::num(x), ResultValue::trace({x, 10.0 * x, 100.0 * x})};
  };
  return spec;
}

ExperimentSpec matrixSpec() {
  ExperimentSpec spec;
  spec.name = "matrix_echo";
  spec.buildStudies = false;
  spec.axes = {{"x", {3.0}, {}, {}}};
  spec.columns = {{"x", "", {}},
                  {"grid", "", {}, ColumnSpec::Shape::Matrix}};
  spec.run = [](const PointContext& ctx) {
    const double x = ctx.value("x");
    return std::vector<ResultValue>{
        ResultValue::num(x),
        ResultValue::matrix(2, 3, {x, x + 1, x + 2, x + 3, x + 4, x + 5})};
  };
  return spec;
}

TEST(ShapedResults, TraceRowsExpandToLongFormCsv) {
  const ExperimentResult result = runExperiment(traceSpec(), {});
  const auto csv = toCsvTable(result);
  // 2 points x 3 samples, with a leading sample index column; the scalar
  // cell repeats on every expanded line.
  ASSERT_EQ(csv.rowCount(), 6u);
  EXPECT_EQ(csv.header()[0], "sample");
  EXPECT_EQ(csv.header()[2], "series");
  EXPECT_EQ(csv.cellAsDouble(0, 0), 0.0);
  EXPECT_EQ(csv.cellAsDouble(2, 0), 2.0);
  EXPECT_EQ(csv.cellAsDouble(2, 1), 1.0);   // scalar repeated
  EXPECT_EQ(csv.cellAsDouble(2, 2), 100.0); // third sample of the first point
  EXPECT_EQ(csv.cellAsDouble(5, 2), 200.0);
}

TEST(ShapedResults, MatrixRowsExpandWithRowColIndexColumns) {
  const ExperimentResult result = runExperiment(matrixSpec(), {});
  const auto csv = toCsvTable(result);
  ASSERT_EQ(csv.rowCount(), 6u);  // one 2x3 matrix
  EXPECT_EQ(csv.header()[0], "row");
  EXPECT_EQ(csv.header()[1], "col");
  EXPECT_EQ(csv.cellAsDouble(4, 0), 1.0);  // element 4 -> (1, 1)
  EXPECT_EQ(csv.cellAsDouble(4, 1), 1.0);
  EXPECT_EQ(csv.cellAsDouble(4, 3), 7.0);  // 3 + 4
}

TEST(ShapedResults, JsonEncodesShapedCellsAndShapes) {
  const std::string traceJson = toJson(runExperiment(traceSpec(), {}));
  EXPECT_NE(traceJson.find("\"column_shapes\":[\"scalar\",\"trace\"]"),
            std::string::npos);
  EXPECT_NE(traceJson.find("{\"shape\":\"trace\",\"values\":[1,10,100]}"),
            std::string::npos);

  const std::string matrixJson = toJson(runExperiment(matrixSpec(), {}));
  EXPECT_NE(matrixJson.find("{\"shape\":\"matrix\",\"rows\":2,\"cols\":3,"
                            "\"values\":[3,4,5,6,7,8]}"),
            std::string::npos);
}

TEST(ShapedResults, AsciiRendersTraceLinesAndMatrixGrids) {
  const auto traceTables = toAsciiTables(runExperiment(traceSpec(), {}));
  ASSERT_EQ(traceTables.size(), 1u);
  const std::string traceAscii = traceTables[0].render();
  EXPECT_NE(traceAscii.find("100"), std::string::npos);

  const auto matrixTables = toAsciiTables(runExperiment(matrixSpec(), {}));
  // Main table (scalar column) + one grid per matrix cell.
  ASSERT_EQ(matrixTables.size(), 2u);
  const std::string grid = matrixTables[1].render();
  EXPECT_NE(grid.find("row\\col"), std::string::npos);
  EXPECT_NE(grid.find("8"), std::string::npos);
}

TEST(ShapedResults, ShapeMismatchedCellThrows) {
  ExperimentSpec spec = traceSpec();
  spec.run = [](const PointContext& ctx) {
    // Scalar where the column declares Trace.
    return std::vector<ResultValue>{ResultValue::num(ctx.value("x")),
                                    ResultValue::num(0.0)};
  };
  RunOptions options;
  options.threads = 1;
  EXPECT_THROW(runExperiment(spec, options), std::runtime_error);

  // Text placeholders are allowed in shaped columns ("-" convention).
  ExperimentSpec placeholder = traceSpec();
  placeholder.run = [](const PointContext& ctx) {
    return std::vector<ResultValue>{ResultValue::num(ctx.value("x")),
                                    ResultValue::str("-")};
  };
  EXPECT_EQ(runExperiment(placeholder, options).rows.size(), 2u);
}

TEST(ShapedResults, PivotRendersARowByColumnGrid) {
  ExperimentSpec spec = echoSpec();
  spec.pivot.rowAxis = "outer";
  spec.pivot.colAxis = "inner";
  spec.pivot.valueColumn = "index";
  spec.pivot.title = "pivoted";
  const auto tables = toAsciiTables(runExperiment(spec, {}));
  ASSERT_EQ(tables.size(), 2u);  // main + pivot
  const std::string pivot = tables[1].render();
  EXPECT_NE(pivot.find("outer \\ inner"), std::string::npos);
  EXPECT_NE(pivot.find("pivoted"), std::string::npos);

  ExperimentSpec bad = echoSpec();
  bad.pivot.rowAxis = "outer";
  bad.pivot.colAxis = "no_such_axis";
  bad.pivot.valueColumn = "index";
  EXPECT_THROW(toAsciiTables(runExperiment(bad, {})), std::logic_error);
}

TEST(ExperimentEngine, ResultSinkEmitsConsistentAsciiCsvJson) {
  const ExperimentResult result = runExperiment(echoSpec(), {});
  const auto csv = toCsvTable(result);
  EXPECT_EQ(csv.rowCount(), result.rows.size());
  EXPECT_EQ(csv.columnCount(), result.columns.size());
  EXPECT_EQ(csv.header()[0], "index");

  const std::string ascii = toAsciiTable(result).render();
  EXPECT_NE(ascii.find("outer"), std::string::npos);

  const std::string json = toJson(result);
  EXPECT_NE(json.find("\"experiment\":\"echo\""), std::string::npos);
  EXPECT_NE(json.find("\"config_digest\":\"" + result.configDigest + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rows\":[["), std::string::npos);
}

/// ---- fault tolerance: isolation, retries, cancellation, resume -----------

/// echoSpec variant whose run function throws at one serial index.
ExperimentSpec failingSpec(std::size_t failIndex) {
  ExperimentSpec spec = echoSpec();
  spec.run = [failIndex](const PointContext& ctx) {
    if (ctx.index == failIndex) {
      throw std::runtime_error("injected point failure");
    }
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(ctx.index)),
        ResultValue::num(ctx.value("outer")),
        ResultValue::num(ctx.value("inner"))};
  };
  return spec;
}

TEST(FaultTolerance, SkipPolicyIsolatesTheFailedPoint) {
  RunOptions options;
  options.onPointFailure = PointFailurePolicy::Skip;
  const ExperimentResult degraded = runExperiment(failingSpec(2), options);
  const ExperimentResult clean = runExperiment(echoSpec(), {});

  ASSERT_EQ(degraded.rows.size(), 6u);
  ASSERT_EQ(degraded.outcomes.size(), 6u);
  EXPECT_EQ(degraded.pointsFailed, 1u);
  EXPECT_EQ(degraded.pointsOk, 5u);
  EXPECT_FALSE(degraded.complete());
  EXPECT_EQ(degraded.outcomes[2].status, PointOutcome::Status::Failed);
  EXPECT_NE(degraded.outcomes[2].error.find("injected point failure"),
            std::string::npos);

  // The failed row holds "-" placeholders; every other row is bit-identical
  // to the fault-free run.
  for (const auto& cell : degraded.rows[2]) {
    EXPECT_EQ(cell, ResultValue::str("-"));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(degraded.rows[i], clean.rows[i]) << "row " << i;
  }
}

TEST(FaultTolerance, AbortPolicyStillThrowsAfterRetriesExhaust) {
  RunOptions options;
  options.threads = 1;
  options.pointRetries = 2;
  EXPECT_THROW(runExperiment(failingSpec(1), options), std::runtime_error);
}

TEST(FaultTolerance, RetriesRecoverATransientFailure) {
  ExperimentSpec spec = echoSpec();
  auto attempts = std::make_shared<std::atomic<int>>(0);
  spec.run = [attempts](const PointContext& ctx) {
    if (ctx.index == 1 && attempts->fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(ctx.index)),
        ResultValue::num(ctx.value("outer")),
        ResultValue::num(ctx.value("inner"))};
  };
  RunOptions options;
  options.pointRetries = 1;
  const ExperimentResult result = runExperiment(spec, options);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.pointsOk, 6u);
  EXPECT_EQ(result.outcomes[1].status, PointOutcome::Status::Ok);
  EXPECT_EQ(result.outcomes[1].attempts, 2u);
  EXPECT_EQ(result.outcomes[0].attempts, 1u);
}

TEST(FaultTolerance, DegradedSinksGrowAStatusColumnCompleteOnesDoNot) {
  RunOptions options;
  options.onPointFailure = PointFailurePolicy::Skip;
  const ExperimentResult degraded = runExperiment(failingSpec(2), options);
  const ExperimentResult clean = runExperiment(echoSpec(), {});

  const auto degradedCsv = toCsvTable(degraded);
  const auto cleanCsv = toCsvTable(clean);
  ASSERT_EQ(degradedCsv.columnCount(), cleanCsv.columnCount() + 1);
  EXPECT_EQ(degradedCsv.header().back(), "status");
  EXPECT_EQ(degradedCsv.cell(2, degradedCsv.columnCount() - 1), "failed");
  EXPECT_EQ(degradedCsv.cell(0, degradedCsv.columnCount() - 1), "ok");

  const std::string ascii = toAsciiTable(degraded).render();
  EXPECT_NE(ascii.find("status"), std::string::npos);
  EXPECT_NE(ascii.find("failed"), std::string::npos);
  EXPECT_EQ(toAsciiTable(clean).render().find("status"), std::string::npos);

  const std::string json = toJson(degraded);
  EXPECT_NE(json.find("\"points_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
  EXPECT_NE(json.find("\"row_status\":[\"ok\",\"ok\",\"failed\""),
            std::string::npos);
  const std::string cleanJson = toJson(clean);
  EXPECT_NE(cleanJson.find("\"complete\":true"), std::string::npos);
  EXPECT_EQ(cleanJson.find("row_status"), std::string::npos);
}

TEST(FaultTolerance, CancelMidRunMarksPendingPointsAndKeepsDoneRows) {
  nh::util::CancellationSource source;
  ExperimentSpec spec = echoSpec();
  RunOptions options;
  options.threads = 1;  // serial: settle order == index order
  options.cancel = source.token();
  options.onPointComplete = [&](std::size_t, const PointOutcome&,
                                std::size_t completed) {
    if (completed == 2) source.cancel();
  };
  const ExperimentResult result = runExperiment(spec, options);
  EXPECT_EQ(result.pointsOk, 2u);
  EXPECT_EQ(result.pointsCancelled, 4u);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.outcomes[0].status, PointOutcome::Status::Ok);
  EXPECT_EQ(result.outcomes[3].status, PointOutcome::Status::Cancelled);
  EXPECT_EQ(result.rows[1][0].number, 1.0);          // kept
  EXPECT_EQ(result.rows[4][0], ResultValue::str("-"));  // never ran
}

TEST(FaultTolerance, ExpiredDeadlineMapsToTimedOut) {
  RunOptions options;
  options.threads = 1;
  options.cancel = nh::util::CancellationSource::withDeadline(-1.0).token();
  const ExperimentResult result = runExperiment(echoSpec(), options);
  EXPECT_EQ(result.pointsOk, 0u);
  EXPECT_EQ(result.pointsCancelled, 6u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.status, PointOutcome::Status::TimedOut);
  }
  const auto csv = toCsvTable(result);
  EXPECT_EQ(csv.cell(0, csv.columnCount() - 1), "timed-out");
}

TEST(FaultTolerance, CancelThenResumeIsBitIdenticalToAnUninterruptedRun) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "nh_ckpt_echo";
  std::filesystem::remove_all(dir);

  // Uninterrupted serial reference.
  RunOptions serial;
  serial.threads = 1;
  const ExperimentResult reference = runExperiment(echoSpec(), serial);

  // Interrupted run: cancel once three points have settled.
  nh::util::CancellationSource source;
  RunOptions interrupted;
  interrupted.threads = 1;
  interrupted.cancel = source.token();
  interrupted.checkpointDir = dir;
  interrupted.onPointComplete = [&](std::size_t, const PointOutcome&,
                                    std::size_t completed) {
    if (completed == 3) source.cancel();
  };
  const ExperimentResult partial = runExperiment(echoSpec(), interrupted);
  EXPECT_EQ(partial.pointsOk, 3u);
  EXPECT_FALSE(partial.complete());
  EXPECT_TRUE(std::filesystem::exists(checkpointPath(dir, "echo")));

  // Resume: the three checkpointed points are restored, the rest run.
  RunOptions resumed;
  resumed.threads = 1;
  resumed.checkpointDir = dir;
  resumed.resume = true;
  const ExperimentResult result = runExperiment(echoSpec(), resumed);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.pointsResumed, 3u);
  EXPECT_EQ(result.pointsOk, 6u);
  EXPECT_EQ(result.rows, reference.rows);
  EXPECT_EQ(result.pointValues, reference.pointValues);
  // A completed run owes nobody a checkpoint.
  EXPECT_FALSE(std::filesystem::exists(checkpointPath(dir, "echo")));
  // And its sinks carry no status column: resumed-but-complete renders
  // byte-identically to the uninterrupted run.
  EXPECT_EQ(toAsciiTable(result).render(), toAsciiTable(reference).render());
}

TEST(FaultTolerance, MismatchedDigestInvalidatesTheCheckpoint) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "nh_ckpt_digest";
  std::filesystem::remove_all(dir);

  nh::util::CancellationSource source;
  RunOptions interrupted;
  interrupted.threads = 1;
  interrupted.cancel = source.token();
  interrupted.checkpointDir = dir;
  interrupted.onPointComplete = [&](std::size_t, const PointOutcome&,
                                    std::size_t completed) {
    if (completed == 2) source.cancel();
  };
  runExperiment(echoSpec(), interrupted);
  ASSERT_TRUE(std::filesystem::exists(checkpointPath(dir, "echo")));

  // A different grid (axis override) changes the digest: nothing resumes.
  RunOptions other;
  other.threads = 1;
  other.checkpointDir = dir;
  other.resume = true;
  other.axisOverrides["inner"] = {10.0, 20.0};
  const ExperimentResult result = runExperiment(echoSpec(), other);
  EXPECT_EQ(result.pointsResumed, 0u);
  EXPECT_TRUE(result.complete());
}

TEST(FaultTolerance, CheckpointWriteFailureDegradesInsteadOfAborting) {
  // A regular file where the checkpoint directory should go: every write
  // attempt fails at create_directories. Checkpointing must degrade (warn
  // and disable) -- a checkpoint I/O error is a resumability problem, never
  // a reason to lose the partial result of an otherwise healthy run.
  const std::filesystem::path blocker =
      std::filesystem::path(::testing::TempDir()) / "nh_ckpt_blocker";
  std::filesystem::remove_all(blocker);
  {
    std::ofstream out(blocker);
    out << "not a directory\n";
  }

  nh::util::CancellationSource source;
  RunOptions options;
  options.threads = 1;
  options.cancel = source.token();
  options.checkpointDir = blocker / "checkpoints";  // parent is a file
  options.onPointComplete = [&](std::size_t, const PointOutcome&,
                                std::size_t completed) {
    if (completed == 2) source.cancel();
  };
  const ExperimentResult result = runExperiment(echoSpec(), options);
  EXPECT_EQ(result.pointsOk, 2u);
  EXPECT_FALSE(result.complete());
  EXPECT_FALSE(
      std::filesystem::exists(checkpointPath(options.checkpointDir, "echo")));
}

}  // namespace
}  // namespace nh::core
