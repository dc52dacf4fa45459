/// Generic experiment CLI: the command-line front end of the experiment
/// registry and the tracked baseline store -- the one way to run any
/// figure reproduction, ablation or campaign.
///
/// Usage:
///   nh_sweep list
///       List every registered experiment with its one-line summary.
///   nh_sweep run <name> | run-all [options]
///       Run one registered experiment (banner + ASCII tables) or the whole
///       catalog; writes <name>.csv and <name>.json into the output
///       directory. run-all batches the catalog against the process-wide
///       study cache, so experiments sharing a StudyConfig reuse one warm
///       study set.
///   nh_sweep check <name> | check --all [options]
///       Run the experiment(s) and diff the result against the tracked
///       baseline in baselines/ (per-column tolerances, digest-keyed).
///       Non-zero exit and a machine-readable <out>/diffs/<name>.diff.json
///       on any mismatch -- the CI figure-regression gate. With --update,
///       only the out-of-tolerance baselines are re-recorded (in-tolerance
///       files stay byte-identical) and the changes are summarised.
///   nh_sweep record <name> | record --all [options]
///       Run the experiment(s) and (re-)write baselines/<name>.json.
///   nh_sweep describe [--markdown] [--out FILE]
///       Render the self-documenting registry catalog (docs/experiments.md
///       is this output checked in; CI fails when the two drift).
///   nh_sweep help
///       Print the usage. No command or an unknown one prints it to stderr
///       and exits 2.
///
/// Shared options: --fast (or NH_FAST_BENCH=1) selects the shrunk CI-smoke
/// grids; --threads N, --max-pulses N; --set axis=v1,v2,... replaces a
/// named axis's value list (repeatable; unknown axis names are an error
/// listing the valid axes); --out DIR (default NH_RESULTS_DIR or
/// ./bench_results); --baselines DIR (default NH_BASELINE_DIR or
/// ./baselines).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "util/cancellation.hpp"
#include "util/stringutil.hpp"
#include "util/threadpool.hpp"

namespace {

int listExperiments() {
  const auto entries = nh::core::registeredExperiments();
  std::printf("%zu registered experiments:\n\n", entries.size());
  std::size_t width = 0;
  for (const auto& e : entries) width = std::max(width, e.name.size());
  for (const auto& e : entries) {
    std::printf("  %-*s  %s\n", static_cast<int>(width), e.name.c_str(),
                e.summary.c_str());
  }
  std::printf("\nrun one with: nh_sweep run <name> [--fast] "
              "[--set axis=v1,v2,...]\n");
  return 0;
}

/// Parse "axis=v1,v2,..." into an axis-override entry.
void parseAxisOverride(const std::string& arg, nh::core::RunOptions& options) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    throw std::invalid_argument("--set expects axis=v1,v2,... (got '" + arg +
                                "')");
  }
  const std::string axis = arg.substr(0, eq);
  std::vector<double> values;
  for (const auto& token : nh::util::split(arg.substr(eq + 1), ',')) {
    values.push_back(nh::util::parseDouble(nh::util::trim(token),
                                           "--set " + axis));
  }
  options.axisOverrides[axis] = std::move(values);
}

/// Options shared by run / run-all / check / record.
struct CliOptions {
  nh::core::RunOptions run;
  std::filesystem::path outDir = nh::core::defaultResultsDir();
  std::filesystem::path baselineDir = nh::core::defaultBaselineDir();
  bool all = false;              ///< --all (check / record).
  bool update = false;           ///< --update (check): re-record mismatches.
  double deadlineSeconds = 0.0;  ///< --deadline: wall-clock budget (0 = off).
  bool resume = false;           ///< --resume: restart from the checkpoint.
  std::vector<std::string> names;
};

/// Parse everything after the subcommand: positional experiment names plus
/// the shared option set.
CliOptions parseCliOptions(int argc, char** argv, int start) {
  CliOptions cli;
  cli.run.fast = std::getenv("NH_FAST_BENCH") != nullptr;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(what) + " expects a value");
      }
      return argv[++i];
    };
    // Counts accept "5e6"-style doubles but must be non-negative integers
    // (a negative double-to-size_t cast would be undefined behaviour).
    auto nextCount = [&](const char* what, double max) -> std::size_t {
      const double v = nh::util::parseDouble(next(what), what);
      if (!(v >= 0.0) || v > max || v != std::floor(v)) {
        throw std::invalid_argument(std::string(what) +
                                    " expects a non-negative integer");
      }
      return static_cast<std::size_t>(v);
    };
    if (arg == "--fast") {
      cli.run.fast = true;
    } else if (arg == "--threads") {
      // Same oversubscription guard the NH_THREADS path applies.
      cli.run.threads = nh::util::clampThreadCount(
          nextCount("--threads", 1e9), "nh_sweep: --threads ");
    } else if (arg == "--max-pulses") {
      cli.run.maxPulsesOverride = nextCount("--max-pulses", 1e15);
    } else if (arg == "--set") {
      parseAxisOverride(next("--set"), cli.run);
    } else if (arg == "--out") {
      cli.outDir = next("--out");
    } else if (arg == "--baselines") {
      cli.baselineDir = next("--baselines");
    } else if (arg == "--all") {
      cli.all = true;
    } else if (arg == "--update") {
      cli.update = true;
    } else if (arg == "--deadline") {
      cli.deadlineSeconds =
          nh::util::parseDouble(next("--deadline"), "--deadline");
      if (!(cli.deadlineSeconds > 0.0)) {
        throw std::invalid_argument("--deadline expects seconds > 0");
      }
    } else if (arg == "--resume") {
      cli.resume = true;
    } else if (arg == "--retries") {
      cli.run.pointRetries = nextCount("--retries", 100);
    } else if (arg == "--keep-going") {
      cli.run.onPointFailure = nh::core::PointFailurePolicy::Skip;
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else {
      cli.names.push_back(arg);
    }
  }
  return cli;
}

/// Experiment names a subcommand operates on: the positional names, or the
/// whole catalog under --all.
std::vector<std::string> resolveNames(const CliOptions& cli,
                                      const char* command) {
  if (cli.all) {
    if (!cli.names.empty()) {
      throw std::invalid_argument(std::string("nh_sweep ") + command +
                                  ": give experiment names or --all, not both");
    }
    std::vector<std::string> names;
    for (const auto& entry : nh::core::registeredExperiments()) {
      names.push_back(entry.name);
    }
    return names;
  }
  if (cli.names.empty()) {
    throw std::invalid_argument(std::string("nh_sweep ") + command +
                                ": missing experiment name "
                                "(see 'nh_sweep list', or use --all)");
  }
  return cli.names;
}

nh::core::ExperimentResult runOne(const std::string& name,
                                  const CliOptions& cli, bool printTables) {
  const nh::core::ExperimentSpec spec = nh::core::makeExperiment(name);
  nh::core::printBanner(spec);
  nh::core::RunOptions options = cli.run;
  if (options.threads == 0) options.threads = nh::util::defaultThreadCount();
  std::printf("threads: %zu (override with --threads or NH_THREADS)%s\n",
              options.threads, options.fast ? "  [fast mode]" : "");

  // --deadline / --resume turn on checkpointing: completed rows persist
  // across interruptions, keyed by the config digest.
  nh::util::CancellationSource deadline;  // must outlive runExperiment
  if (cli.deadlineSeconds > 0.0 || cli.resume) {
    options.checkpointDir = cli.outDir / "checkpoints";
    options.resume = cli.resume;
  }
  if (cli.deadlineSeconds > 0.0) {
    deadline = nh::util::CancellationSource::withDeadline(cli.deadlineSeconds);
    options.cancel = deadline.token();
    std::printf("deadline: %.3g s (completed rows checkpoint to %s)\n",
                cli.deadlineSeconds,
                nh::core::checkpointPath(options.checkpointDir, name)
                    .string()
                    .c_str());
  }

  const nh::core::ExperimentResult result =
      nh::core::runExperiment(spec, options);
  if (printTables) {
    for (const auto& table : nh::core::toAsciiTables(result)) table.print();
  }
  const auto files = nh::core::writeResultFiles(result, cli.outDir);
  std::printf("nh_sweep: %zu row(s); series written to %s and %s\n"
              "  config digest %s; %zu unique stud%s (%zu from the "
              "process-wide cache)\n",
              result.rows.size(), files.csv.string().c_str(),
              files.json.string().c_str(), result.configDigest.c_str(),
              result.studiesConstructed,
              result.studiesConstructed == 1 ? "y" : "ies",
              result.studiesReused);
  if (result.pointsResumed > 0) {
    std::printf("  resumed %zu point(s) from the checkpoint\n",
                result.pointsResumed);
  }
  if (!result.complete()) {
    const std::size_t total = result.rows.size();
    // runExperiment writes the final checkpoint only when a point finished,
    // so report the file that is actually there.
    const char* checkpointNote = "";
    if (!options.checkpointDir.empty()) {
      checkpointNote = std::filesystem::exists(nh::core::checkpointPath(
                           options.checkpointDir, name))
                           ? "; checkpoint kept, rerun with --resume"
                           : "; no checkpoint written";
    }
    std::printf("nh_sweep: INCOMPLETE -- %zu/%zu point(s) done (%zu failed, "
                "%zu cancelled/timed-out)%s\n",
                result.pointsOk, total, result.pointsFailed,
                result.pointsCancelled, checkpointNote);
  }
  return result;
}

int runCommand(int argc, char** argv, bool all) {
  CliOptions cli = parseCliOptions(argc, argv, 2);
  cli.all = cli.all || all;
  const auto names = resolveNames(cli, all ? "run-all" : "run");
  std::size_t incomplete = 0;
  for (const auto& name : names) {
    if (!runOne(name, cli, /*printTables=*/true).complete()) ++incomplete;
    if (names.size() > 1) std::printf("\n");
  }
  if (names.size() > 1) {
    std::printf("nh_sweep: ran %zu experiments; study cache holds %zu "
                "studies\n",
                names.size(), nh::core::studyCacheSize());
  }
  // Partial results (deadline expiry / failed points) exit nonzero so
  // scripted callers notice; the JSON/CSV and checkpoint were still written.
  return incomplete == 0 ? 0 : 1;
}

int checkCommand(int argc, char** argv) {
  const CliOptions cli = parseCliOptions(argc, argv, 2);
  const auto names = resolveNames(cli, "check");
  std::size_t failures = 0;
  // --update: names whose baseline was re-recorded, with the mismatch kind
  // that triggered it (the end-of-run summary).
  std::vector<std::pair<std::string, std::string>> updated;
  for (const auto& name : names) {
    // One corrupt baseline file (or one throwing experiment) must not
    // abort the gate: report it as a failure and keep checking the rest.
    try {
      const nh::core::ExperimentResult result =
          runOne(name, cli, /*printTables=*/false);
      const nh::core::BaselineCheck check =
          nh::core::checkBaseline(result, cli.baselineDir);
      if (check.passed()) {
        std::printf("CHECK PASS  %-28s %s\n", name.c_str(),
                    check.message.c_str());
        continue;
      }
      if (cli.update) {
        // Re-record only the out-of-tolerance baseline; in-tolerance ones
        // above were left byte-identical.
        const auto path = nh::core::writeBaseline(result, cli.baselineDir);
        updated.emplace_back(name, nh::core::baselineStatusName(check.status));
        std::printf("CHECK UPDATE %-27s [%s] re-recorded %s\n", name.c_str(),
                    nh::core::baselineStatusName(check.status),
                    path.string().c_str());
        continue;
      }
      ++failures;
      std::printf("CHECK FAIL  %-28s [%s] %s\n", name.c_str(),
                  nh::core::baselineStatusName(check.status),
                  check.message.c_str());
      for (std::size_t i = 0; i < check.diffs.size() && i < 10; ++i) {
        const auto& d = check.diffs[i];
        std::printf("  row %zu col %s[%zu]: expected %s, got %s (%s)\n",
                    d.row, d.column.c_str(), d.element, d.expected.c_str(),
                    d.actual.c_str(), d.what.c_str());
      }
      if (check.diffs.size() > 10) {
        std::printf("  ... %zu more (see the diff document)\n",
                    check.diffs.size() - 10);
      }
      // Machine-readable diff for CI artifacts.
      const std::filesystem::path diffDir = cli.outDir / "diffs";
      std::filesystem::create_directories(diffDir);
      const std::filesystem::path diffPath = diffDir / (name + ".diff.json");
      std::ofstream out(diffPath, std::ios::binary);
      out << nh::core::diffJson(result, check) << "\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "nh_sweep check: cannot write %s\n",
                     diffPath.string().c_str());
      } else {
        std::printf("  diff written to %s\n", diffPath.string().c_str());
      }
    } catch (const std::exception& e) {
      ++failures;
      std::printf("CHECK FAIL  %-28s [error] %s\n", name.c_str(), e.what());
    }
  }
  if (cli.update) {
    if (updated.empty()) {
      std::printf("nh_sweep check --update: every baseline already in "
                  "tolerance; nothing re-recorded\n");
    } else {
      std::printf("nh_sweep check --update: re-recorded %zu baseline(s):\n",
                  updated.size());
      for (const auto& [name, reason] : updated) {
        std::printf("  %-28s (%s)\n", name.c_str(), reason.c_str());
      }
    }
  }
  std::printf("nh_sweep check: %zu/%zu experiment(s) match their baselines\n",
              names.size() - failures, names.size());
  return failures == 0 ? 0 : 1;
}

int recordCommand(int argc, char** argv) {
  const CliOptions cli = parseCliOptions(argc, argv, 2);
  const auto names = resolveNames(cli, "record");
  for (const auto& name : names) {
    const nh::core::ExperimentResult result =
        runOne(name, cli, /*printTables=*/false);
    const auto path = nh::core::writeBaseline(result, cli.baselineDir);
    std::printf("baseline recorded: %s (digest %s)\n", path.string().c_str(),
                result.configDigest.c_str());
  }
  return 0;
}

int describeCommand(int argc, char** argv) {
  std::filesystem::path outFile;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--markdown") {
      // The only (and default) format; accepted for self-documenting CLI
      // lines in CI configs and docs.
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--out expects a file path");
      }
      outFile = argv[++i];
    } else {
      throw std::invalid_argument("nh_sweep describe: unknown option '" + arg +
                                  "'");
    }
  }
  const std::string markdown = nh::core::registryMarkdown();
  if (outFile.empty()) {
    std::fputs(markdown.c_str(), stdout);
    return 0;
  }
  if (outFile.has_parent_path()) {
    std::filesystem::create_directories(outFile.parent_path());
  }
  std::ofstream out(outFile, std::ios::binary);
  out << markdown;
  out.flush();
  if (!out) {
    throw std::runtime_error("nh_sweep describe: cannot write " +
                             outFile.string());
  }
  std::printf("nh_sweep: catalog written to %s\n", outFile.string().c_str());
  return 0;
}

const char* kUsage =
    "usage:\n"
    "  nh_sweep list                         list registered experiments\n"
    "  nh_sweep run <name> [options]         run a registered experiment\n"
    "  nh_sweep run-all [options]            run the whole catalog "
    "(batched against the study cache)\n"
    "  nh_sweep check <name>|--all [options] run + diff against the "
    "tracked baseline (exit 1 on mismatch;\n"
    "                                        diff JSON lands in "
    "<out>/diffs/; --update re-records only\n"
    "                                        the out-of-tolerance "
    "baselines and summarises the changes)\n"
    "  nh_sweep record <name>|--all [options]"
    " run + (re-)write baselines/<name>.json\n"
    "  nh_sweep describe [--markdown] [--out FILE]\n"
    "                                        render the registry catalog "
    "(docs/experiments.md)\n"
    "  options:\n"
    "    --fast                              shrunk CI-smoke grids "
    "(also: NH_FAST_BENCH=1)\n"
    "    --threads N                         worker count (default "
    "NH_THREADS / hardware)\n"
    "    --max-pulses N                      override the pulse budget\n"
    "    --set axis=v1,v2,...                replace an axis's values "
    "(repeatable; unknown names error\n"
    "                                        out listing the valid axes)\n"
    "    --out DIR                           output directory (default "
    "NH_RESULTS_DIR / bench_results)\n"
    "    --baselines DIR                     baseline directory (default "
    "NH_BASELINE_DIR / baselines)\n"
    "    --deadline SECONDS                  wall-clock budget; on expiry "
    "the partial result and a\n"
    "                                        checkpoint are written and "
    "the exit code is nonzero\n"
    "    --resume                            skip points a digest-matching "
    "checkpoint already holds\n"
    "    --retries N                         re-run a failed point up to N "
    "times before flagging it\n"
    "    --keep-going                        record failed points as "
    "flagged rows instead of aborting\n";

}  // namespace

int main(int argc, char** argv) try {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "list") return listExperiments();
  if (command == "run") return runCommand(argc, argv, /*all=*/false);
  if (command == "run-all") return runCommand(argc, argv, /*all=*/true);
  if (command == "check") return checkCommand(argc, argv);
  if (command == "record") return recordCommand(argc, argv);
  if (command == "describe") return describeCommand(argc, argv);
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!command.empty()) {
    std::fprintf(stderr, "nh_sweep: unknown command '%s'\n", command.c_str());
  }
  std::fputs(kUsage, stderr);
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "nh_sweep: %s\n", e.what());
  return 1;
}
