#pragma once
/// \file tasks.hpp
/// The one indexed-task runner behind the experiment engine's study builds
/// and grid points and the campaign's trials. Each index runs in isolation:
/// its own cancellation scope, its own fault-injection scope
/// ("<label>:<index>"), a bounded retry loop, and a structured outcome
/// instead of an exception -- unless the failure policy says the run must
/// abort. Every outcome is handed to a settle callback that the runner calls
/// under its own lock, so settle observers run one at a time and see the
/// completions in the order they were counted. See docs/robustness.md.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/cancellation.hpp"

namespace nh::core {

/// What happens to the run when one task throws.
enum class PointFailurePolicy {
  Abort,  ///< Rethrow the original exception at the barrier; the run fails.
  Skip,   ///< Record the task as Failed and keep going.
};

/// Per-index execution record: how the task ended, after how many attempts,
/// and (for non-Ok outcomes) the failure message. Pending is the in-flight
/// default -- a slot whose task has not settled yet; the experiment
/// checkpoint writer must never serialize (or even read) such a row, which
/// is why the default is NOT Ok. Ok and Failed keep the values 0 and 1:
/// outcome digests hash the integer.
struct PointOutcome {
  enum class Status { Ok = 0, Failed = 1, Pending, Cancelled, TimedOut, Resumed };
  Status status = Status::Pending;
  std::string error;         ///< Failure message; empty for Ok/Resumed.
  std::size_t attempts = 1;  ///< Executions of the task (1 + retries used).

  bool ok() const { return status == Status::Ok || status == Status::Resumed; }
  bool operator==(const PointOutcome&) const = default;
};

const char* pointStatusName(PointOutcome::Status status);

/// How runIndexedTasks schedules and guards its tasks.
struct TaskPlan {
  /// Scope label prefix: each attempt of index i runs under
  /// faultinject::Scope("<label>:<i>").
  const char* label = "task";
  std::size_t threads = 0;  ///< As util::parallelFor: 0 = default, 1 = serial in order.
  std::size_t grain = 1;    ///< Consecutive indices per pool work item.
  std::size_t retries = 0;  ///< Extra attempts after a failure (never after a cancel).
  PointFailurePolicy onFailure = PointFailurePolicy::Abort;
  /// Installed as the ambient token around every attempt. A cancelled task
  /// settles Cancelled (TimedOut when the deadline expired), and every index
  /// claimed after the cancel settles the same way without running.
  util::CancellationToken cancel;
};

/// Run task(i) for every i in \p indices on the pool and settle each one:
/// settle(i, outcome) is called once per index, under the runner's lock,
/// after the task's last attempt -- Ok, Cancelled/TimedOut, or (under Skip)
/// Failed. Under Abort a failed index does not settle: its original
/// exception unwinds the loop at the barrier, as util::parallelFor reports
/// it. A task writes only its own index's state; whatever it produced is
/// visible to its settle call, which runs on the same thread.
void runIndexedTasks(const std::vector<std::size_t>& indices, const TaskPlan& plan,
                     const std::function<void(std::size_t)>& task,
                     const std::function<void(std::size_t, PointOutcome)>& settle);

}  // namespace nh::core
