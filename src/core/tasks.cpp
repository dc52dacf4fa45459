#include "core/tasks.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "util/annotations.hpp"
#include "util/faultinject.hpp"
#include "util/threadpool.hpp"

namespace nh::core {

const char* pointStatusName(PointOutcome::Status status) {
  switch (status) {
    case PointOutcome::Status::Pending: return "pending";
    case PointOutcome::Status::Failed: return "failed";
    case PointOutcome::Status::Cancelled: return "cancelled";
    case PointOutcome::Status::TimedOut: return "timed-out";
    case PointOutcome::Status::Resumed: return "resumed";
    case PointOutcome::Status::Ok: break;
  }
  return "ok";
}

void runIndexedTasks(const std::vector<std::size_t>& indices, const TaskPlan& plan,
                     const std::function<void(std::size_t)>& task,
                     const std::function<void(std::size_t, PointOutcome)>& settle) {
  if (plan.grain == 0) throw std::invalid_argument("runIndexedTasks: grain must be > 0");
  util::Mutex settleMutex;

  const auto runOne = [&](std::size_t i) {
    // The label names the index in the fault-injection scope (so
    // NH_FAULT=linsolve.dense_lu:1@point:2 fails exactly one grid point at
    // any thread count) and in the cancellation message.
    const std::string where = std::string(plan.label) + ":" + std::to_string(i);
    PointOutcome outcome;
    std::exception_ptr lastError;
    for (std::size_t attempt = 1; attempt <= 1 + plan.retries; ++attempt) {
      outcome.attempts = attempt;
      try {
        const util::CancellationScope cancelScope(plan.cancel);
        const util::faultinject::Scope faultScope(where);
        util::checkCancellation(where.c_str());
        task(i);
        outcome.status = PointOutcome::Status::Ok;
        outcome.error.clear();
        break;
      } catch (const util::CancelledError& e) {
        outcome.status = e.deadlineExpired() ? PointOutcome::Status::TimedOut
                                             : PointOutcome::Status::Cancelled;
        outcome.error = e.what();
        break;
      } catch (const std::exception& e) {
        outcome.status = PointOutcome::Status::Failed;
        outcome.error = e.what();
        lastError = std::current_exception();
      }
    }
    if (outcome.status == PointOutcome::Status::Failed &&
        plan.onFailure == PointFailurePolicy::Abort) {
      std::rethrow_exception(lastError);
    }
    const util::MutexLock lock(settleMutex);
    settle(i, std::move(outcome));
  };

  // The cancellation scope is installed inside each attempt, never around
  // the loop: the loop keeps claiming indices, so every pending index
  // settles with a recorded Cancelled outcome instead of the loop aborting.
  const std::size_t count = indices.size();
  util::parallelFor(
      (count + plan.grain - 1) / plan.grain,
      [&](std::size_t item) {
        const std::size_t end = std::min(count, (item + 1) * plan.grain);
        for (std::size_t k = item * plan.grain; k < end; ++k) runOne(indices[k]);
      },
      plan.threads);
}

}  // namespace nh::core
