#include "core/tasks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"

namespace nh::core {
namespace {

using Status = PointOutcome::Status;

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

/// Runs the plan and returns every settled outcome by index; a second
/// settle of one index fails the test.
std::map<std::size_t, PointOutcome> run(
    const std::vector<std::size_t>& indices, const TaskPlan& plan,
    const std::function<void(std::size_t)>& task) {
  std::map<std::size_t, PointOutcome> settled;
  runIndexedTasks(indices, plan, task, [&](std::size_t i, PointOutcome outcome) {
    EXPECT_TRUE(settled.emplace(i, std::move(outcome)).second) << "index " << i;
  });
  return settled;
}

TEST(IndexedTasks, SettlesEveryListedIndexOnce) {
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t grain : {1u, 3u}) {
      std::vector<std::atomic<int>> runs(12);
      TaskPlan plan;
      plan.threads = threads;
      plan.grain = grain;
      const auto settled =
          run({0, 2, 3, 7, 11}, plan, [&](std::size_t i) { ++runs[i]; });
      ASSERT_EQ(settled.size(), 5u);
      for (const auto& [i, outcome] : settled) {
        EXPECT_EQ(outcome.status, Status::Ok);
        EXPECT_EQ(outcome.attempts, 1u);
        EXPECT_TRUE(outcome.error.empty());
        EXPECT_EQ(runs[i].load(), 1);
      }
      EXPECT_EQ(runs[1].load(), 0);  // unlisted indices never run
    }
  }
}

TEST(IndexedTasks, SerialRunSettlesInIndexOrder) {
  std::vector<std::size_t> order;
  TaskPlan plan;
  plan.threads = 1;
  runIndexedTasks(iota(6), plan, [](std::size_t) {},
                  [&](std::size_t i, PointOutcome) { order.push_back(i); });
  EXPECT_EQ(order, iota(6));
}

TEST(IndexedTasks, SettleIsSerialised) {
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::size_t settledCount = 0;  // safe only if settle calls never overlap
  TaskPlan plan;
  plan.threads = 4;
  runIndexedTasks(iota(48), plan, [](std::size_t) {},
                  [&](std::size_t, PointOutcome) {
                    if (inside.fetch_add(1) != 0) overlapped = true;
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                    ++settledCount;
                    inside.fetch_sub(1);
                  });
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(settledCount, 48u);
}

TEST(IndexedTasks, EachAttemptRunsUnderItsLabelAndToken) {
  util::CancellationSource source;
  TaskPlan plan;
  plan.label = "trial";
  plan.threads = 2;
  plan.cancel = source.token();
  std::vector<std::string> scopes(4);
  std::vector<int> attached(4, 0);
  run(iota(4), plan, [&](std::size_t i) {
    scopes[i] = util::faultinject::currentScope();
    attached[i] = util::currentCancellation().attached() ? 1 : 0;
  });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scopes[i], "trial:" + std::to_string(i));
    EXPECT_EQ(attached[i], 1);
  }
  EXPECT_EQ(util::faultinject::currentScope(), "");
}

TEST(IndexedTasks, RetriesRunBeforeThePolicy) {
  std::vector<std::atomic<int>> calls(3);
  const auto flaky = [&](std::size_t i) {
    // Index 1 fails its first attempt only; index 2 always fails.
    const int call = calls[i]++;
    if (i == 2 || (i == 1 && call == 0)) {
      throw std::runtime_error("transient " + std::to_string(i));
    }
  };
  TaskPlan plan;
  plan.retries = 2;
  plan.onFailure = PointFailurePolicy::Skip;
  const auto settled = run(iota(3), plan, flaky);
  EXPECT_EQ(settled.at(0).attempts, 1u);
  EXPECT_EQ(settled.at(1).status, Status::Ok);
  EXPECT_EQ(settled.at(1).attempts, 2u);
  EXPECT_TRUE(settled.at(1).error.empty());
  EXPECT_EQ(settled.at(2).status, Status::Failed);
  EXPECT_EQ(settled.at(2).attempts, 3u);
  EXPECT_EQ(settled.at(2).error, "transient 2");
}

TEST(IndexedTasks, AbortRethrowsTheFailureWithoutSettlingIt) {
  TaskPlan plan;
  plan.threads = 1;
  std::vector<std::size_t> settled;
  try {
    runIndexedTasks(
        iota(4), plan,
        [](std::size_t i) {
          if (i == 2) throw std::runtime_error("broken index");
        },
        [&](std::size_t i, PointOutcome) { settled.push_back(i); });
    FAIL() << "Abort must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken index"), std::string::npos);
  }
  // The serial loop stops at the failure, like util::parallelFor.
  EXPECT_EQ(settled, (std::vector<std::size_t>{0, 1}));
}

TEST(IndexedTasks, CancellationSettlesTheRestWithoutRetries) {
  util::CancellationSource source;
  TaskPlan plan;
  plan.threads = 1;
  plan.retries = 3;
  plan.onFailure = PointFailurePolicy::Skip;
  plan.cancel = source.token();
  std::vector<int> runs(5, 0);
  std::map<std::size_t, PointOutcome> settled;
  runIndexedTasks(
      iota(5), plan, [&](std::size_t i) { ++runs[i]; },
      [&](std::size_t i, PointOutcome outcome) {
        settled.emplace(i, std::move(outcome));
        if (i == 1) source.cancel();
      });
  ASSERT_EQ(settled.size(), 5u);
  EXPECT_EQ(settled.at(1).status, Status::Ok);
  for (const std::size_t i : {2u, 3u, 4u}) {
    EXPECT_EQ(settled.at(i).status, Status::Cancelled) << i;
    EXPECT_EQ(settled.at(i).attempts, 1u) << i;
    EXPECT_NE(settled.at(i).error.find("task:" + std::to_string(i)),
              std::string::npos);
    EXPECT_EQ(runs[i], 0) << i;
  }

  plan.cancel = util::CancellationSource::withDeadline(0.0).token();
  const auto expired = run(iota(3), plan, [](std::size_t) {});
  ASSERT_EQ(expired.size(), 3u);
  for (const auto& [i, outcome] : expired) {
    EXPECT_EQ(outcome.status, Status::TimedOut) << i;
  }
}

TEST(IndexedTasks, OkAndFailedKeepTheirIntegerValues) {
  // Outcome digests hash static_cast<int>(status).
  EXPECT_EQ(static_cast<int>(Status::Ok), 0);
  EXPECT_EQ(static_cast<int>(Status::Failed), 1);
  EXPECT_FALSE(PointOutcome{}.ok());  // Pending until settled
}

}  // namespace
}  // namespace nh::core
