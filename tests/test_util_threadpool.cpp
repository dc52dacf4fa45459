#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/linsolve.hpp"

namespace nh::util {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ThreadPool, SizeMatchesRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SubmitAndWaitRunsEveryJob) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const std::size_t count = 257;  // deliberately not a multiple of threads
    std::vector<std::atomic<int>> visits(count);
    parallelFor(count, [&visits](std::size_t i) { visits[i].fetch_add(1); },
                threads);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << ", " << threads
                                     << " threads";
    }
  }
}

TEST(ThreadPool, ParallelForZeroAndOneCounts) {
  int calls = 0;
  parallelFor(0, [&calls](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  parallelFor(1, [&calls](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SlotIndexedResultsAreThreadCountInvariant) {
  // The sweep-harness contract: bodies write f(i) into slot i, so the result
  // vector is identical however the iterations were scheduled.
  auto run = [](std::size_t threads) {
    std::vector<double> out(1000);
    parallelFor(out.size(),
                [&out](std::size_t i) {
                  out[i] = static_cast<double>(i) * 1.5 + 1.0;
                },
                threads);
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(7));
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException) {
  EXPECT_THROW(
      parallelFor(100,
                  [](std::size_t i) {
                    if (i == 42) throw std::runtime_error("boom");
                  },
                  4),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForPassesSolverErrorThroughUnwrapped) {
  // The structured diagnosis must survive the barrier on both the serial
  // and the pooled path: callers read iterations()/residualNorm() off the
  // concrete type, so wrapping it in a plain runtime_error would erase
  // exactly what SolverError exists to carry.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      parallelFor(50,
                  [](std::size_t i) {
                    if (i == 7) {
                      throw SolverError("test.solve", "diverged", 12, 3.5);
                    }
                  },
                  threads);
      FAIL() << "expected a SolverError (" << threads << " threads)";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.solve(), "test.solve");
      EXPECT_EQ(e.iterations(), 12u);
      EXPECT_DOUBLE_EQ(e.residualNorm(), 3.5);
    }
  }
}

TEST(ThreadPool, PoolParallelForUsesWorkers) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  pool.parallelFor(1000, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), 1000LL * 999LL / 2LL);
}

TEST(ThreadPool, SequentialParallelForCallsReuseThePool) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::vector<int> out(50, -1);
    pool.parallelFor(out.size(),
                     [&out](std::size_t i) { out[i] = static_cast<int>(i); });
    const long long expected = 50LL * 49LL / 2LL;
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0LL), expected);
  }
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCompletes) {
  // A body calling parallelFor on its own pool must not deadlock: the inner
  // loop runs inline on the worker. 4 outer x 25 inner on a 2-worker pool
  // forces every worker into the nested case.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallelFor(4, [&pool, &counter](std::size_t) {
    pool.parallelFor(25, [&counter](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ForBlocks, CoversEveryIndexOnceInContiguousBlocks) {
  constexpr std::size_t kCount = 10007;
  std::vector<int> hits(kCount, 0);
  std::atomic<std::size_t> calls{0};
  forBlocks(kCount, 0, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
    calls.fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i], 1) << i;
  // Several blocks per thread on a multi-core host, one inline call on a
  // single core.
  if (defaultThreadCount() > 1) {
    EXPECT_GT(calls.load(), ThreadPool::shared().size() + 1);
    EXPECT_LE(calls.load(), 4 * (ThreadPool::shared().size() + 1));
  } else {
    EXPECT_EQ(calls.load(), 1u);
  }
}

TEST(ForBlocks, RunsInlineBelowTheMinimumAndInsidePoolTasks) {
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  forBlocks(100, 101, [&](std::size_t begin, std::size_t end) {
    seen.emplace_back(begin, end);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, std::size_t>>{{0, 100}}));

  // Nested: a shared-pool task gets one block, on its own thread.
  std::vector<std::pair<std::size_t, std::size_t>> nested;
  ThreadPool::shared().submit([&] {
    forBlocks(100000, 0, [&](std::size_t begin, std::size_t end) {
      nested.emplace_back(begin, end);
    });
  });
  ThreadPool::shared().wait();
  EXPECT_EQ(nested, (std::vector<std::pair<std::size_t, std::size_t>>{{0, 100000}}));
}

TEST(ForBlocks, RethrowsTheLowestBlocksExceptionUnwrapped) {
  // Every block throws; the serial loop would have thrown block 0's error,
  // so that one surfaces, with its own type, whatever the schedule.
  for (int round = 0; round < 20; ++round) {
    try {
      forBlocks(5000, 0, [](std::size_t begin, std::size_t) {
        throw std::invalid_argument("block at " + std::to_string(begin));
      });
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "block at 0");
    }
  }
  // Only the last block fails: its SolverError passes through unwrapped.
  EXPECT_THROW(forBlocks(5000, 0,
                         [](std::size_t, std::size_t end) {
                           if (end == 5000) throw SolverError("test.solve", "diverged");
                         }),
               SolverError);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> counter{0};
  ThreadPool::shared().parallelFor(10,
                                   [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace nh::util
