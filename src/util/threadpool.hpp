#pragma once
/// \file threadpool.hpp
/// Fixed-size worker pool with a `parallelFor` primitive for the sweep
/// harness. Every Fig. 3 sweep point builds a fresh all-HRS array, so the
/// points are embarrassingly parallel; callers write results into
/// preallocated slots indexed by the loop variable, which keeps output
/// ordering deterministic regardless of the thread count.
///
/// All shared state is annotated for Clang's thread-safety analysis (see
/// util/annotations.hpp): the job queue, the active-worker count, and the
/// stop flag are `NH_GUARDED_BY(mutex_)`, so an access outside the lock is a
/// compile error on clang, not a TSan report later.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace nh::util {

/// Worker count used when a caller passes 0: the NH_THREADS environment
/// variable when set to a positive integer, otherwise the hardware
/// concurrency (minimum 1).
std::size_t defaultThreadCount();

/// Oversubscription guard shared by every way of requesting a worker count
/// (NH_THREADS, the nh_sweep --threads flag): returns \p requested clamped
/// to 4x the hardware concurrency, warning on stderr (prefixed with \p tag)
/// each time the clamp engages. 0 passes through (= default). Callers on
/// hot paths cache the result -- defaultThreadCount resolves NH_THREADS
/// through a function-local static, so its warning prints once per process.
std::size_t clampThreadCount(std::size_t requested, const char* tag);

/// Fixed pool of worker threads draining a FIFO job queue.
class ThreadPool {
 public:
  /// Spawn \p threads workers (0 = defaultThreadCount()).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains outstanding jobs, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue one job. Jobs must not throw; use parallelFor for bodies that
  /// can fail (it captures and rethrows the first exception).
  void submit(std::function<void()> job) NH_EXCLUDES(mutex_);

  /// Block until the queue is empty and every worker is idle.
  void wait() NH_EXCLUDES(mutex_);

  /// Run body(0..count-1) across the pool; the calling thread participates,
  /// so up to size()+1 bodies execute concurrently. Iterations are claimed
  /// dynamically (atomic counter), so the execution order is unspecified --
  /// bodies must only touch their own index's state. Blocks until every
  /// iteration finished. A throwing body does not stop the others: the
  /// remaining indices keep draining (per-slot isolation must not depend on
  /// scheduling order), and the first exception is rethrown at the barrier
  /// wrapped in a std::runtime_error naming the failing index
  /// (util::CancelledError passes through unwrapped). The caller's ambient
  /// cancellation token (util/cancellation.hpp) is propagated onto every
  /// helper and checked between iterations; a cancelled loop stops claiming
  /// indices and throws CancelledError at the barrier. Called from inside a
  /// task of this same pool, the loop runs inline on that worker (no helper
  /// jobs), which makes nested use safe instead of a deadlock.
  void parallelFor(std::size_t count, const std::function<void(std::size_t)>& body)
      NH_EXCLUDES(mutex_);

  /// Process-wide pool created on first use, sized so that a parallelFor on
  /// it runs defaultThreadCount() concurrent bodies (workers + caller).
  static ThreadPool& shared();

 private:
  void workerLoop() NH_EXCLUDES(mutex_);

  // The TSA smoke probe (tests/tsa_probe.cpp, scripts/check-tsa-probe) reads
  // jobs_ without the lock and MUST fail to compile; see
  // docs/static-analysis.md.
  friend class ThreadPoolTsaProbe;

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::deque<std::function<void()>> jobs_ NH_GUARDED_BY(mutex_);
  std::size_t active_ NH_GUARDED_BY(mutex_) = 0;
  bool stopping_ NH_GUARDED_BY(mutex_) = false;
  CondVar jobReady_;
  CondVar idle_;
};

/// Convenience wrapper: run body(0..count-1) with \p threads concurrent
/// executors in total, the calling thread included (0 = defaultThreadCount()).
/// threads == 1 runs serially on the calling thread with no pool involved --
/// the baseline the equivalence tests compare against.
void parallelFor(std::size_t count, const std::function<void(std::size_t)>& body,
                 std::size_t threads = 0);

namespace detail {
/// forBlocks' pool branch: runs body(0, count) inline on a single-core host
/// or inside a task of the shared pool, otherwise splits [0, count) into
/// 4 x (pool.size() + 1) contiguous blocks claimed through the shared pool's
/// parallelFor.
void forBlocksOnPool(std::size_t count,
                     const std::function<void(std::size_t, std::size_t)>& body);
}  // namespace detail

/// Run body(begin, end) over disjoint contiguous blocks that cover
/// [0, count) -- inline as one body(0, count) call when count < \p minCount
/// (no pool, no allocation), else on the shared pool (detail::forBlocksOnPool).
/// Each index lands in exactly one block; bodies must only write their own
/// indices' state, so any per-index result is independent of the split.
/// Errors match the serial loop: when several blocks throw, the exception of
/// the lowest block is rethrown unchanged (the one body(0, count) would have
/// thrown first); a cancelled ambient token still stops the loop with
/// CancelledError, as in parallelFor.
template <typename Body>
void forBlocks(std::size_t count, std::size_t minCount, Body&& body) {
  if (count < minCount) {
    body(std::size_t{0}, count);
    return;
  }
  detail::forBlocksOnPool(count, std::ref(body));
}

}  // namespace nh::util
