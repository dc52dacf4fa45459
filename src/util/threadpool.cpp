#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/cancellation.hpp"
#include "util/linsolve.hpp"

namespace nh::util {

namespace {
// Pool whose worker is currently executing this thread, if any; lets
// parallelFor detect same-pool reentrancy and run inline instead of
// deadlocking on helper jobs no free worker can ever pick up.
thread_local ThreadPool* t_currentPool = nullptr;
}  // namespace

namespace {
std::size_t hardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}
}  // namespace

std::size_t clampThreadCount(std::size_t requested, const char* tag) {
  if (requested == 0) return 0;
  // Oversubscribing beyond a small multiple of the hardware buys nothing,
  // and a typo (1000000 workers) would try to spawn a million threads.
  const std::size_t hardware = hardwareThreads();
  const std::size_t maxThreads = hardware * 4;
  if (requested <= maxThreads) return requested;
  std::fprintf(stderr,
               "%s%zu exceeds 4x hardware concurrency (%zu); clamping to "
               "%zu\n",
               tag, requested, hardware, maxThreads);
  return maxThreads;
}

std::size_t defaultThreadCount() {
  if (const char* env = std::getenv("NH_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) {
      // Cached: NH_THREADS is fixed for the process, this runs on every
      // sweep call, and the clamp warning should print once, not per call.
      static const std::size_t resolved =
          clampThreadCount(static_cast<std::size_t>(parsed), "NH_THREADS=");
      return resolved;
    }
  }
  return hardwareThreads();
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = defaultThreadCount();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] {
      t_currentPool = this;
      workerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  jobReady_.notifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  jobReady_.notifyOne();
}

void ThreadPool::wait() {
  MutexLock lock(mutex_);
  while (!jobs_.empty() || active_ != 0) idle_.wait(mutex_);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && jobs_.empty()) jobReady_.wait(mutex_);
      if (jobs_.empty()) return;  // stopping_ and nothing left to drain
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++active_;
    }
    job();
    {
      MutexLock lock(mutex_);
      --active_;
      if (jobs_.empty() && active_ == 0) idle_.notifyAll();
    }
  }
}

namespace {
// Rethrow the first loop failure, annotated with the index whose body threw.
// CancelledError passes through untouched (cancellation is an orderly unwind
// and callers dispatch on the type), and so does SolverError: its structured
// diagnosis (which solve, iterations, residual) exists precisely so callers
// above the barrier can read it, and its message already names the failing
// solve. Other std::exceptions are wrapped so the message pinpoints the
// failing iteration.
[[noreturn]] void rethrowLoopError(const std::exception_ptr& error,
                                   std::size_t index) {
  try {
    std::rethrow_exception(error);
  } catch (const CancelledError&) {
    throw;
  } catch (const SolverError&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error("parallelFor: body at index " +
                             std::to_string(index) + " failed: " + e.what());
  } catch (...) {
    throw;  // non-std exceptions carry no message to annotate
  }
}
}  // namespace

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  // Shared iteration state: workers and the calling thread claim indices
  // from `next`. A throwing body does NOT stop its siblings -- the remaining
  // indices keep draining so every slot gets its chance to complete (the
  // isolation semantics the sweep harness relies on); the first failure wins
  // `error` and is rethrown at the barrier, tagged with its index. The
  // error pair is errorMutex-guarded end to end -- including the post-barrier
  // read: the barrier's release/acquire ordering already makes it safe, but
  // the analysis (rightly) has no way to see that, and an uncontended lock
  // at the barrier is free.
  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pendingTasks{0};
    Mutex errorMutex;
    std::exception_ptr error NH_GUARDED_BY(errorMutex);
    std::size_t errorIndex NH_GUARDED_BY(errorMutex) = 0;
    Mutex doneMutex;
    CondVar done;
  };
  auto state = std::make_shared<LoopState>();

  // Cancellation is the one thing that *does* stop the loop early: the
  // caller's ambient token is propagated onto every helper so a cancel
  // stops index claiming within ~one body on every thread.
  const CancellationToken token = currentCancellation();

  const std::function<void(std::size_t)>* bodyPtr = &body;
  auto drain = [state, bodyPtr, count, token] {
    std::size_t i;
    while ((i = state->next.fetch_add(1)) < count) {
      if (token.cancelled()) {
        MutexLock lock(state->errorMutex);
        if (!state->error) {
          const bool byDeadline = token.deadlineExpired();
          state->error = std::make_exception_ptr(CancelledError(
              byDeadline ? "deadline expired in parallelFor"
                         : "cancelled in parallelFor",
              byDeadline));
          state->errorIndex = i;
        }
        break;
      }
      try {
        (*bodyPtr)(i);
      } catch (...) {
        MutexLock lock(state->errorMutex);
        if (!state->error) {
          state->error = std::current_exception();
          state->errorIndex = i;
        }
      }
    }
  };

  // Reentrant call from one of our own workers: every sibling may be blocked
  // in the same situation, so queued helpers might never run -- skip them and
  // let this worker drain the whole loop inline.
  const std::size_t helperTasks =
      (count > 1 && t_currentPool != this) ? std::min(size(), count - 1)
                                           : std::size_t{0};
  state->pendingTasks.store(helperTasks);
  for (std::size_t t = 0; t < helperTasks; ++t) {
    submit([state, drain, token] {
      {
        CancellationScope scope(token);
        drain();
      }
      if (state->pendingTasks.fetch_sub(1) == 1) {
        MutexLock lock(state->doneMutex);
        state->done.notifyAll();
      }
    });
  }

  drain();  // the calling thread works too (and alone when the pool is busy)

  {
    MutexLock lock(state->doneMutex);
    while (state->pendingTasks.load() != 0) state->done.wait(state->doneMutex);
  }
  std::exception_ptr error;
  std::size_t errorIndex = 0;
  {
    MutexLock lock(state->errorMutex);
    error = state->error;
    errorIndex = state->errorIndex;
  }
  if (error) rethrowLoopError(error, errorIndex);
}

ThreadPool& ThreadPool::shared() {
  // The parallelFor caller participates, so defaultThreadCount()-1 workers
  // give defaultThreadCount() concurrent bodies in total.
  static ThreadPool pool(std::max<std::size_t>(1, defaultThreadCount() - 1));
  return pool;
}

void parallelFor(std::size_t count, const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  if (threads == 0) threads = defaultThreadCount();
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      checkCancellation("parallelFor");
      try {
        body(i);
      } catch (const CancelledError&) {
        throw;
      } catch (const SolverError&) {
        throw;  // structured diagnosis passes through, like the pool barrier
      } catch (const std::exception& e) {
        throw std::runtime_error("parallelFor: body at index " +
                                 std::to_string(i) + " failed: " + e.what());
      }
    }
    return;
  }
  // threads counts the calling thread too; defaultThreadCount() is compared
  // directly (a pure function) so non-default requests never instantiate the
  // shared pool's workers just to look at them.
  if (threads == defaultThreadCount()) {
    ThreadPool::shared().parallelFor(count, body);
    return;
  }
  ThreadPool pool(threads - 1);
  pool.parallelFor(count, body);
}

void detail::forBlocksOnPool(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
  // Single core: fork/join is pure overhead. Inside a pool task: the loop
  // would run inline on this worker anyway (see parallelFor), so skip the
  // block bookkeeping.
  if (count < 2 || defaultThreadCount() < 2 || t_currentPool == &ThreadPool::shared()) {
    body(0, count);
    return;
  }
  ThreadPool& pool = ThreadPool::shared();
  // Several blocks per thread: claimed dynamically, they even out the
  // per-index cost differences and the uneven speed of shared-host CPUs.
  const std::size_t target = 4 * (pool.size() + 1);
  const std::size_t per = (count + target - 1) / target;
  const std::size_t blocks = (count + per - 1) / per;
  // Keep the lowest block's exception, not the first to be thrown, so the
  // error does not depend on scheduling.
  Mutex errorMutex;
  std::exception_ptr error;
  std::size_t errorBlock = blocks;
  pool.parallelFor(blocks, [&](std::size_t block) {
    const std::size_t begin = block * per;
    try {
      body(begin, std::min(count, begin + per));
    } catch (...) {
      MutexLock lock(errorMutex);
      if (block < errorBlock) {
        error = std::current_exception();
        errorBlock = block;
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace nh::util
