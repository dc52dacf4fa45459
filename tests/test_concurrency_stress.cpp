/// \file test_concurrency_stress.cpp
/// Multi-thread stress suites for the concurrent machinery: parallelFor
/// (reentrancy, throwing bodies, cancellation mid-drain), the process-wide
/// LRU study cache under getOrBuildStudy churn, and the fault-injection
/// registry under arm/fire/scope churn. Deterministic assertions only --
/// these exist to give ThreadSanitizer (NH_SANITIZE=thread) real
/// interleavings to chew on, and to fail loudly when a protocol regresses
/// even without TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/study.hpp"
#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/threadpool.hpp"

namespace nh {
namespace {

// ---- parallelFor ----------------------------------------------------------

TEST(ConcurrencyStress, NestedParallelForChurn) {
  // Every outer body re-enters parallelFor on the same pool while siblings
  // are doing the same; repeated rounds vary which workers hit the inline
  // reentrant path vs the queued-helper path.
  util::ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> counter{0};
    pool.parallelFor(6, [&pool, &counter](std::size_t) {
      pool.parallelFor(17, [&counter](std::size_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(counter.load(), 6 * 17) << "round " << round;
  }
}

TEST(ConcurrencyStress, ThrowingBodiesDoNotStopSiblingIndices) {
  // Several bodies throw per round; the drain-after-throw isolation contract
  // says every index still runs exactly once, and the barrier rethrows one
  // of the failures.
  for (int round = 0; round < 10; ++round) {
    const std::size_t count = 101;
    std::vector<std::atomic<int>> visits(count);
    try {
      util::parallelFor(
          count,
          [&visits](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
            if (i % 13 == 5) throw std::runtime_error("stress failure");
          },
          4);
      FAIL() << "expected the barrier to rethrow";
    } catch (const std::runtime_error&) {
      // expected: first failure wins, message tagged with its index
    }
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ConcurrencyStress, CancellationMidDrainStopsClaimingWithinOneBody) {
  // A sibling thread cancels while the loop drains. Every body that *did*
  // run must have run exactly once, and the barrier must surface
  // CancelledError (not a wrapped runtime_error).
  for (int round = 0; round < 5; ++round) {
    util::CancellationSource source;
    std::atomic<int> started{0};
    const std::size_t count = 400;
    std::vector<std::atomic<int>> visits(count);
    std::thread canceller([&source, &started] {
      // Wait until the drain is demonstrably in flight, then cancel.
      while (started.load() < 8) std::this_thread::yield();
      source.cancel();
    });
    try {
      const util::CancellationScope scope(source.token());
      util::parallelFor(
          count,
          [&](std::size_t i) {
            started.fetch_add(1, std::memory_order_relaxed);
            visits[i].fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
          },
          4);
      // A 400-point drain on 4 threads should not finish before 8 bodies
      // have started; if it somehow does, that is not a correctness bug.
    } catch (const util::CancelledError& e) {
      EXPECT_FALSE(e.deadlineExpired());
    }
    canceller.join();
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_LE(visits[i].load(), 1) << "index " << i;
    }
  }
}

// ---- process-wide study cache ---------------------------------------------

TEST(ConcurrencyStress, GetOrBuildStudyUnderLruChurn) {
  // More distinct configs than cache capacity, hammered by several threads:
  // every lookup races insert/evict/find-refresh on the shared LRU. The
  // returned study must always match the requested config, whatever the
  // cache decided to keep.
  core::clearStudyCache();
  const std::size_t savedCapacity = core::studyCacheCapacity();
  core::setStudyCacheCapacity(2);

  const std::vector<double> spacings = {10e-9, 20e-9, 40e-9, 80e-9};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&spacings, &failed, t] {
      for (int iter = 0; iter < 12; ++iter) {
        core::StudyConfig cfg;
        cfg.rows = 3;
        cfg.cols = 3;
        cfg.spacing = spacings[(t + static_cast<std::size_t>(iter)) %
                               spacings.size()];
        const auto study = core::getOrBuildStudy(cfg);
        if (!study || !(study->config() == cfg)) failed.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(core::studyCacheSize(), 2u);

  core::setStudyCacheCapacity(savedCapacity);
  core::clearStudyCache();
}

TEST(ConcurrencyStress, RacingBuildersForOneConfigConverge) {
  // All threads request the same cold config at once. insert() returns the
  // cache's winner, so after the first publish every caller must observe the
  // one retained instance.
  core::clearStudyCache();
  core::StudyConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.spacing = 15e-9;

  std::vector<std::shared_ptr<const core::AttackStudy>> seen(6);
  std::vector<std::thread> threads;
  threads.reserve(seen.size());
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, &cfg, t] {
      seen[t] = core::getOrBuildStudy(cfg);
    });
  }
  for (auto& thread : threads) thread.join();

  // Everyone got the config they asked for, and a second lookup now serves
  // the single cached instance.
  for (const auto& study : seen) {
    ASSERT_TRUE(study);
    EXPECT_TRUE(study->config() == cfg);
  }
  const auto warm = core::getOrBuildStudy(cfg);
  const auto again = core::getOrBuildStudy(cfg);
  EXPECT_EQ(warm.get(), again.get());
  core::clearStudyCache();
}

// ---- fault-injection registry ---------------------------------------------

TEST(ConcurrencyStress, FaultRegistryArmFireScopeChurn) {
  // Threads concurrently arm, probe, fire, and disarm disjoint per-thread
  // sites while flipping thread-local scopes; a final sweep checks each
  // site's lifecycle stayed coherent. Scoped policies must only fire inside
  // the matching scope even while the registry is being mutated around them.
  util::faultinject::clearAll();
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([t, &failed] {
      const std::string site = "stress.site." + std::to_string(t);
      for (int iter = 0; iter < 50; ++iter) {
        util::faultinject::arm(site, 2, "stress.scope");
        // Outside the scope: never fires, never counts.
        if (util::faultinject::shouldFire(site.c_str())) failed.store(true);
        {
          const util::faultinject::Scope scope("stress.scope");
          if (util::faultinject::shouldFire(site.c_str())) {
            failed.store(true);  // first matching call, nthCall is 2
          }
          if (!util::faultinject::shouldFire(site.c_str())) {
            failed.store(true);  // second matching call must fire
          }
        }
        if (!util::faultinject::fired(site)) failed.store(true);
        util::faultinject::disarm(site);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  util::faultinject::clearAll();
}

TEST(ConcurrencyStress, FaultSpecParsingRacesProbes) {
  // armFromSpec (the NH_FAULT parser) holds the registry lock across a whole
  // multi-entry spec while other threads hammer shouldFire/enabled; the
  // suite is a TSan target more than an assertion farm.
  util::faultinject::clearAll();
  std::atomic<bool> stop{false};
  std::thread prober([&stop] {
    while (!stop.load()) {
      util::faultinject::shouldFire("spec.a");
      util::faultinject::shouldFire("spec.b");
      util::faultinject::enabled();
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    EXPECT_EQ(util::faultinject::armFromSpec("spec.a:1,spec.b:3@pt"), 2u);
    util::faultinject::disarm("spec.a");
    util::faultinject::disarm("spec.b");
  }
  stop.store(true);
  prober.join();
  util::faultinject::clearAll();
}

// ---- NH_FAULT spec diagnostics (satellite: malformed-entry warnings) ------

TEST(FaultSpecWarnings, MalformedEntriesWarnOnceEachAndAreSkipped) {
  util::faultinject::clearAll();
  testing::internal::CaptureStderr();
  // One good entry sandwiched between four distinct malformations.
  const std::size_t armed = util::faultinject::armFromSpec(
      "noColon,:emptySite,good.site:2,bad.count:x,trailing.junk:3zz");
  const std::string err = testing::internal::GetCapturedStderr();

  EXPECT_EQ(armed, 1u);
  EXPECT_FALSE(util::faultinject::fired("good.site"));
  EXPECT_NE(err.find("NH_FAULT: ignoring malformed entry 'noColon'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("':emptySite'"), std::string::npos) << err;
  EXPECT_NE(err.find("'bad.count:x'"), std::string::npos) << err;
  EXPECT_NE(err.find("'trailing.junk:3zz'"), std::string::npos) << err;
  EXPECT_NE(err.find("expected site:n[@scope]"), std::string::npos) << err;

  // The well-formed entry really is armed: second call fires.
  EXPECT_FALSE(util::faultinject::shouldFire("good.site"));
  EXPECT_TRUE(util::faultinject::shouldFire("good.site"));
  util::faultinject::clearAll();
}

TEST(FaultSpecWarnings, StrayCommasAndZeroCountsAreHandled) {
  util::faultinject::clearAll();
  testing::internal::CaptureStderr();
  const std::size_t armed =
      util::faultinject::armFromSpec(",site.ok:1,,site.zero:0,");
  const std::string err = testing::internal::GetCapturedStderr();

  // Empty segments are stray commas, not entries -- silently skipped.
  EXPECT_EQ(armed, 1u);
  EXPECT_EQ(err.find("''"), std::string::npos) << err;
  // A zero call count can never fire; it is malformed, not "disabled".
  EXPECT_NE(err.find("'site.zero:0'"), std::string::npos) << err;
  EXPECT_NE(err.find("bad call count"), std::string::npos) << err;
  EXPECT_TRUE(util::faultinject::shouldFire("site.ok"));
  util::faultinject::clearAll();
}

}  // namespace
}  // namespace nh
