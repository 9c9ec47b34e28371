// Inflate/deflate storm for the lock word (DESIGN.md §5): hot keys are
// driven back and forth across the escalation boundary by concurrent
// writers (conflicts inflate), retried subtree commits (inheritance
// runs on both regimes' release paths), cancel storms (orphan dooming
// forces the mutex regime) and failpoint-injected deadlocks/timeouts —
// while readers keep re-validating seqlock handles against words that
// keep moving. Run in CI's TSan and chaos jobs.
//
// Assertions: conservation (committed effects equal exactly the
// committed transactions' writes), a clean drain (no waiters, no parked
// threads, no doomed roots), the storm really crossed the boundary both
// ways (inflation AND deflation floors), and a traced phase passes the
// Theorem 34 serial-correctness checker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/failpoints.h"
#include "core/retry.h"
#include "tx/well_formed.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

int StressScale() {
  const char* env = std::getenv("NESTEDTX_STRESS_ITERS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v > 0 ? v : 1;
}

EngineOptions StormOptions() {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(2000);
  return o;
}

RetryPolicy StormPolicy() {
  RetryPolicy p;
  p.max_attempts = 8;
  p.max_attempts_top = 500;
  p.backoff_base_us = 20;
  p.backoff_cap_us = 2000;
  p.seed = 0x10CC;
  return p;
}

class LockWordStressTest : public ::testing::Test {
 protected:
  // Failpoints are process-global: never leak them into later tests.
  void TearDown() override { FailPoints::DisableAll(); }
};

// Untraced storm at full fast-lane strength. Each transaction reads a
// few hot keys (seqlock traffic), then commits increments through a
// retried subtransaction (commit-inheritance on the release paths);
// some transactions are cancelled mid-flight from a reaper thread
// (orphan dooming, which rides the inflated regime). Failpoints at the
// grant and release sites inject deadlocks/delays inside both regimes'
// critical windows.
TEST_F(LockWordStressTest, InflateDeflateStormConserves) {
  FailPoints::Config grant;
  grant.deadlock_one_in = 16;
  grant.delay_one_in = 16;
  grant.delay_us = 30;
  FailPoints::Enable(FailPoints::kLockGrant, grant);
  FailPoints::Config release;
  release.delay_one_in = 16;
  release.delay_us = 30;
  FailPoints::Enable(FailPoints::kCommitInherit, release);
  FailPoints::Enable(FailPoints::kAbortPurge, release);
  FailPoints::Seed(0x10CCu);

  constexpr int kKeys = 3;
  constexpr int kThreads = 6;
  const int txns_per_thread = 120 * StressScale();
  Database db(StormOptions());
  RetryExecutor ex(&db, StormPolicy());
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(StrCat("key", k));
    db.Preload(keys.back(), 0);
  }
  // Read-only side table: the hot keys are inflated nearly all the
  // time (writers keep conflicting), so the seqlock traffic the floor
  // below asserts comes from read-shared keys — which never conflict,
  // and so run fast whenever no failpoint forces the mutex path.
  std::vector<std::string> ro_keys;
  for (int t = 0; t < kThreads; ++t) {
    ro_keys.push_back(StrCat("ro", t));
    db.Preload(ro_keys.back(), 7);
  }

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x10CCu + 7919u * static_cast<uint64_t>(t));
      for (int i = 0; i < txns_per_thread; ++i) {
        Status s = ex.Run([&](Transaction& tx) -> Status {
          // Seqlock traffic: repeat reads of a read-shared key, with
          // the second read riding the held-handle lane.
          for (int r = 0; r < 2; ++r) {
            auto ro = tx.TryGet(ro_keys[rng.Uniform(kThreads)]);
            if (!ro.ok()) return ro.status();
          }
          // Hot-key reads while other threads force those words
          // through inflate/deflate cycles.
          for (int r = 0; r < 4; ++r) {
            auto v = tx.TryGet(keys[rng.Uniform(kKeys)]);
            if (!v.ok()) return v.status();
          }
          // One unit of conserved work through a retried subtree.
          const std::string& key = keys[rng.Uniform(kKeys)];
          RETURN_IF_ERROR(ex.RunChild(tx, [&](Transaction& child) -> Status {
            return child.Add(key, 1).status();
          }));
          // A fraction of transactions self-cancel mid-flight: orphan
          // cancellation storms against in-flight fast-word holders.
          if (rng.Bernoulli(0.05)) {
            tx.Cancel();
          }
          return Status::OK();
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  // Disarm the failpoints halfway through: the first half storms the
  // escalation machinery (armed sites force every grant through the
  // mutex regime), the second half proves the table recovers — deflated
  // keys serve fast-word traffic again while the chaos-era state drains.
  const uint64_t total =
      static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(txns_per_thread);
  while (committed.load() < total / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FailPoints::DisableAll();
  for (auto& w : workers) w.join();

  // Conservation: committed effects == committed transactions' writes.
  uint64_t sum = 0;
  for (const auto& k : keys) {
    sum += static_cast<uint64_t>(db.ReadCommitted(k).value_or(0));
  }
  EXPECT_EQ(sum, committed.load());

  // Clean drain.
  EXPECT_EQ(db.manager().locks().wait_graph().NumWaiters(), 0u);
  EXPECT_EQ(db.manager().locks().ParkedWaiterCount(), 0u);
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);

  // The storm crossed the escalation boundary in both directions, and
  // the fast lanes actually carried traffic between crossings.
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GT(snap.lock_word_inflations, 0u) << snap.ToString();
  EXPECT_GT(snap.lock_word_deflations, 0u) << snap.ToString();
  EXPECT_GT(snap.fast_read_grants + snap.fast_read_reacquires, 0u)
      << snap.ToString();
}

// Traced phase: tracing disables the fast lanes (keys inflate on first
// use), which is itself a regime-transition path worth storming — and
// the recorded schedule must satisfy the mechanized Theorem 34 checker.
TEST_F(LockWordStressTest, TracedStormPassesTheorem34) {
  FailPoints::Config grant;
  grant.deadlock_one_in = 12;
  FailPoints::Enable(FailPoints::kLockGrant, grant);
  FailPoints::Seed(0x10CDu);

  constexpr int kKeys = 2;
  constexpr int kThreads = 4;
  const int txns_per_thread = 15 * StressScale();
  Database db(StormOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  RetryExecutor ex(&db, StormPolicy());
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(StrCat("key", k));
    db.Preload(keys.back(), 0);
  }
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x7712u + 101u * static_cast<uint64_t>(t));
      for (int i = 0; i < txns_per_thread; ++i) {
        Status s = ex.Run([&](Transaction& tx) -> Status {
          auto v = tx.TryGet(keys[rng.Uniform(kKeys)]);
          if (!v.ok()) return v.status();
          return ex.RunChild(tx, [&](Transaction& child) -> Status {
            return child.Add(keys[rng.Uniform(kKeys)], 1).status();
          });
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();

  uint64_t sum = 0;
  for (const auto& k : keys) {
    sum += static_cast<uint64_t>(db.ReadCommitted(k).value_or(0));
  }
  EXPECT_EQ(sum, committed.load());

  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
  EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
}

}  // namespace
}  // namespace nestedtx
