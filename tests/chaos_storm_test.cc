// Chaos harness for the fault-tolerant execution layer (experiment E12's
// test-side twin): every FailPoints site armed at aggressive rates while
// multi-threaded workloads run under RetryExecutor, so the engine eats
// thousands of injected deadlocks, timeouts, delays and spurious wakeups
// per run.
//
// The assertions are the paper's promises plus the layer's own:
//   - atomicity under retry: committed effects equal exactly the
//     committed transactions' writes (no lost OR double-applied effects
//     from re-running aborted subtrees);
//   - the lock table drains clean: empty wait graph, empty cancellation
//     park table, empty doom registry;
//   - traced runs pass the mechanized Theorem 34 serial-correctness
//     checker — injected failure storms stay inside the schedules the
//     theorem covers;
//   - the storm actually stormed (injection and abort floors).
//
// NESTEDTX_STRESS_ITERS scales per-thread transaction counts; the CI
// chaos job additionally arms sites via NESTEDTX_FAILPOINTS, which
// overrides the in-test rates (see ArmChaosSites).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/failpoints.h"
#include "core/retry.h"
#include "serial/data_type.h"
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

// Arm every site at >= 1-in-8. An operator-provided NESTEDTX_FAILPOINTS
// wins (the CI chaos job uses it to re-shape the storm without a
// rebuild); otherwise the built-in aggressive profile applies.
void ArmChaosSites(uint64_t seed) {
  if (FailPoints::EnableFromEnv() > 0) return;
  FailPoints::Config grant;
  grant.delay_one_in = 8;
  grant.delay_us = 40;
  grant.deadlock_one_in = 8;
  grant.timeout_one_in = 8;
  FailPoints::Enable(FailPoints::kLockGrant, grant);
  FailPoints::Config wakeup;
  wakeup.spurious_wakeup_one_in = 4;
  wakeup.delay_one_in = 8;
  wakeup.delay_us = 40;
  wakeup.deadlock_one_in = 8;
  FailPoints::Enable(FailPoints::kWaitWakeup, wakeup);
  FailPoints::Config slow;
  slow.delay_one_in = 8;
  slow.delay_us = 40;
  FailPoints::Enable(FailPoints::kCommitInherit, slow);
  FailPoints::Enable(FailPoints::kAbortPurge, slow);
  FailPoints::Config begin;
  begin.deadlock_one_in = 8;
  FailPoints::Enable(FailPoints::kBeginTxn, begin);
  FailPoints::Config backoff;
  backoff.timeout_one_in = 8;
  backoff.delay_one_in = 8;
  backoff.delay_us = 40;
  FailPoints::Enable(FailPoints::kRetryBackoff, backoff);
  FailPoints::Seed(seed);
}

struct ChaosSpec {
  int threads = 8;
  int txns_per_thread = 0;  // callers set this, pre-scaled
  int num_keys = 4;
  int writes_per_txn = 3;
};

struct ChaosOutcome {
  uint64_t committed = 0;
  uint64_t gave_up = 0;
  uint64_t shed = 0;  // admission-gate Overloaded
};

// Each transaction adds 1 to `writes_per_txn` hot keys in random order
// (order inversion generates real deadlocks on top of the injected
// ones), every write wrapped in a retried subtransaction.
ChaosOutcome RunChaosStorm(Database& db, RetryExecutor& ex,
                           const ChaosSpec& spec) {
  std::vector<std::string> keys;
  for (int k = 0; k < spec.num_keys; ++k) keys.push_back(StrCat("key", k));
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<int> at_gate{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&db, &ex, &spec, &keys, &committed, &gave_up,
                          &shed, &at_gate, t] {
      Rng rng(0xC4A05u + 7919u * static_cast<uint64_t>(t));
      at_gate.fetch_add(1);
      while (at_gate.load() < spec.threads) std::this_thread::yield();
      std::vector<size_t> order(keys.size());
      for (int i = 0; i < spec.txns_per_thread; ++i) {
        for (size_t j = 0; j < order.size(); ++j) order[j] = j;
        for (size_t j = order.size(); j > 1; --j) {
          std::swap(order[j - 1], order[rng.Uniform(j)]);
        }
        Status s = ex.Run([&](Transaction& tx) -> Status {
          for (int w = 0; w < spec.writes_per_txn; ++w) {
            const std::string& key = keys[order[static_cast<size_t>(w)]];
            RETURN_IF_ERROR(
                ex.RunChild(tx, [&](Transaction& child) -> Status {
                  return child.Add(key, 1).status();
                }));
            if (rng.Bernoulli(0.125)) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
          }
          return Status::OK();
        });
        if (s.ok()) {
          committed.fetch_add(1);
        } else if (s.IsOverloaded()) {
          shed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ChaosOutcome out;
  out.committed = committed.load();
  out.gave_up = gave_up.load();
  out.shed = shed.load();
  return out;
}

// The drain + no-lost/no-double-applied invariants every storm must
// leave behind.
void CheckChaosDrained(Database& db, const ChaosSpec& spec,
                       const ChaosOutcome& out) {
  EXPECT_EQ(db.manager().locks().wait_graph().NumWaiters(), 0u);
  EXPECT_EQ(db.manager().locks().ParkedWaiterCount(), 0u);
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);
  const StatsSnapshot snap = db.stats().Snapshot();
  // Retry metadata consistency: committed effects are exactly the
  // committed transactions' writes. A lost child effect or a
  // double-applied re-run breaks this sum.
  uint64_t sum = 0;
  for (int k = 0; k < spec.num_keys; ++k) {
    sum += static_cast<uint64_t>(
        db.ReadCommitted(StrCat("key", k)).value_or(0));
  }
  EXPECT_EQ(sum,
            out.committed * static_cast<uint64_t>(spec.writes_per_txn))
      << snap.ToString();
}

RetryPolicy ChaosPolicy() {
  RetryPolicy p;
  // Asymmetric bounds: subtree retries cannot release ancestor-held
  // locks, so a parent-level deadlock cycle is only broken by a child
  // exhausting its attempts and escalating — keep the child bound small
  // (fast escalation) and the top bound generous (a top retry releases
  // everything, so persistence there is safe).
  p.max_attempts = 8;
  p.max_attempts_top = 500;
  p.backoff_base_us = 20;
  p.backoff_cap_us = 2000;
  p.seed = 0xC4A05ULL;
  return p;
}

class ChaosStormTest : public ::testing::Test {
 protected:
  // Failpoints are process-global: never leak them into later tests.
  void TearDown() override { FailPoints::DisableAll(); }
};

TEST_F(ChaosStormTest, FailureStormGraphPolicy) {
  ArmChaosSites(0xE12u);
  Database db;
  RetryExecutor ex(&db, ChaosPolicy());
  ChaosSpec spec;
  spec.txns_per_thread = 100 * StressScale();
  ChaosOutcome out = RunChaosStorm(db, ex, spec);
  // Bounded subtree retry absorbs the whole storm: every unit of work
  // eventually commits.
  EXPECT_EQ(out.gave_up, 0u);
  EXPECT_EQ(out.shed, 0u);
  EXPECT_EQ(out.committed, uint64_t{8} * static_cast<uint64_t>(
                                             spec.txns_per_thread));
  CheckChaosDrained(db, spec, out);
  // The storm must actually have stormed.
  EXPECT_GE(FailPoints::InjectionCount(), 1000u);
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GE(snap.txns_aborted, 200u) << snap.ToString();
  EXPECT_GT(snap.retries_attempted, 0u) << snap.ToString();
}

TEST_F(ChaosStormTest, FailureStormWithBudgetAndAdmission) {
  // Retry budgets + the admission gate under the same storm: sheds are
  // load regulation, not lost work — every shed is accounted, admitted
  // work still leaves exact effects.
  ArmChaosSites(0xAD317u);
  EngineOptions o;
  o.admission_max_inflight = 4;
  o.admission_max_queued = 2;
  Database db(o);
  RetryPolicy p = ChaosPolicy();
  p.tree_budget = 32;
  RetryExecutor ex(&db, p);
  ChaosSpec spec;
  spec.txns_per_thread = 60 * StressScale();
  ChaosOutcome out = RunChaosStorm(db, ex, spec);
  EXPECT_EQ(out.committed + out.gave_up + out.shed,
            uint64_t{8} * static_cast<uint64_t>(spec.txns_per_thread));
  CheckChaosDrained(db, spec, out);
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.admission_rejected, out.shed) << snap.ToString();
}

TEST_F(ChaosStormTest, MassCancellationWakesAllParkedWaiters) {
  // Orphan cancellation at fan-out: 16 waiters parked across 8 trees on
  // keys the holder write-locks, then every tree is cancelled at once.
  // All waiters must wake with Cancelled far inside the 30s timeout, and
  // the registry/park table must drain after the aborts.
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(30000);
  Database db(o);
  const int kKeys = 4;
  auto holder = db.Begin();
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(holder->Put(StrCat("key", k), 1).ok());
  }
  const int kTops = 8;
  const int kChildrenPerTop = 2;
  std::vector<std::unique_ptr<Transaction>> tops;
  std::vector<std::unique_ptr<Transaction>> children;
  for (int t = 0; t < kTops; ++t) {
    tops.push_back(db.Begin());
    for (int c = 0; c < kChildrenPerTop; ++c) {
      Result<std::unique_ptr<Transaction>> child =
          tops.back()->BeginChild();
      ASSERT_TRUE(child.ok());
      children.push_back(std::move(*child));
    }
  }
  const size_t n = children.size();
  std::vector<Status> got(n);
  std::vector<std::thread> waiters;
  for (size_t i = 0; i < n; ++i) {
    waiters.emplace_back([&db, &children, &got, i] {
      got[i] =
          children[i]->Get(StrCat("key", i % kKeys)).status();
    });
  }
  // Wait until every waiter is genuinely parked (not merely running).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (db.manager().locks().ParkedWaiterCount() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(db.manager().locks().ParkedWaiterCount(), n);

  for (auto& top : tops) top->Cancel();
  for (std::thread& w : waiters) w.join();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(got[i].IsCancelled()) << i << ": " << got[i].ToString();
  }
  for (auto& child : children) ASSERT_TRUE(child->Abort().ok());
  for (auto& top : tops) ASSERT_TRUE(top->Abort().ok());
  ASSERT_TRUE(holder->Commit().ok());

  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GE(snap.waits_cancelled, n) << snap.ToString();
  EXPECT_EQ(db.manager().locks().ParkedWaiterCount(), 0u);
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);
  EXPECT_EQ(db.manager().locks().wait_graph().NumWaiters(), 0u);
}

// Traced storms: the survivors of an injected failure storm — with
// orphan cancellation and subtree retry in the loop — must still form a
// serially correct execution under the mechanized Theorem 34 checker.
void ValidateTrace(Database& db) {
  ASSERT_NE(db.trace(), nullptr);
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  Status wf = CheckConcurrentWellFormed(*st, alpha);
  ASSERT_TRUE(wf.ok()) << wf.ToString();
  Status sc = CheckSeriallyCorrectForAll(*st, alpha, {});
  EXPECT_TRUE(sc.ok()) << sc.ToString();
}

TEST_F(ChaosStormTest, TracedFailureStormSeriallyCorrect) {
  ArmChaosSites(0x7EA34u);
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(300);
  Database db(o);
  ASSERT_TRUE(db.EnableTracing().ok());
  RetryExecutor ex(&db, ChaosPolicy());
  // Kept small: checker cost grows with schedule length, and every
  // injected fault adds an aborted attempt's events.
  ChaosSpec spec;
  spec.threads = 3;
  spec.txns_per_thread = 6;
  spec.num_keys = 3;
  spec.writes_per_txn = 2;
  ChaosOutcome out = RunChaosStorm(db, ex, spec);
  FailPoints::DisableAll();
  EXPECT_EQ(out.committed + out.gave_up + out.shed,
            uint64_t{3} * static_cast<uint64_t>(spec.txns_per_thread));
  CheckChaosDrained(db, spec, out);
  ValidateTrace(db);
}

}  // namespace
}  // namespace nestedtx
