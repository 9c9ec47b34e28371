// Stress suite for the lock-wait subsystem: order-inverting deadlock
// meshes, abort storms, timeout races and seeded fault injection under
// wait-for-graph detection, where the requester that closes a cycle dies.
//
// Every scenario asserts the drain invariants — the wait graph is empty
// when the storm ends, and the committed state equals what the committed
// transactions wrote (atomicity survived the storm). The test
// completing at all is the liveness assertion: a leaked wait-graph edge
// or a lost wakeup shows up here as a hang.
//
// NESTEDTX_STRESS_ITERS scales the per-thread transaction counts
// (default 1). CI's TSan job runs the suite at scale 1, which keeps the
// whole binary under two minutes there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/failpoints.h"
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

struct StormSpec {
  int threads = 8;
  int txns_per_thread = 0;  // callers set this, pre-scaled
  int num_keys = 4;
  int writes_per_txn = 3;
  bool nested = false;            // wrap each write in a subtransaction
  double voluntary_abort_p = 0;   // per-attempt child abort probability
  int max_attempts = 1000;
};

struct StormOutcome {
  uint64_t committed = 0;
  uint64_t gave_up = 0;
};

// Every transaction writes `writes_per_txn` distinct hot keys in a random
// order — order inversion across threads is the canonical deadlock
// generator.
StormOutcome RunStorm(Database& db, const StormSpec& spec) {
  std::vector<std::string> keys;
  for (int k = 0; k < spec.num_keys; ++k) keys.push_back(StrCat("key", k));
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::atomic<int> at_gate{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&db, &spec, &keys, &committed, &gave_up, &at_gate,
                          t] {
      Rng rng(0x570A3u + 7919u * static_cast<uint64_t>(t));
      // Start barrier: without it, fast workers can drain their whole
      // quota before the slow-spawning ones begin, and the "storm" never
      // actually collides.
      at_gate.fetch_add(1);
      while (at_gate.load() < spec.threads) std::this_thread::yield();
      std::vector<size_t> order(keys.size());
      for (int i = 0; i < spec.txns_per_thread; ++i) {
        for (size_t j = 0; j < order.size(); ++j) order[j] = j;
        for (size_t j = order.size(); j > 1; --j) {
          std::swap(order[j - 1], order[rng.Uniform(j)]);
        }
        Status s = db.RunTransaction(
            spec.max_attempts, [&](Transaction& tx) -> Status {
              for (int w = 0; w < spec.writes_per_txn; ++w) {
                const std::string& key = keys[order[static_cast<size_t>(w)]];
                if (spec.nested) {
                  // Child retry budgets must stay small: a subtree retry
                  // cannot release ancestor-held locks, so a deadlock
                  // whose cycle runs through the parents is only broken
                  // by exhausting the child and aborting the parent.
                  RETURN_IF_ERROR(Database::RunNested(
                      tx, 4, [&](Transaction& child) -> Status {
                        RETURN_IF_ERROR(child.Add(key, 1).status());
                        if (spec.voluntary_abort_p > 0 &&
                            rng.Bernoulli(spec.voluntary_abort_p)) {
                          return Status::Aborted("induced child abort");
                        }
                        return Status::OK();
                      }));
                } else {
                  RETURN_IF_ERROR(tx.Add(key, 1).status());
                }
                // Occasionally stretch the lock-hold window so the
                // order-inverted writers genuinely collide.
                if (rng.Bernoulli(0.125)) {
                  std::this_thread::sleep_for(std::chrono::microseconds(20));
                }
              }
              return Status::OK();
            });
        (s.ok() ? committed : gave_up).fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  StormOutcome out;
  out.committed = committed.load();
  out.gave_up = gave_up.load();
  return out;
}

// The drain invariants every storm must leave behind.
void CheckDrained(Database& db, const StormSpec& spec,
                  const StormOutcome& out) {
  EXPECT_EQ(db.manager().locks().wait_graph().NumWaiters(), 0u);
  const StatsSnapshot snap = db.stats().Snapshot();
  // Committed effects are exactly the committed transactions' writes:
  // aborted attempts and victimized subtrees left nothing behind.
  uint64_t sum = 0;
  for (int k = 0; k < spec.num_keys; ++k) {
    sum += static_cast<uint64_t>(
        db.ReadCommitted(StrCat("key", k)).value_or(0));
  }
  EXPECT_EQ(sum, out.committed * static_cast<uint64_t>(spec.writes_per_txn))
      << snap.ToString();
}

class DeadlockStormTest : public ::testing::Test {
 protected:
  // Failpoints are process-global: never leak them into later tests.
  void TearDown() override { FailPoints::DisableAll(); }
};

// Flat order-inverting mesh; requester-dies is the one victim policy.
TEST_F(DeadlockStormTest, MeshAllVictimPolicies) {
  Database db;
  StormSpec spec;
  spec.txns_per_thread = 250 * StressScale();
  StormOutcome out = RunStorm(db, spec);
  EXPECT_EQ(out.gave_up, 0u);
  EXPECT_EQ(out.committed,
            uint64_t{8} * static_cast<uint64_t>(spec.txns_per_thread));
  CheckDrained(db, spec, out);
  // The mesh must actually have collided — an uncontended run would
  // prove nothing about the wait path.
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GT(snap.lock_waits + snap.deadlocks, 0u) << snap.ToString();
}

// Nested mesh: the requester that closes a cycle is a depth-2 subtree,
// so only that subtree retries.
TEST_F(DeadlockStormTest, NestedMeshYoungestSubtree) {
  Database db;
  StormSpec spec;
  spec.txns_per_thread = 200 * StressScale();
  spec.nested = true;
  StormOutcome out = RunStorm(db, spec);
  EXPECT_EQ(out.gave_up, 0u);
  CheckDrained(db, spec, out);
}

TEST_F(DeadlockStormTest, NestedAbortStorm) {
  // Voluntary child aborts on top of induced deadlocks: abort-path purge
  // (version discard + lock release + wait-graph sweep) under fire.
  Database db;
  StormSpec spec;
  spec.txns_per_thread = 150 * StressScale();
  spec.nested = true;
  spec.voluntary_abort_p = 0.3;
  StormOutcome out = RunStorm(db, spec);
  EXPECT_EQ(out.gave_up, 0u);
  CheckDrained(db, spec, out);
  EXPECT_GT(db.stats().Snapshot().txns_aborted, 0u);
}

TEST_F(DeadlockStormTest, FailpointStormGraphPolicy) {
  FailPoints::Seed(0xC0FFEEu);
  FailPoints::Config grant;
  grant.delay_one_in = 16;
  grant.delay_us = 50;
  grant.deadlock_one_in = 31;
  grant.timeout_one_in = 37;
  FailPoints::Enable(FailPoints::kLockGrant, grant);
  FailPoints::Config wakeup;
  wakeup.spurious_wakeup_one_in = 8;
  wakeup.delay_one_in = 16;
  wakeup.delay_us = 50;
  wakeup.deadlock_one_in = 61;
  FailPoints::Enable(FailPoints::kWaitWakeup, wakeup);
  FailPoints::Config delay_only;
  delay_only.delay_one_in = 16;
  delay_only.delay_us = 50;
  FailPoints::Enable(FailPoints::kCommitInherit, delay_only);
  FailPoints::Enable(FailPoints::kAbortPurge, delay_only);

  Database db;
  StormSpec spec;
  spec.txns_per_thread = 80 * StressScale();
  StormOutcome out = RunStorm(db, spec);
  EXPECT_EQ(out.gave_up, 0u);
  CheckDrained(db, spec, out);
  EXPECT_GT(FailPoints::InjectionCount(), 0u);
}

TEST_F(DeadlockStormTest, FailpointCommitReleaseStorm) {
  // Hammer the batched release path specifically: only the commit/abort
  // sites are armed, with an aggressive delay rate, so nearly every
  // nested commit stretches its per-key inherit window while waiters are
  // parked and the deferred notifies queue up behind it. A lost or
  // misordered wakeup in the batch machinery shows up here as a hang or
  // an atomicity violation.
  FailPoints::Seed(0xBA7C4u);
  FailPoints::Config release;
  release.delay_one_in = 4;
  release.delay_us = 50;
  FailPoints::Enable(FailPoints::kCommitInherit, release);
  FailPoints::Enable(FailPoints::kAbortPurge, release);

  Database db;
  StormSpec spec;
  spec.txns_per_thread = 60 * StressScale();
  spec.nested = true;
  spec.voluntary_abort_p = 0.2;  // aborted children exercise ReleaseKeyLocked
  StormOutcome out = RunStorm(db, spec);
  EXPECT_EQ(out.gave_up, 0u);
  CheckDrained(db, spec, out);
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GT(snap.wakeups_issued, 0u) << snap.ToString();
  EXPECT_GT(FailPoints::InjectionCount(), 0u);
}

// Smaller traced storms: survivors of deadlock victimization and fault
// injection must still form a serially correct execution under the
// mechanized Theorem 34 checker.
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

TEST_F(DeadlockStormTest, TracedStormSeriallyCorrect) {
  FailPoints::Seed(0xBEEFu);
  FailPoints::Config wakeup;
  wakeup.spurious_wakeup_one_in = 4;
  wakeup.deadlock_one_in = 53;
  FailPoints::Enable(FailPoints::kWaitWakeup, wakeup);

  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(300);
  Database db(o);
  ASSERT_TRUE(db.EnableTracing().ok());
  // Kept small: checker cost grows with schedule length, and every
  // aborted attempt (deadlock victim, injected fault, voluntary abort)
  // adds events.
  StormSpec spec;
  spec.threads = 3;
  spec.txns_per_thread = 8;
  spec.num_keys = 3;
  spec.writes_per_txn = 2;
  spec.nested = true;
  spec.voluntary_abort_p = 0.2;
  StormOutcome out = RunStorm(db, spec);
  FailPoints::DisableAll();
  EXPECT_EQ(out.committed + out.gave_up,
            uint64_t{3} * static_cast<uint64_t>(spec.txns_per_thread));
  CheckDrained(db, spec, out);
  ValidateTrace(db);
}

}  // namespace
}  // namespace nestedtx
