// Deterministic coverage for the fault-tolerant execution layer: orphan
// cancellation (doomed subtrees, parked-waiter wakeups), RetryExecutor
// (subtree retry, tree budgets, escalation), the admission gate, and the
// NESTEDTX_FAILPOINTS env grammar. The probabilistic end — failure
// storms — lives in chaos_storm_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/database.h"
#include "core/failpoints.h"
#include "core/retry.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

using std::chrono::steady_clock;

class RetryTest : public ::testing::Test {
 protected:
  // Failpoints are process-global: never leak them into later tests.
  void TearDown() override { FailPoints::DisableAll(); }
};

// ---------------------------------------------------------------------
// Orphan cancellation.

TEST_F(RetryTest, CancelWakesParkedWaiter) {
  EngineOptions o;
  // Far longer than the test should take: a waiter that misses the
  // cancellation wakeup fails the elapsed-time assertion long before
  // this expires.
  o.lock_timeout = std::chrono::milliseconds(30000);
  Database db(o);

  auto holder = db.Begin();
  ASSERT_TRUE(holder->Put("k", 1).ok());

  auto top = db.Begin();
  Result<std::unique_ptr<Transaction>> child = top->BeginChild();
  ASSERT_TRUE(child.ok());

  std::atomic<bool> started{false};
  Status got;
  std::chrono::milliseconds waited{0};
  std::thread waiter([&] {
    started.store(true);
    const auto start = steady_clock::now();
    got = (*child)->Get("k").status();
    waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        steady_clock::now() - start);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  top->Cancel();
  waiter.join();

  EXPECT_TRUE(got.IsCancelled()) << got.ToString();
  EXPECT_LT(waited.count(), 10000) << "missed the cancellation wakeup";
  // The whole subtree is doomed: the top itself short-circuits too.
  EXPECT_TRUE(top->Put("other", 1).IsCancelled());
  EXPECT_TRUE(db.manager().locks().IsDoomed(top->id()));

  ASSERT_TRUE((*child)->Abort().ok());
  ASSERT_TRUE(top->Abort().ok());
  ASSERT_TRUE(holder->Commit().ok());

  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GE(snap.waits_cancelled, 1u) << snap.ToString();
  // The abort lifted the doom and the park table drained.
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);
  EXPECT_EQ(db.manager().locks().ParkedWaiterCount(), 0u);
}

TEST_F(RetryTest, CancelBeforeWaitShortCircuitsWithoutParking) {
  Database db;
  auto holder = db.Begin();
  ASSERT_TRUE(holder->Put("k", 1).ok());
  auto top = db.Begin();
  top->Cancel();
  // Doomed before the wait even starts: the operation fails fast at
  // CheckActive, nothing ever parks.
  EXPECT_TRUE(top->Get("k").status().IsCancelled());
  EXPECT_EQ(db.manager().locks().ParkedWaiterCount(), 0u);
  ASSERT_TRUE(top->Abort().ok());
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);
}

TEST_F(RetryTest, CancelIsSubtreeScoped) {
  Database db;
  auto a = db.Begin();
  auto b = db.Begin();
  a->Cancel();
  EXPECT_TRUE(db.manager().locks().IsDoomed(a->id()));
  EXPECT_FALSE(db.manager().locks().IsDoomed(b->id()));
  EXPECT_TRUE(b->Put("k", 2).ok());
  ASSERT_TRUE(a->Abort().ok());
  ASSERT_TRUE(b->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), 2);
}

// ---------------------------------------------------------------------
// RetryExecutor.

TEST_F(RetryTest, RunRetriesTransientFailures) {
  Database db;
  RetryPolicy p;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 4;
  RetryExecutor ex(&db, p);
  int calls = 0;
  Status s = ex.Run([&](Transaction& tx) -> Status {
    if (++calls < 3) return Status::Aborted("transient");
    return tx.Put("k", 7);
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(db.ReadCommitted("k"), 7);
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.retries_attempted, 2u);
  EXPECT_EQ(snap.retries_exhausted, 0u);
}

TEST_F(RetryTest, RunDoesNotRetrySemanticFailures) {
  Database db;
  RetryExecutor ex(&db);
  int calls = 0;
  Status s = ex.Run([&](Transaction&) -> Status {
    ++calls;
    return Status::InvalidArgument("semantic");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(db.stats().Snapshot().retries_attempted, 0u);
}

TEST_F(RetryTest, TreeBudgetBoundsRetries) {
  Database db;
  RetryPolicy p;
  p.max_attempts = 100;
  p.tree_budget = 3;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 2;
  RetryExecutor ex(&db, p);
  int calls = 0;
  Status s = ex.Run([&](Transaction&) -> Status {
    ++calls;
    return Status::TimedOut("always");
  });
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(calls, 1 + 3);  // initial run + the whole tree budget
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.retries_attempted, 3u);
  EXPECT_EQ(snap.retries_exhausted, 1u);
}

TEST_F(RetryTest, RunChildRetriesOnlyTheSubtree) {
  Database db;
  RetryPolicy p;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 4;
  RetryExecutor ex(&db, p);
  int parent_calls = 0;
  int child_calls = 0;
  Status s = ex.Run([&](Transaction& tx) -> Status {
    ++parent_calls;
    RETURN_IF_ERROR(tx.Put("base", 1));
    return ex.RunChild(tx, [&](Transaction& c) -> Status {
      if (++child_calls < 3) return Status::TimedOut("transient");
      return c.Put("k", 5);
    });
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(parent_calls, 1) << "subtree failure must not re-run parent";
  EXPECT_EQ(child_calls, 3);
  EXPECT_EQ(db.ReadCommitted("base"), 1);
  EXPECT_EQ(db.ReadCommitted("k"), 5);
}

TEST_F(RetryTest, NestedRetriesShareTheTreeBudget) {
  Database db;
  RetryPolicy p;
  p.max_attempts = 100;
  p.tree_budget = 5;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 2;
  p.escalate_cancels_parent = false;  // keep the parent alive to observe
  RetryExecutor ex(&db, p);
  int child_calls = 0;
  Status s = ex.Run([&](Transaction& tx) -> Status {
    Status cs = ex.RunChild(tx, [&](Transaction&) -> Status {
      ++child_calls;
      return Status::TimedOut("always");
    });
    EXPECT_TRUE(cs.IsAborted()) << cs.ToString();
    return Status::InvalidArgument("stop here");  // don't retry the top
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  // The child's retries drew down the same pool the tree owns: initial
  // child run + 5 budgeted retries, then exhaustion.
  EXPECT_EQ(child_calls, 1 + 5);
  EXPECT_EQ(db.stats().Snapshot().retries_exhausted, 1u);
}

TEST_F(RetryTest, ExhaustedChildEscalatesByCancellingParent) {
  Database db;
  RetryPolicy p;
  p.max_attempts = 2;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 2;
  RetryExecutor ex(&db, p);
  auto top = db.Begin();
  Status s = ex.RunChild(*top, [&](Transaction&) -> Status {
    return Status::TimedOut("always");
  });
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  // Escalation doomed the parent subtree: siblings and the parent itself
  // now short-circuit, and only Abort is allowed.
  EXPECT_TRUE(db.manager().locks().IsDoomed(top->id()));
  EXPECT_TRUE(top->Put("k", 1).IsCancelled());
  ASSERT_TRUE(top->Abort().ok());
  EXPECT_EQ(db.manager().locks().DoomedRootCount(), 0u);
}

TEST_F(RetryTest, OrphanedChildScopeDoesNotSpin) {
  Database db;
  RetryExecutor ex(&db);
  auto top = db.Begin();
  top->Cancel();
  int calls = 0;
  Status s = ex.RunChild(*top, [&](Transaction&) -> Status {
    ++calls;
    return Status::OK();
  });
  // The enclosing scope is doomed: the child scope must unwind with
  // Cancelled, not retry inside a dead subtree.
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_EQ(calls, 0);
  ASSERT_TRUE(top->Abort().ok());
}

TEST_F(RetryTest, BackoffIsDeterministicInSeedScopeAttempt) {
  RetryPolicy p;
  const TransactionId scope = TransactionId::Root().Child(3);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const uint64_t d = RetryBackoffDelayUs(p, scope, attempt);
    EXPECT_EQ(d, RetryBackoffDelayUs(p, scope, attempt));
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, uint64_t{p.backoff_cap_us});
  }
  // Distinct scopes desynchronize (the anti-livelock property): across
  // several attempts the two schedules cannot be identical.
  const TransactionId other = TransactionId::Root().Child(4);
  bool differs = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    differs |= RetryBackoffDelayUs(p, scope, attempt) !=
               RetryBackoffDelayUs(p, other, attempt);
  }
  EXPECT_TRUE(differs);
  RetryPolicy off = p;
  off.backoff_base_us = 0;
  EXPECT_EQ(RetryBackoffDelayUs(off, scope, 1), 0u);
}

// ---------------------------------------------------------------------
// Admission gate.

TEST_F(RetryTest, AdmissionShedsBeyondQueueBound) {
  EngineOptions o;
  o.admission_max_inflight = 1;
  o.admission_max_queued = 0;
  Database db(o);
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread t([&] {
    Status s = db.RunTransaction(1, [&](Transaction& tx) -> Status {
      inside.store(true);
      while (!release.load()) std::this_thread::yield();
      return tx.Put("held", 1);
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  while (!inside.load()) std::this_thread::yield();
  // The slot is taken and the queue bound is zero: shed immediately.
  Status s = db.RunTransaction(1, [](Transaction&) { return Status::OK(); });
  EXPECT_TRUE(s.IsOverloaded()) << s.ToString();
  release.store(true);
  t.join();
  EXPECT_EQ(db.stats().Snapshot().admission_rejected, 1u);
  // The gate drained: new work admits again.
  EXPECT_TRUE(
      db.RunTransaction(1, [](Transaction& tx) { return tx.Put("after", 2); })
          .ok());
  EXPECT_EQ(db.ReadCommitted("held"), 1);
  EXPECT_EQ(db.ReadCommitted("after"), 2);
}

TEST_F(RetryTest, AdmissionQueuesWithinBound) {
  EngineOptions o;
  o.admission_max_inflight = 1;
  o.admission_max_queued = 8;
  Database db(o);
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ASSERT_TRUE(db.RunTransaction(1, [&](Transaction&) -> Status {
                    inside.store(true);
                    while (!release.load()) std::this_thread::yield();
                    return Status::OK();
                  }).ok());
  });
  while (!inside.load()) std::this_thread::yield();
  std::thread queued([&] {
    // Queue has room: this blocks (not sheds) until the slot frees.
    ASSERT_TRUE(
        db.RunTransaction(1, [](Transaction& tx) { return tx.Put("q", 3); })
            .ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(db.ReadCommitted("q").has_value()) << "queued txn ran early";
  release.store(true);
  holder.join();
  queued.join();
  EXPECT_EQ(db.ReadCommitted("q"), 3);
  EXPECT_EQ(db.stats().Snapshot().admission_rejected, 0u);
}

TEST_F(RetryTest, RawBeginIsNeverGated) {
  EngineOptions o;
  o.admission_max_inflight = 1;
  o.admission_max_queued = 0;
  Database db(o);
  // Two raw handles at once: the gate only covers managed execution.
  auto a = db.Begin();
  auto b = db.Begin();
  EXPECT_TRUE(a->Put("a", 1).ok());
  EXPECT_TRUE(b->Put("b", 2).ok());
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
  EXPECT_EQ(db.stats().Snapshot().admission_rejected, 0u);
}

// ---------------------------------------------------------------------
// Failpoint sites and env-spec grammar.

TEST_F(RetryTest, BeginTxnFailpointFires) {
  FailPoints::Config c;
  c.deadlock_one_in = 1;  // every decision fires
  FailPoints::Enable(FailPoints::kBeginTxn, c);
  Database db;
  auto top = db.Begin();  // top-level Begin is not a BeginChild site
  Result<std::unique_ptr<Transaction>> child = top->BeginChild();
  ASSERT_FALSE(child.ok());
  EXPECT_TRUE(child.status().IsDeadlock()) << child.status().ToString();
  FailPoints::DisableAll();
  ASSERT_TRUE(top->BeginChild().ok());
}

TEST_F(RetryTest, RetryBackoffFailpointConsumesAttempts) {
  FailPoints::Config c;
  c.timeout_one_in = 1;  // every backoff fails
  FailPoints::Enable(FailPoints::kRetryBackoff, c);
  Database db;
  RetryPolicy p;
  p.max_attempts = 4;
  p.backoff_base_us = 1;
  p.backoff_cap_us = 2;
  RetryExecutor ex(&db, p);
  int calls = 0;
  Status s = ex.Run([&](Transaction&) -> Status {
    ++calls;
    return Status::Aborted("force a retry");
  });
  EXPECT_TRUE(s.IsAborted());
  // The first attempt ran the body; every subsequent attempt died in the
  // injected backoff failure before reaching it.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(db.stats().Snapshot().retries_attempted, 3u);
}

TEST_F(RetryTest, EnableFromSpecParsesGrammar) {
  EXPECT_EQ(FailPoints::EnableFromSpec(
                "begin_txn:deadlock_one_in=8;"
                "retry_backoff:timeout_one_in=4,seed=42"),
            2);
  EXPECT_TRUE(FailPoints::Armed(FailPoints::kBeginTxn));
  EXPECT_TRUE(FailPoints::Armed(FailPoints::kRetryBackoff));
  EXPECT_FALSE(FailPoints::Armed(FailPoints::kLockGrant));
  FailPoints::DisableAll();

  EXPECT_EQ(FailPoints::EnableFromSpec("all:delay_one_in=16,delay_us=10"),
            static_cast<int>(FailPoints::kNumSites));
  for (int s = 0; s < FailPoints::kNumSites; ++s) {
    EXPECT_TRUE(FailPoints::Armed(static_cast<FailPoints::Site>(s)));
  }
  FailPoints::DisableAll();

  // The WAL sites and their IO-fault keys parse through the same
  // grammar (the crash CI job arms them from the environment).
  EXPECT_EQ(FailPoints::EnableFromSpec(
                "wal_append:io_error_one_in=8;"
                "wal_fsync:short_write_one_in=4,delay_one_in=2;"
                "wal_recover:io_error_one_in=16"),
            3);
  EXPECT_TRUE(FailPoints::Armed(FailPoints::kWalAppend));
  EXPECT_TRUE(FailPoints::Armed(FailPoints::kWalFsync));
  EXPECT_TRUE(FailPoints::Armed(FailPoints::kWalRecover));
  FailPoints::DisableAll();

  // Unknown site / bad parameter: skipped with nothing armed.
  EXPECT_EQ(FailPoints::EnableFromSpec("bogus:delay_one_in=1"), 0);
  EXPECT_EQ(FailPoints::EnableFromSpec("lock_grant:nonsense=1"), 0);
  EXPECT_EQ(FailPoints::EnableFromSpec("lock_grant:delay_one_in=xyz"), 0);
  EXPECT_FALSE(FailPoints::Armed(FailPoints::kLockGrant));
  EXPECT_EQ(FailPoints::EnableFromSpec(""), 0);
}

TEST_F(RetryTest, SiteNamesRoundTripThroughSpec) {
  for (int s = 0; s < FailPoints::kNumSites; ++s) {
    const auto site = static_cast<FailPoints::Site>(s);
    FailPoints::DisableAll();
    EXPECT_EQ(FailPoints::EnableFromSpec(
                  StrCat(FailPoints::SiteName(site), ":delay_one_in=2")),
              1)
        << FailPoints::SiteName(site);
    EXPECT_TRUE(FailPoints::Armed(site)) << FailPoints::SiteName(site);
  }
}

}  // namespace
}  // namespace nestedtx
