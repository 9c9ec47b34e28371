#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "core/failpoints.h"
#include "core/lock_manager.h"

namespace nestedtx {
namespace {

TransactionId T(std::initializer_list<uint32_t> path) {
  return TransactionId(std::vector<uint32_t>(path));
}

// Polls `pred` for up to ~4s; true as soon as it holds.
bool WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 4000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : lm_(MakeOptions(), &stats_) {}

  static EngineOptions MakeOptions() {
    EngineOptions o;
    o.lock_timeout = std::chrono::milliseconds(100);
    return o;
  }

  static LockManager::Mutator Set(int64_t v) {
    return [v](std::optional<int64_t>) { return v; };
  }
  static LockManager::Mutator AddM(int64_t d) {
    return [d](std::optional<int64_t> c) { return c.value_or(0) + d; };
  }

  EngineStats stats_;
  LockManager lm_;
};

TEST_F(LockManagerTest, ReadOfAbsentKeyIsNullopt) {
  auto r = lm_.AcquireRead(T({0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST_F(LockManagerTest, BasePreloadVisible) {
  lm_.SetBase("k", 42);
  auto r = lm_.AcquireRead(T({0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 42);
}

TEST_F(LockManagerTest, WriteCreatesVersionVisibleToSelf) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(7)).ok());
  auto r = lm_.AcquireRead(T({0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
  // Base unchanged until top-level commit.
  EXPECT_FALSE(lm_.ReadBase("k").has_value());
}

TEST_F(LockManagerTest, ConcurrentReadsShareTheLock) {
  lm_.SetBase("k", 1);
  EXPECT_TRUE(lm_.AcquireRead(T({0}), "k").ok());
  EXPECT_TRUE(lm_.AcquireRead(T({1}), "k").ok());
  EXPECT_TRUE(lm_.AcquireRead(T({2}), "k").ok());
}

TEST_F(LockManagerTest, WriteBlockedByForeignReadTimesOut) {
  ASSERT_TRUE(lm_.AcquireRead(T({0}), "k").ok());
  auto r = lm_.AcquireWrite(T({1}), "k", Set(1));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status().ToString();
  EXPECT_GE(stats_.Snapshot().lock_timeouts, 1u);
}

TEST_F(LockManagerTest, ReadBlockedByForeignWriteTimesOut) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(1)).ok());
  auto r = lm_.AcquireRead(T({1}), "k");
  EXPECT_TRUE(r.status().IsTimedOut());
}

TEST_F(LockManagerTest, AncestorWriteLockDoesNotBlockDescendant) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(5)).ok());
  // Child reads through the parent's version.
  auto r = lm_.AcquireRead(T({0, 0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 5);
  // And may write over it.
  auto w = lm_.AcquireWrite(T({0, 0}), "k", AddM(1));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(**w, 6);
}

TEST_F(LockManagerTest, ChildCommitPassesVersionToParent) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0, 0}), "k", Set(9)).ok());
  lm_.OnCommit(T({0, 0}), T({0}), {"k"});
  // Parent's sibling subtree still blocked (lock now held by T0.0).
  EXPECT_TRUE(lm_.AcquireRead(T({1}), "k").status().IsTimedOut());
  // Parent itself reads its inherited version.
  auto r = lm_.AcquireRead(T({0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 9);
}

TEST_F(LockManagerTest, TopLevelCommitInstallsBase) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(3)).ok());
  lm_.OnCommit(T({0}), TransactionId::Root(), {"k"});
  EXPECT_EQ(lm_.ReadBase("k").value(), 3);
  // Everyone can access now.
  auto r = lm_.AcquireWrite(T({1}), "k", AddM(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 4);
}

// A directly constructed manager clamps lock_table_shards = 0 to one
// shard, on the grant path and on the string-keyed release path alike.
TEST_F(LockManagerTest, ZeroShardsClampToOne) {
  EngineOptions o = MakeOptions();
  o.lock_table_shards = 0;
  LockManager lm(o, &stats_);
  ASSERT_TRUE(lm.AcquireWrite(T({0}), "k", Set(3)).ok());
  lm.OnCommit(T({0}), TransactionId::Root(), {"k"});
  EXPECT_EQ(lm.ReadBase("k").value(), 3);
}

TEST_F(LockManagerTest, AbortRestoresPriorState) {
  lm_.SetBase("k", 10);
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(99)).ok());
  lm_.OnAbort(T({0}), {"k"});
  auto r = lm_.AcquireRead(T({1}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 10);
  EXPECT_GE(stats_.Snapshot().versions_discarded, 1u);
}

TEST_F(LockManagerTest, AbortedDeleteRestoresValue) {
  lm_.SetBase("k", 10);
  ASSERT_TRUE(lm_.AcquireWrite(
                     T({0}), "k",
                     [](std::optional<int64_t>) { return std::nullopt; })
                  .ok());
  // Within the writer, the key now looks deleted.
  auto del = lm_.AcquireRead(T({0}), "k");
  ASSERT_TRUE(del.ok());
  EXPECT_FALSE(del->has_value());
  lm_.OnAbort(T({0}), {"k"});
  EXPECT_EQ(lm_.ReadBase("k").value(), 10);
}

TEST_F(LockManagerTest, NestedVersionStackUnwindsPerLevel) {
  // Grandchild writes, commits to child; child aborts: value reverts to
  // base, not to the grandchild's version.
  lm_.SetBase("k", 1);
  ASSERT_TRUE(lm_.AcquireWrite(T({0, 0, 0}), "k", Set(100)).ok());
  lm_.OnCommit(T({0, 0, 0}), T({0, 0}), {"k"});
  lm_.OnAbort(T({0, 0}), {"k"});
  auto r = lm_.AcquireRead(T({1}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 1);
}

TEST_F(LockManagerTest, DeepestVersionWins) {
  // Parent writes 5, child writes 6: reads under the child see 6.
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(5)).ok());
  ASSERT_TRUE(lm_.AcquireWrite(T({0, 0}), "k", Set(6)).ok());
  auto r = lm_.AcquireRead(T({0, 0, 0}), "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 6);
  // Child aborts: parent's version resurfaces.
  lm_.OnAbort(T({0, 0}), {"k"});
  auto r2 = lm_.AcquireRead(T({0, 1}), "k");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(**r2, 5);
}

TEST_F(LockManagerTest, BlockedWriterWakesWhenReaderCommits) {
  lm_.SetBase("k", 0);
  ASSERT_TRUE(lm_.AcquireRead(T({0}), "k").ok());
  std::thread writer([&] {
    auto r = lm_.AcquireWrite(T({1}), "k", Set(1));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.OnCommit(T({0}), TransactionId::Root(), {"k"});
  writer.join();
  // Writer got through before its 100ms timeout.
  EXPECT_EQ(stats_.Snapshot().lock_timeouts, 0u);
}

TEST_F(LockManagerTest, DeadlockDetectedAcrossTwoKeys) {
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "a", Set(1)).ok());
  ASSERT_TRUE(lm_.AcquireWrite(T({1}), "b", Set(1)).ok());
  std::thread th([&] {
    // T0.0 waits for b (held by T0.1).
    auto r = lm_.AcquireWrite(T({0}), "b", Set(2));
    // Either it deadlocks (if it is the one to close the cycle) or it is
    // granted after T0.1 is aborted by the main thread.
    (void)r;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // T0.1 waits for a (held by T0.0): closes the cycle -> Deadlock.
  auto r = lm_.AcquireWrite(T({1}), "a", Set(2));
  EXPECT_TRUE(r.status().IsDeadlock()) << r.status().ToString();
  EXPECT_GE(stats_.Snapshot().deadlocks, 1u);
  // Resolve: abort T0.1 so the blocked thread can finish.
  lm_.OnAbort(T({1}), std::vector<std::string>{"a", "b"});
  th.join();
}

TEST_F(LockManagerTest, ConflictsReportDualModeHolderOnce) {
  // A transaction holding BOTH a read and a write lock on the key must
  // appear exactly once in another requester's conflict set — the wait
  // graph would otherwise chew on duplicate edges.
  ASSERT_TRUE(lm_.AcquireRead(T({0}), "k").ok());
  ASSERT_TRUE(lm_.AcquireWrite(T({0}), "k", Set(1)).ok());
  std::vector<TransactionId> c = lm_.ConflictsForTest("k", T({1}), true);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], T({0}));
  // Shared request: the write holder likewise conflicts once.
  c = lm_.ConflictsForTest("k", T({1}), false);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], T({0}));
}

// Regression for the stale-edge bug: WaitForGrant registered an edge on
// one loop iteration, the conflict set changed while it slept, and a
// deadlock detected on a LATER iteration returned without removing the
// earlier registration. The orphaned edge then made unrelated waiters
// (anything related to the stale edge's target) look like cycle members.
TEST(LockManagerStaleEdgeTest, SecondIterationDeadlockLeavesNoEdges) {
  EngineOptions o;
  o.lock_timeout = std::chrono::seconds(5);
  EngineStats stats;
  LockManager lm(o, &stats);
  const LockManager::Mutator set1 = [](std::optional<int64_t>) {
    return std::optional<int64_t>(1);
  };

  const TransactionId t1 = T({1});
  const TransactionId w = T({2});
  const TransactionId r = T({3});
  const TransactionId x = T({1, 0});  // child of t1

  ASSERT_TRUE(lm.AcquireRead(t1, "K1").ok());
  ASSERT_TRUE(lm.AcquireWrite(w, "K2", set1).ok());

  // W blocks on K1 (read-held by T1): first-iteration edge W -> T1.
  Status w_status;
  std::thread tw(
      [&] { w_status = lm.AcquireWrite(w, "K1", set1).status(); });
  ASSERT_TRUE(WaitUntil([&] { return lm.wait_graph().NumWaiters() == 1; }));

  // R read-locks K1 (compatible; no wakeup for W) then blocks on K2
  // (write-held by W): edge R -> W. On success R commits, releasing its
  // locks — R and X race for K2 once W aborts, so each must clean up
  // after itself.
  ASSERT_TRUE(lm.AcquireRead(r, "K1").ok());
  Status r_status;
  std::thread tr([&] {
    r_status = lm.AcquireWrite(r, "K2", set1).status();
    if (r_status.ok()) {
      lm.OnCommit(r, TransactionId::Root(),
                  std::vector<std::string>{"K1", "K2"});
    }
  });
  ASSERT_TRUE(WaitUntil([&] { return lm.wait_graph().NumWaiters() == 2; }));

  // T1 commits: W wakes, re-evaluates, and its SECOND-iteration
  // registration (now against R) closes the cycle W -> R -> W.
  lm.OnCommit(t1, TransactionId::Root(), std::vector<std::string>{"K1"});
  tw.join();
  EXPECT_TRUE(w_status.IsDeadlock()) << w_status.ToString();
  // The deadlocked wait left nothing behind: only R still waits.
  EXPECT_EQ(lm.wait_graph().NumWaiters(), 1u);
  EXPECT_TRUE(lm.wait_graph().WaitingOn(w).empty());

  // An independent later waiter related to the stale edge's target (X is
  // T1's child) must simply wait, not be phantom-victimized: pre-fix the
  // orphaned W -> T1 edge made X's registration look like a cycle.
  Status x_status;
  std::thread tx([&] {
    x_status = lm.AcquireWrite(x, "K2", set1).status();
    if (x_status.ok()) lm.OnAbort(x, std::vector<std::string>{"K2"});
  });
  ASSERT_TRUE(WaitUntil([&] { return lm.wait_graph().NumWaiters() == 2; }));

  // Unwind: W aborts; R and X drain in whichever order they win K2.
  lm.OnAbort(w, std::vector<std::string>{"K1", "K2"});
  tr.join();
  tx.join();
  EXPECT_TRUE(r_status.ok()) << r_status.ToString();
  EXPECT_TRUE(x_status.ok()) << x_status.ToString();
  EXPECT_EQ(lm.wait_graph().NumWaiters(), 0u);
  EXPECT_GE(stats.Snapshot().deadlocks, 1u);
}

// Regression for the wake-classification race: a waiter whose deadline
// trips must NOT blindly report Timeout — a doom (or grant, or victim
// mark) may have landed just as the timer expired, published under
// mutexes the sleeper does not hold. Pre-fix, the deadline branch
// checked only the conflict set, so a doomed waiter returned TimedOut
// (counted under lock_timeouts) and its caller would retry a transaction
// the engine had cancelled. The wait_wakeup delay failpoint stretches
// the wake-to-classify window from microseconds to hundreds of
// milliseconds so the doom deterministically lands inside it.
TEST(LockManagerWakeClassificationTest, DoomAtDeadlineReportsCancelled) {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(100);
  EngineStats stats;
  LockManager lm(o, &stats);
  const LockManager::Mutator set1 = [](std::optional<int64_t>) {
    return std::optional<int64_t>(1);
  };
  ASSERT_TRUE(lm.AcquireWrite(T({1}), "k", set1).ok());

  // Every wake inside the wait loop sleeps 400ms before classifying.
  FailPoints::Seed(1);
  FailPoints::Config cfg;
  cfg.delay_one_in = 1;
  cfg.delay_us = 400000;
  FailPoints::Enable(FailPoints::kWaitWakeup, cfg);

  Status waiter_status;
  std::thread waiter([&] {
    waiter_status = lm.AcquireRead(T({0, 0}), "k").status();
  });
  // Let the 100ms deadline trip, then doom the waiter's subtree while it
  // is still inside the stretched classification window (100ms..500ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  lm.DoomSubtree(T({0}));
  waiter.join();
  FailPoints::DisableAll();

  EXPECT_TRUE(waiter_status.IsCancelled()) << waiter_status.ToString();
  // The outcome lands on exactly one counter: cancelled, never timeout.
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.waits_cancelled, 1u);
  EXPECT_EQ(snap.lock_timeouts, 0u);
  // And the wait left no residue behind.
  EXPECT_EQ(lm.wait_graph().NumWaiters(), 0u);
  lm.ClearDoom(T({0}));
  EXPECT_EQ(lm.DoomedRootCount(), 0u);
  EXPECT_EQ(lm.ParkedWaiterCount(), 0u);
  lm.OnAbort(T({1}), std::vector<std::string>{"k"});
}

// Companion: with no doom in flight, the same stretched deadline wake
// still classifies as Timeout — the fix must not over-steer.
TEST(LockManagerWakeClassificationTest, PlainDeadlineStillReportsTimeout) {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(100);
  EngineStats stats;
  LockManager lm(o, &stats);
  const LockManager::Mutator set1 = [](std::optional<int64_t>) {
    return std::optional<int64_t>(1);
  };
  ASSERT_TRUE(lm.AcquireWrite(T({1}), "k", set1).ok());

  FailPoints::Seed(1);
  FailPoints::Config cfg;
  cfg.delay_one_in = 1;
  cfg.delay_us = 50000;
  FailPoints::Enable(FailPoints::kWaitWakeup, cfg);
  Status s = lm.AcquireRead(T({0, 0}), "k").status();
  FailPoints::DisableAll();

  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.lock_timeouts, 1u);
  EXPECT_EQ(snap.waits_cancelled, 0u);
  lm.OnAbort(T({1}), std::vector<std::string>{"k"});
}

}  // namespace
}  // namespace nestedtx
