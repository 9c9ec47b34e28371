// The held-lock fast lane must be invisible except for speed: re-reads
// and re-writes under held locks return exactly the values the full
// grant path would, emit exactly the same trace events, and never serve
// a stale value after the key's holder set has changed (the exact-word
// check).
#include <gtest/gtest.h>

#include <thread>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "serial/data_type.h"
#include "tx/visibility.h"
#include "tx/well_formed.h"

namespace nestedtx {
namespace {

EngineOptions ShortTimeoutOptions(CcMode mode = CcMode::kMossRW) {
  EngineOptions o;
  o.cc_mode = mode;
  o.lock_timeout = std::chrono::milliseconds(50);
  return o;
}

// Repeated reads and read-modify-writes on the same keys inside one
// transaction: after the first touch every access takes the fast lane,
// and each must observe the value the serial semantics dictate.
TEST(HeldLockFastPathTest, RepeatAccessValuesMatchSerialSemantics) {
  Database db;
  db.Preload("k", 5);
  auto t = db.Begin();
  for (int i = 0; i < 50; ++i) {
    auto v = t->TryGet("k");  // read under held read lock
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(**v, 5 + i);
    auto w = t->Add("k", 1);  // write under held write lock
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(*w, 5 + i + 1);
  }
  ASSERT_TRUE(t->Commit().ok());
  auto t2 = db.Begin();
  auto final_v = t2->Get("k");
  ASSERT_TRUE(final_v.ok());
  EXPECT_EQ(*final_v, 55);
  ASSERT_TRUE(t2->Commit().ok());
}

// Fast-path grants must record the same event group as cold grants: the
// trace deltas of a first (cold) and second (fast-lane) identical access
// are the same size, and the whole run passes the Theorem 34 checker.
TEST(HeldLockFastPathTest, FastPathEmitsIdenticalTraceEvents) {
  Database db;
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  auto t = db.Begin();

  const size_t before_reads = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->TryGet("k").ok());  // cold read: shard lookup + grant
  const size_t after_cold_read = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->TryGet("k").ok());  // fast-lane read
  const size_t after_fast_read = db.trace()->Snapshot().size();

  ASSERT_TRUE(t->Add("k", 2).ok());  // cold write (lock upgrade)
  const size_t after_cold_write = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->Add("k", 2).ok());  // fast-lane write
  const size_t after_fast_write = db.trace()->Snapshot().size();

  // Same number of events per access on both lanes.
  const size_t cold_read_group = after_cold_read - before_reads;
  const size_t fast_read_group = after_fast_read - after_cold_read;
  EXPECT_GT(cold_read_group, 0u);
  EXPECT_EQ(fast_read_group, cold_read_group);
  const size_t cold_write_group = after_cold_write - after_fast_read;
  const size_t fast_write_group = after_fast_write - after_cold_write;
  EXPECT_GT(cold_write_group, 0u);
  EXPECT_EQ(fast_write_group, cold_write_group);

  ASSERT_TRUE(t->Commit().ok());

  // And the recorded schedule is a valid, serially correct run of the
  // formal system — fast-lane events included.
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
  EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
}

// The fast-lane contract must hold identically with the lock word
// disabled (every key born inflated, every repeat access through the
// grant path): the same repeat-access scenario, same values, no
// fast-word counters.
TEST(HeldLockFastPathTest, RepeatAccessParityWithLockWordDisabled) {
  EngineOptions o;
  o.lock_word_enabled = false;
  Database db(o);
  db.Preload("k", 5);
  auto t = db.Begin();
  for (int i = 0; i < 50; ++i) {
    auto v = t->TryGet("k");
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(**v, 5 + i);
    auto w = t->Add("k", 1);
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(*w, 5 + i + 1);
  }
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(55));
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.fast_read_reacquires + snap.fast_write_reacquires, 0u)
      << snap.ToString();
}

// The same contract with the lock word on, on a key a conflict inflated
// while t holds it: every repeat access misses the exact-word lanes and
// takes the grant path, and a committed and an aborted child's writes
// land exactly as the serial semantics say.
TEST(HeldLockFastPathTest, RepeatAccessOnEscalatedKeyMatchesSerialSemantics) {
  Database db(ShortTimeoutOptions());
  db.Preload("k", 5);
  LockManager& locks = db.manager().locks();
  auto t = db.Begin();
  auto w0 = t->Add("k", 1);  // fast write grant
  ASSERT_TRUE(w0.ok());
  ASSERT_EQ(*w0, 6);
  EXPECT_FALSE(locks.SnapshotKeyForTest("k").inflated);

  auto sibling = db.Begin();
  auto blocked = sibling->TryGet("k");  // parks on t's write, times out
  EXPECT_TRUE(blocked.status().IsTimedOut()) << blocked.status().ToString();
  ASSERT_TRUE(sibling->Abort().ok());
  ASSERT_TRUE(locks.SnapshotKeyForTest("k").inflated);

  const StatsSnapshot before = db.stats().Snapshot();
  for (int i = 0; i < 50; ++i) {
    auto v = t->TryGet("k");
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(**v, 6 + i);
    auto w = t->Add("k", 1);
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(*w, 6 + i + 1);
    ASSERT_TRUE(locks.SnapshotKeyForTest("k").inflated) << "iteration " << i;
  }

  auto committed = t->BeginChild();
  ASSERT_TRUE(committed.ok());
  auto wc = (*committed)->Add("k", 10);
  ASSERT_TRUE(wc.ok());
  ASSERT_EQ(*wc, 66);
  ASSERT_TRUE((*committed)->Commit().ok());  // version passes to t
  auto v1 = t->TryGet("k");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(**v1, 66);

  auto aborted = t->BeginChild();
  ASSERT_TRUE(aborted.ok());
  auto wa = (*aborted)->Add("k", 100);
  ASSERT_TRUE(wa.ok());
  ASSERT_EQ(*wa, 166);
  ASSERT_TRUE((*aborted)->Abort().ok());  // version discarded
  auto v2 = t->TryGet("k");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(**v2, 66);
  auto w2 = t->Add("k", 1);
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(*w2, 67);

  const StatsSnapshot after = db.stats().Snapshot();
  EXPECT_EQ(after.fast_read_reacquires, before.fast_read_reacquires);
  EXPECT_EQ(after.fast_write_reacquires, before.fast_write_reacquires);
  EXPECT_TRUE(locks.SnapshotKeyForTest("k").inflated);

  ASSERT_TRUE(t->Commit().ok());
  EXPECT_FALSE(locks.SnapshotKeyForTest("k").inflated);  // quiesced
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(67));
}

// Deterministic invalidation: a committing child's write bumps the key's
// holder epoch, so the parent's cached read handle goes stale and the
// parent's re-read takes the full path — observing the version it just
// inherited, never the old one.
TEST(HeldLockFastPathTest, ParentRereadSeesChildCommittedVersion) {
  Database db;
  db.Preload("k", 5);
  auto parent = db.Begin();
  auto v0 = parent->TryGet("k");  // caches a read handle for k
  ASSERT_TRUE(v0.ok());
  ASSERT_EQ(**v0, 5);

  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  auto w = (*child)->Add("k", 10);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(*w, 15);
  ASSERT_TRUE((*child)->Commit().ok());  // version passes to parent

  auto v1 = parent->TryGet("k");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(**v1, 15) << "parent re-read served a stale cached value";
  ASSERT_TRUE(parent->Commit().ok());
}

// An aborting child's version must never leak into the parent's re-read,
// cached handle or not.
TEST(HeldLockFastPathTest, ParentRereadUnaffectedByChildAbort) {
  Database db;
  db.Preload("k", 5);
  auto parent = db.Begin();
  ASSERT_TRUE(parent->TryGet("k").ok());

  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE((*child)->Add("k", 100).ok());
  ASSERT_TRUE((*child)->Abort().ok());

  auto v = parent->TryGet("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 5);
  ASSERT_TRUE(parent->Commit().ok());
}

// A sibling top-level reader joining the key's holder set moves the
// epoch; the first transaction's subsequent accesses still observe
// correct values (fallback), and its held read lock still excludes a
// sibling writer — the fast lane must not have corrupted the holder set.
TEST(HeldLockFastPathTest, SiblingReaderThenWriterExclusion) {
  Database db(ShortTimeoutOptions());
  db.Preload("k", 7);
  auto t1 = db.Begin();
  ASSERT_TRUE(t1->TryGet("k").ok());
  ASSERT_TRUE(t1->TryGet("k").ok());  // fast lane engaged

  auto t2 = db.Begin();
  auto v2 = t2->TryGet("k");  // sibling read: shares the lock, bumps epoch
  ASSERT_TRUE(v2.ok());
  ASSERT_EQ(**v2, 7);

  auto v1 = t1->TryGet("k");  // stale handle -> full path, same value
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(**v1, 7);

  // t2 cannot write while t1 holds its read lock.
  auto blocked = t2->Put("k", 0);
  EXPECT_TRUE(blocked.IsTimedOut() || blocked.IsDeadlock())
      << blocked.ToString();

  ASSERT_TRUE(t2->Abort().ok());
  ASSERT_TRUE(t1->Commit().ok());
  auto t3 = db.Begin();
  auto v3 = t3->Get("k");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 7);
  ASSERT_TRUE(t3->Commit().ok());
}

// Concurrent nested traffic with heavy key reuse, validated end-to-end
// by the serializability checker — the fast lane under real interleaving.
TEST(HeldLockFastPathTest, ConcurrentRepeatAccessTraceIsSeriallyCorrect) {
  Database db(ShortTimeoutOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("a", 0);
  db.Preload("b", 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < 10; ++i) {
        Status s = db.RunTransaction(20, [&](Transaction& t) {
          const std::string& mine = (w % 2 == 0) ? "a" : "b";
          const std::string& theirs = (w % 2 == 0) ? "b" : "a";
          for (int r = 0; r < 4; ++r) {
            auto v = t.TryGet(mine);
            if (!v.ok()) return v.status();
          }
          auto add = t.Add(mine, 1);
          if (!add.ok()) return add.status();
          auto add2 = t.Add(mine, 1);  // fast-lane write
          if (!add2.ok()) return add2.status();
          auto peek = t.TryGet(theirs);
          if (!peek.ok()) return peek.status();
          return Status::OK();
        });
        (void)s;  // timeouts under contention are fine; trace must verify
      }
    });
  }
  for (auto& th : threads) th.join();

  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
  EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
}

}  // namespace
}  // namespace nestedtx
