// Silo-style OCC behind the CC seam (DESIGN.md §4.9): transactions run
// lock-free against private read/write buffers and commit through the
// three-step protocol (lock write set in sorted order via the one-word
// CAS lane, validate the read set's lock words exactly unchanged,
// install + bump seqs). These tests pin the observable contract:
//
//  - a read whose key's word changed before commit is a retryable
//    Aborted, counted under occ_validation_aborts (seq-as-version);
//  - nested semantics are buffer merges — child commit folds its sets
//    into the parent, partial abort discards exactly the child's sets;
//  - the sorted commit lock phase cannot deadlock (deadlocks == 0 under
//    opposite-order write meshes);
//  - a traced run executes the same commit, takes no lock grant, and
//    leaves a schedule the Theorem 34 checker accepts.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/lock_manager.h"
#include "serial/data_type.h"
#include "tx/well_formed.h"

namespace nestedtx {
namespace {

EngineOptions OccOptions() {
  EngineOptions o;
  o.cc_protocol = CcProtocol::kOcc;
  return o;
}

// The happy path: private buffers, then one atomic install. Mixed op
// kinds (Put / Add / Delete / reads) all flow through the same write
// set, and the commit is the only thing a concurrent observer can see.
TEST(OccTest, BufferedOpsInstallAtomicallyAtCommit) {
  Database db(OccOptions());
  db.Preload("a", 10);
  db.Preload("b", 20);
  db.Preload("c", 30);
  auto txn = db.Begin();
  auto a = txn->TryGet("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(**a, 10);
  ASSERT_TRUE(txn->Put("a", 11).ok());
  auto a2 = txn->TryGet("a");  // read-own-write through the buffer
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(**a2, 11);
  auto b = txn->Add("b", 5);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 25);
  ASSERT_TRUE(txn->Delete("c").ok());
  auto c = txn->TryGet("c");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->has_value());
  // Nothing visible before commit.
  EXPECT_EQ(db.ReadCommitted("a"), std::optional<int64_t>(10));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("a"), std::optional<int64_t>(11));
  EXPECT_EQ(db.ReadCommitted("b"), std::optional<int64_t>(25));
  EXPECT_EQ(db.ReadCommitted("c"), std::nullopt);

  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GT(snap.occ_reads, 0u) << snap.ToString();
  EXPECT_GT(snap.occ_writes, 0u) << snap.ToString();
  EXPECT_EQ(snap.occ_commits, 1u) << snap.ToString();
  EXPECT_EQ(snap.occ_validation_aborts, 0u) << snap.ToString();
  // Lock-free execution: no grants, no waits, no deadlocks.
  EXPECT_EQ(snap.lock_waits, 0u) << snap.ToString();
  EXPECT_EQ(snap.deadlocks, 0u) << snap.ToString();
}

// Seq-as-version: a write committed between a transaction's read and
// its commit bumps the key's word seq, so validation must fail with a
// retryable Aborted and the stale transaction must install nothing.
TEST(OccTest, StaleReadAbortsAtCommit) {
  Database db(OccOptions());
  db.Preload("k", 1);
  auto stale = db.Begin();
  auto v = stale->TryGet("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 1);
  ASSERT_TRUE(stale->Put("other", 99).ok());

  auto winner = db.Begin();
  ASSERT_TRUE(winner->Put("k", 2).ok());
  ASSERT_TRUE(winner->Commit().ok());

  const Status s = stale->Commit();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(2));
  EXPECT_EQ(db.ReadCommitted("other"), std::nullopt);
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_GE(snap.occ_validation_aborts, 1u) << snap.ToString();
  EXPECT_EQ(snap.occ_commits, 1u) << snap.ToString();
}

// Read-only transactions validate too: OCC serializes reads at commit
// time, so a read-only commit over a since-changed key must abort
// rather than report a value no serial order explains.
TEST(OccTest, ReadOnlyCommitValidates) {
  Database db(OccOptions());
  db.Preload("k", 1);
  auto reader = db.Begin();
  auto v = reader->TryGet("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 1);

  auto writer = db.Begin();
  ASSERT_TRUE(writer->Put("k", 2).ok());
  ASSERT_TRUE(writer->Commit().ok());

  EXPECT_TRUE(reader->Commit().IsAborted());

  // And the converse: an undisturbed read-only commit succeeds without
  // taking any commit lock.
  auto calm = db.Begin();
  ASSERT_TRUE(calm->TryGet("k").ok());
  EXPECT_TRUE(calm->Commit().ok());
}

// Child commit merges buffers into the parent; partial abort discards
// exactly the child's buffers. Only the top level touches the store.
TEST(OccTest, ChildMergeAndPartialAbort) {
  Database db(OccOptions());
  db.Preload("k", 5);
  auto parent = db.Begin();
  ASSERT_TRUE(parent->Put("p", 1).ok());

  // Aborted child: its writes vanish, the parent's survive.
  auto doomed = parent->BeginChild();
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE((*doomed)->Put("k", 100).ok());
  ASSERT_TRUE((*doomed)->Put("p", 100).ok());
  ASSERT_TRUE((*doomed)->Abort().ok());
  auto after_abort = parent->TryGet("k");
  ASSERT_TRUE(after_abort.ok());
  EXPECT_EQ(**after_abort, 5) << "partial abort must discard child writes";
  auto p_after = parent->TryGet("p");
  ASSERT_TRUE(p_after.ok());
  EXPECT_EQ(**p_after, 1);

  // Committed child: its effects land in the parent's buffers (and only
  // there — the store is untouched until the top level commits).
  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  auto added = (*child)->Add("k", 7);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 12);
  ASSERT_TRUE((*child)->Commit().ok());
  auto merged = parent->TryGet("k");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(**merged, 12);
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(5));

  ASSERT_TRUE(parent->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(12));
  EXPECT_EQ(db.ReadCommitted("p"), std::optional<int64_t>(1));
}

// Merge-time validation: a child that observed the parent's buffered
// value must find that value unchanged when it merges, or the child
// aborts retryably (the parent, whose own state is intact, continues).
TEST(OccTest, ChildMergeValidatesAgainstParentBuffer) {
  Database db(OccOptions());
  auto parent = db.Begin();
  ASSERT_TRUE(parent->Put("k", 1).ok());
  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  auto v = (*child)->TryGet("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 1);  // read from the parent's buffer
  // The parent overwrites what the child observed.
  ASSERT_TRUE(parent->Put("k", 2).ok());
  const Status s = (*child)->Commit();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  auto pv = parent->TryGet("k");
  ASSERT_TRUE(pv.ok());
  EXPECT_EQ(**pv, 2);
  ASSERT_TRUE(parent->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(2));
}

// The commit lock phase acquires write-set words in sorted key order:
// opposite-order writers cannot deadlock, only invalidate each other.
// The retry loop (with per-attempt jitter scopes) must drain the mesh.
TEST(OccTest, SortedCommitLockingNeverDeadlocks) {
  Database db(OccOptions());
  db.Preload("x", 0);
  db.Preload("y", 0);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  std::atomic<int> at_gate{0};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &at_gate, &committed, t] {
      at_gate.fetch_add(1);
      while (at_gate.load() < kThreads) std::this_thread::yield();
      const bool forward = (t % 2) == 0;
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Status s = db.RunTransaction(1000, [&](Transaction& tx) -> Status {
          RETURN_IF_ERROR(tx.Add(forward ? "x" : "y", 1).status());
          RETURN_IF_ERROR(tx.Add(forward ? "y" : "x", 1).status());
          return Status::OK();
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(committed.load(), uint64_t{kThreads} * kTxnsPerThread);
  const uint64_t expected = committed.load();
  EXPECT_EQ(db.ReadCommitted("x"), std::optional<int64_t>(expected));
  EXPECT_EQ(db.ReadCommitted("y"), std::optional<int64_t>(expected));
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.deadlocks, 0u) << snap.ToString();
  EXPECT_EQ(snap.prevention_aborts, 0u) << snap.ToString();
}

// Traced OCC runs the same word-validating commit as untraced OCC (no
// lock grant, no inflation) and stamps the buffered ops at its
// serialization point; the Theorem 34 checker must accept the schedule.
TEST(OccTest, TracedOccValidatesUnderChecker) {
  EngineOptions o = OccOptions();
  Database db(o);
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  auto txn = db.Begin();
  auto v = txn->TryGet("k");
  ASSERT_TRUE(v.ok());
  auto child = txn->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE((*child)->Add("k", 1).ok());
  ASSERT_TRUE((*child)->Commit().ok());
  ASSERT_TRUE(txn->Put("j", 7).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(2));
  EXPECT_EQ(db.ReadCommitted("j"), std::optional<int64_t>(7));
  const StatsSnapshot snap = db.stats().Snapshot();
  EXPECT_EQ(snap.lock_grants, 0u) << snap.ToString();
  EXPECT_EQ(snap.lock_word_inflations, 0u) << snap.ToString();

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

// A traced stale commit must leave a well-formed trace too: the failed
// validation aborts the transaction before any of its accesses are
// stamped, and the checker accepts the schedule in which it simply
// never commits.
TEST(OccTest, TracedStaleCommitAbortsCleanly) {
  EngineOptions o = OccOptions();
  Database db(o);
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  auto stale = db.Begin();
  auto v = stale->TryGet("k");
  ASSERT_TRUE(v.ok());
  auto winner = db.Begin();
  ASSERT_TRUE(winner->Put("k", 2).ok());
  ASSERT_TRUE(winner->Commit().ok());
  EXPECT_TRUE(stale->Commit().IsAborted());

  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  Status wf = CheckConcurrentWellFormed(*st, alpha);
  ASSERT_TRUE(wf.ok()) << wf.ToString();
  Status sc = CheckSeriallyCorrectForAll(*st, alpha, {});
  EXPECT_TRUE(sc.ok()) << sc.ToString();
}

// NormalizeOptions: kOcc requires the one-word lane (validation
// versions live in the word), so the engine forces it on even if the
// caller disabled it.
TEST(OccTest, OccForcesLockWordOn) {
  EngineOptions o = OccOptions();
  o.lock_word_enabled = false;
  Database db(o);
  EXPECT_TRUE(db.options().lock_word_enabled);
  db.Preload("k", 1);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Add("k", 1).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(2));
}

}  // namespace
}  // namespace nestedtx
