// Single-threaded semantics of the Transaction/Database API across all
// concurrency-control modes.
#include <gtest/gtest.h>

#include "core/database.h"

namespace nestedtx {
namespace {

EngineOptions FastTimeout(CcMode mode = CcMode::kMossRW) {
  EngineOptions o;
  o.cc_mode = mode;
  o.lock_timeout = std::chrono::milliseconds(100);
  return o;
}

TEST(TransactionTest, PutGetRoundTrip) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", 5).ok());
  auto r = t->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 5);
}

TEST(TransactionTest, GetMissingIsNotFound) {
  Database db(FastTimeout());
  auto t = db.Begin();
  EXPECT_TRUE(t->Get("nope").status().IsNotFound());
  auto r = t->TryGet("nope");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(TransactionTest, AddStartsFromZero) {
  Database db(FastTimeout());
  auto t = db.Begin();
  auto r = t->Add("counter", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
  auto r2 = t->Add("counter", 4);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 7);
}

TEST(TransactionTest, DeleteRemovesKey) {
  Database db(FastTimeout());
  db.Preload("k", 1);
  auto t = db.Begin();
  ASSERT_TRUE(t->Delete("k").ok());
  EXPECT_TRUE(t->Get("k").status().IsNotFound());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_FALSE(db.ReadCommitted("k").has_value());
}

TEST(TransactionTest, UncommittedInvisibleToCommittedView) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", 9).ok());
  EXPECT_FALSE(db.ReadCommitted("k").has_value());
  ASSERT_TRUE(t->Abort().ok());
  EXPECT_FALSE(db.ReadCommitted("k").has_value());
}

TEST(TransactionTest, ChildSeesParentWrites) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", 1).ok());
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  auto r = (*c)->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1);
  ASSERT_TRUE((*c)->Commit().ok());
  ASSERT_TRUE(t->Commit().ok());
}

TEST(TransactionTest, ChildCommitMakesWritesVisibleToParent) {
  Database db(FastTimeout());
  auto t = db.Begin();
  {
    auto c = t->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Put("k", 10).ok());
    ASSERT_TRUE((*c)->Commit().ok());
  }
  auto r = t->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 10);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 10);
}

TEST(TransactionTest, ChildAbortDiscardsOnlyItsWrites) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("kept", 1).ok());
  {
    auto c = t->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Put("dropped", 2).ok());
    ASSERT_TRUE((*c)->Put("kept", 99).ok());
    ASSERT_TRUE((*c)->Abort().ok());
  }
  // Parent continues unharmed: kept reverts to the parent's version.
  auto kept = t->Get("kept");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, 1);
  EXPECT_TRUE(t->Get("dropped").status().IsNotFound());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("kept").value(), 1);
  EXPECT_FALSE(db.ReadCommitted("dropped").has_value());
}

TEST(TransactionTest, GrandchildCommitChainsUpward) {
  Database db(FastTimeout());
  auto t = db.Begin();
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  auto g = (*c)->BeginChild();
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE((*g)->Put("k", 7).ok());
  ASSERT_TRUE((*g)->Commit().ok());
  ASSERT_TRUE((*c)->Commit().ok());
  auto r = t->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 7);
}

TEST(TransactionTest, MiddleAbortDiscardsGrandchildCommit) {
  Database db(FastTimeout());
  db.Preload("k", 1);
  auto t = db.Begin();
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  auto g = (*c)->BeginChild();
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE((*g)->Put("k", 100).ok());
  ASSERT_TRUE((*g)->Commit().ok());   // commits into c
  ASSERT_TRUE((*c)->Abort().ok());    // discards g's committed work
  auto r = t->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 1);
}

TEST(TransactionTest, CommitWithActiveChildrenFails) {
  Database db(FastTimeout());
  auto t = db.Begin();
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(t->Commit().IsFailedPrecondition());
  ASSERT_TRUE((*c)->Commit().ok());
  EXPECT_TRUE(t->Commit().ok());
}

TEST(TransactionTest, DoubleReturnFails) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_TRUE(t->Commit().IsFailedPrecondition());
  EXPECT_TRUE(t->Abort().IsFailedPrecondition());
  EXPECT_TRUE(t->Put("k", 1).IsFailedPrecondition());
  EXPECT_FALSE(t->BeginChild().ok());
}

TEST(TransactionTest, RaiiDestructorAborts) {
  Database db(FastTimeout());
  {
    auto t = db.Begin();
    ASSERT_TRUE(t->Put("k", 1).ok());
    // dropped without commit
  }
  EXPECT_FALSE(db.ReadCommitted("k").has_value());
  EXPECT_EQ(db.stats().Snapshot().top_level_aborted, 1u);
}

TEST(TransactionTest, IdsAreHierarchical) {
  Database db(FastTimeout());
  auto t = db.Begin();
  auto c1 = t->BeginChild();
  auto c2 = t->BeginChild();
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ((*c1)->id(), t->id().Child(0));
  EXPECT_EQ((*c2)->id(), t->id().Child(1));
  EXPECT_TRUE(t->id().IsProperAncestorOf((*c1)->id()));
  (void)(*c1)->Commit();
  (void)(*c2)->Commit();
}

TEST(TransactionTest, RunTransactionCommitsOnOk) {
  Database db(FastTimeout());
  Status s = db.RunTransaction(3, [](Transaction& t) {
    return t.Put("k", 11);
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 11);
}

TEST(TransactionTest, RunTransactionAbortsOnError) {
  Database db(FastTimeout());
  Status s = db.RunTransaction(3, [](Transaction& t) {
    (void)t.Put("k", 11);
    return Status::InvalidArgument("business rule violated");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_FALSE(db.ReadCommitted("k").has_value());
}

TEST(TransactionTest, RunNestedRetriesSubtreeOnly) {
  Database db(FastTimeout());
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("base", 1).ok());
  int attempts = 0;
  Status s = Database::RunNested(*t, 5, [&](Transaction& c) {
    if (++attempts < 3) return Status::Aborted("induced failure");
    return c.Put("k", attempts);
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(attempts, 3);
  auto r = t->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
  ASSERT_TRUE(t->Commit().ok());
}

// ----- mode-specific behaviour -----

TEST(TransactionModeTest, ExclusiveModeReadsBlockReaders) {
  Database db(FastTimeout(CcMode::kExclusive));
  db.Preload("k", 1);
  auto t1 = db.Begin();
  ASSERT_TRUE(t1->Get("k").ok());
  auto t2 = db.Begin();
  // Under exclusive locking even a read-read pair conflicts.
  EXPECT_TRUE(t2->Get("k").status().IsTimedOut());
  (void)t1->Commit();
}

TEST(TransactionModeTest, MossModeReadsShare) {
  Database db(FastTimeout(CcMode::kMossRW));
  db.Preload("k", 1);
  auto t1 = db.Begin();
  ASSERT_TRUE(t1->Get("k").ok());
  auto t2 = db.Begin();
  EXPECT_TRUE(t2->Get("k").ok());
  (void)t1->Commit();
  (void)t2->Commit();
}

TEST(TransactionModeTest, FlatChildAbortDoomsWholeTransaction) {
  Database db(FastTimeout(CcMode::kFlat2PL));
  db.Preload("k", 1);
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", 2).ok());
  {
    auto c = t->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Put("k", 3).ok());
    ASSERT_TRUE((*c)->Abort().ok());
  }
  // The whole transaction is doomed now.
  EXPECT_TRUE(t->Put("other", 1).IsAborted());
  EXPECT_TRUE(t->Commit().IsAborted());
  ASSERT_TRUE(t->Abort().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 1);  // everything rolled back
}

TEST(TransactionModeTest, MossChildAbortKeepsParentAlive) {
  Database db(FastTimeout(CcMode::kMossRW));
  db.Preload("k", 1);
  auto t = db.Begin();
  ASSERT_TRUE(t->Put("k", 2).ok());
  {
    auto c = t->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Put("k", 3).ok());
    ASSERT_TRUE((*c)->Abort().ok());
  }
  ASSERT_TRUE(t->Put("other", 1).ok());  // parent fine
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 2);
  EXPECT_EQ(db.ReadCommitted("other").value(), 1);
}

TEST(TransactionModeTest, SerialModeStillCorrect) {
  Database db(FastTimeout(CcMode::kSerial));
  ASSERT_TRUE(db.RunTransaction(1, [](Transaction& t) {
                  return t.Put("k", 1);
                }).ok());
  ASSERT_TRUE(db.RunTransaction(1, [](Transaction& t) {
                  auto r = t.Add("k", 1);
                  return r.ok() ? Status::OK() : r.status();
                }).ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 2);
}

TEST(TransactionTest, GetForUpdateTakesExclusiveLock) {
  Database db(FastTimeout());
  db.Preload("k", 5);
  auto t1 = db.Begin();
  auto v = t1->GetForUpdate("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->value(), 5);
  // Another transaction's plain read is now blocked (write lock held).
  auto t2 = db.Begin();
  EXPECT_TRUE(t2->Get("k").status().IsTimedOut());
  ASSERT_TRUE(t1->Put("k", 6).ok());
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 6);
}

TEST(TransactionTest, GetForUpdateOfMissingKeyIsNullopt) {
  Database db(FastTimeout());
  auto t = db.Begin();
  auto v = t->GetForUpdate("absent");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->has_value());
  // The exclusive lock is held even though the key is absent.
  auto t2 = db.Begin();
  EXPECT_TRUE(t2->Get("absent").status().IsTimedOut());
}

TEST(TransactionTest, GetForUpdateIsAbortSafe) {
  Database db(FastTimeout());
  db.Preload("k", 5);
  auto t = db.Begin();
  ASSERT_TRUE(t->GetForUpdate("k").ok());
  ASSERT_TRUE(t->Put("k", 99).ok());
  ASSERT_TRUE(t->Abort().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 5);
}

TEST(TransactionModeTest, ModeNames) {
  EXPECT_STREQ(CcModeName(CcMode::kMossRW), "moss-rw");
  EXPECT_STREQ(CcModeName(CcMode::kExclusive), "exclusive");
  EXPECT_STREQ(CcModeName(CcMode::kFlat2PL), "flat-2pl");
  EXPECT_STREQ(CcModeName(CcMode::kSerial), "serial");
}

}  // namespace
}  // namespace nestedtx
