// Single-threaded semantics of the Transaction/Database API across all
// concurrency-control modes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>

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

TEST(TransactionModeTest, AbortReleasesKeysOnlyAChildTouched) {
  // The parent touches nothing itself: every lock it holds came up from
  // its committed child (Moss inheritance, or flat 2PL's shared owner).
  // Its Abort() must still release each of them and discard the child's
  // writes.
  for (CcMode mode : {CcMode::kMossRW, CcMode::kFlat2PL}) {
    SCOPED_TRACE(CcModeName(mode));
    Database db(FastTimeout(mode));
    db.Preload("a", 1);
    const std::vector<std::string> keys = {"a", "b", "c"};
    {
      auto t = db.Begin();
      auto c = t->BeginChild();
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE((*c)->Add("a", 10).ok());
      ASSERT_TRUE((*c)->Put("b", 5).ok());
      ASSERT_TRUE((*c)->TryGet("c").ok());
      ASSERT_TRUE((*c)->Commit().ok());
      ASSERT_TRUE(t->Abort().ok());
    }
    for (const std::string& key : keys) {
      const LockManager::KeySnapshotForTest snap =
          db.manager().locks().SnapshotKeyForTest(key);
      EXPECT_TRUE(snap.read_holders.empty()) << key;
      EXPECT_TRUE(snap.write_holders.empty()) << key;
      EXPECT_TRUE(snap.versions.empty()) << key;
    }
    EXPECT_EQ(db.ReadCommitted("a").value(), 1);
    EXPECT_FALSE(db.ReadCommitted("b").has_value());
    // Another top-level transaction writes every key without waiting.
    const uint64_t waits = db.stats().Snapshot().lock_waits;
    auto w = db.Begin();
    for (const std::string& key : keys) ASSERT_TRUE(w->Put(key, 7).ok());
    ASSERT_TRUE(w->Commit().ok());
    EXPECT_EQ(db.stats().Snapshot().lock_waits, waits);
    for (const std::string& key : keys) {
      EXPECT_EQ(db.ReadCommitted(key).value(), 7) << key;
    }
  }
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

// ---------------------------------------------------------------------
// The return contract: every kind of return, run once with every span
// sampled. Each row states what that one Commit() or Abort() adds to the
// outcome counters and the release/txn histograms, the span it seals,
// and (where tracing is allowed) the trace events it appends.

// What one return adds to the counters and histogram counts.
struct ReturnDeltas {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t top_committed = 0;
  uint64_t top_aborted = 0;
  uint64_t occ_commits = 0;
  uint64_t occ_validation_aborts = 0;
  uint64_t commit_release = 0;  // kHistCommitReleaseNs samples
  uint64_t abort_release = 0;   // kHistAbortReleaseNs samples
  uint64_t txn = 0;             // kHistTxnNs samples
};

ReturnDeltas ReadDeltas(Database& db) {
  const StatsSnapshot s = db.stats().Snapshot();
  MetricsRegistry& m = db.metrics();
  return ReturnDeltas{s.txns_committed,
                      s.txns_aborted,
                      s.top_level_committed,
                      s.top_level_aborted,
                      s.occ_commits,
                      s.occ_validation_aborts,
                      m.SnapshotHistogram(kHistCommitReleaseNs).count,
                      m.SnapshotHistogram(kHistAbortReleaseNs).count,
                      m.SnapshotHistogram(kHistTxnNs).count};
}

// The handles a row opens. The first is the top-level transaction; the
// harness aborts every one still open, last first, after the return.
struct ReturnScene {
  std::vector<std::unique_ptr<Transaction>> handles;
  Transaction* returning = nullptr;  // the handle whose return is measured

  Transaction& Top(Database& db) {
    handles.push_back(db.Begin());
    return *handles.back();
  }
  Transaction& Child(Transaction& parent) {
    auto c = parent.BeginChild();
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    handles.push_back(std::move(*c));
    return *handles.back();
  }
};

using EventsFn = std::function<std::vector<Event>(const TransactionId&,
                                                  EngineTraceRecorder&)>;

struct ReturnKind {
  const char* name = "";
  CcMode mode = CcMode::kMossRW;
  CcProtocol protocol = CcProtocol::kDetect;
  bool traced = true;
  bool wal = false;  // a one-shard log
  // Everything before the return; sets scene.returning.
  std::function<void(Database&, ReturnScene&)> setup;
  bool commit = true;  // the return is Commit(), else Abort()
  Status::Code status = Status::Code::kOk;
  ReturnDeltas deltas;
  Status::Code span_status = Status::Code::kOk;
  uint32_t keys_touched = 0;
  EventsFn events;  // the events the return appends (traced rows)
};

ReturnKind Kind(const char* name, CcMode mode = CcMode::kMossRW,
                CcProtocol protocol = CcProtocol::kDetect) {
  ReturnKind k;
  k.name = name;
  k.mode = mode;
  k.protocol = protocol;
  return k;
}

// A top-level transaction that added 1 to "a" (preloaded 0).
void TopAddsA(Database& db, ReturnScene& scene) {
  Transaction& t = scene.Top(db);
  ASSERT_TRUE(t.Add("a", 1).ok());
  scene.returning = &t;
}

// A child that added 1 to "a" under an open top-level transaction.
void ChildAddsA(Database& db, ReturnScene& scene) {
  Transaction& c = scene.Child(scene.Top(db));
  ASSERT_TRUE(c.Add("a", 1).ok());
  scene.returning = &c;
}

// The lock-passing commit of a transaction whose one access left "a" at 1.
std::vector<Event> CommitAtA(const TransactionId& t, EngineTraceRecorder& r) {
  return {Event::RequestCommit(t, 1), Event::Commit(t),
          Event::InformCommitAt(r.ObjectFor("a"), t),
          Event::ReportCommit(t, 1)};
}

std::vector<Event> AbortAtA(const TransactionId& t, EngineTraceRecorder& r) {
  return {Event::Abort(t), Event::InformAbortAt(r.ObjectFor("a"), t),
          Event::ReportAbort(t)};
}

std::vector<Event> NoEvents(const TransactionId&, EngineTraceRecorder&) {
  return {};
}

std::vector<ReturnKind> ReturnKinds() {
  std::vector<ReturnKind> kinds;
  {
    ReturnKind k = Kind("locking top-level commit");
    k.setup = TopAddsA;
    k.deltas.committed = k.deltas.top_committed = 1;
    k.deltas.commit_release = k.deltas.txn = 1;
    k.keys_touched = 1;
    k.events = CommitAtA;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("locking top-level abort");
    k.setup = TopAddsA;
    k.commit = false;
    k.deltas.aborted = k.deltas.top_aborted = 1;
    k.deltas.abort_release = k.deltas.txn = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 1;
    k.events = AbortAtA;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("Moss child commit");
    k.setup = ChildAddsA;
    k.deltas.committed = k.deltas.commit_release = 1;
    k.keys_touched = 1;
    k.events = CommitAtA;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("Moss child abort");
    k.setup = ChildAddsA;
    k.commit = false;
    k.deltas.aborted = k.deltas.abort_release = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 1;
    k.events = AbortAtA;
    kinds.push_back(k);
  }
  {
    // Dooms the tree and releases nothing; flat 2PL cannot be traced.
    ReturnKind k = Kind("flat-2PL child abort", CcMode::kFlat2PL);
    k.traced = false;
    k.setup = ChildAddsA;
    k.commit = false;
    k.deltas.aborted = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 1;
    kinds.push_back(k);
  }
  {
    // The commit turns into a clean abort carrying the append's cause.
    ReturnKind k = Kind("failed WAL append");
    k.wal = true;
    k.setup = [](Database& db, ReturnScene& scene) {
      TopAddsA(db, scene);
      db.manager().wal()->BreakShardForTest(
          0, /*lost_floor=*/0, Status::IoError("test: shard broken"));
    };
    k.status = Status::Code::kIoError;
    k.deltas.aborted = k.deltas.top_aborted = 1;
    k.deltas.abort_release = k.deltas.txn = 1;
    k.span_status = Status::Code::kIoError;
    k.keys_touched = 1;
    k.events = AbortAtA;
    kinds.push_back(k);
  }
  {
    // The buffered Add surfaces as an access inside the commit's block;
    // the span counts one write and one read entry.
    ReturnKind k = Kind("OCC top-level commit", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = TopAddsA;
    k.deltas.committed = k.deltas.top_committed = 1;
    k.deltas.occ_commits = 1;
    k.deltas.commit_release = k.deltas.txn = 1;
    k.keys_touched = 2;
    k.events = [](const TransactionId& t, EngineTraceRecorder& r) {
      const TransactionId a = t.Child(0);
      const ObjectId x = r.ObjectFor("a");
      return std::vector<Event>{
          Event::RequestCreate(a),  Event::Create(a),
          Event::RequestCommit(a, 1), Event::Commit(a),
          Event::ReportCommit(a, 1), Event::InformCommitAt(x, a),
          Event::RequestCommit(t, 1), Event::Commit(t),
          Event::InformCommitAt(x, t), Event::ReportCommit(t, 1)};
    };
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("OCC validation abort", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = [](Database& db, ReturnScene& scene) {
      Transaction& t = scene.Top(db);
      ASSERT_TRUE(t.TryGet("a").ok());
      ASSERT_TRUE(db.RunTransaction(1, [](Transaction& u) {
                      return u.Add("a", 1).status();
                    }).ok());
      ASSERT_TRUE(t.Put("b", 5).ok());
      scene.returning = &t;
    };
    k.status = Status::Code::kAborted;
    k.deltas.aborted = k.deltas.top_aborted = 1;
    k.deltas.occ_validation_aborts = 1;
    k.deltas.abort_release = k.deltas.txn = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 2;
    k.events = [](const TransactionId& t, EngineTraceRecorder&) {
      return std::vector<Event>{Event::Abort(t), Event::ReportAbort(t)};
    };
    kinds.push_back(k);
  }
  {
    // Releases nothing and appends no event; the span counts the
    // buffered Add's read and write entries, as a commit attempt does.
    ReturnKind k = Kind("OCC top-level abort", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = TopAddsA;
    k.commit = false;
    k.deltas.aborted = k.deltas.top_aborted = 1;
    k.deltas.txn = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 2;
    k.events = [](const TransactionId& t, EngineTraceRecorder&) {
      return std::vector<Event>{Event::Abort(t), Event::ReportAbort(t)};
    };
    kinds.push_back(k);
  }
  {
    // OCC children release nothing and are invisible to the trace.
    ReturnKind k = Kind("OCC child merge", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = ChildAddsA;
    k.deltas.committed = 1;
    k.keys_touched = 2;
    k.events = NoEvents;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("OCC child abort", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = ChildAddsA;
    k.commit = false;
    k.deltas.aborted = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 2;
    k.events = NoEvents;
    kinds.push_back(k);
  }
  {
    // A sibling's merged write invalidates the child's store read.
    ReturnKind k = Kind("OCC failed child merge", CcMode::kMossRW,
                          CcProtocol::kOcc);
    k.setup = [](Database& db, ReturnScene& scene) {
      Transaction& t = scene.Top(db);
      Transaction& writer = scene.Child(t);
      Transaction& reader = scene.Child(t);
      ASSERT_TRUE(reader.TryGet("a").ok());
      ASSERT_TRUE(writer.Add("a", 1).ok());
      ASSERT_TRUE(writer.Commit().ok());
      scene.returning = &reader;
    };
    k.status = Status::Code::kAborted;
    k.deltas.aborted = k.deltas.occ_validation_aborts = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 1;
    k.events = NoEvents;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("serial commit", CcMode::kSerial);
    k.setup = TopAddsA;
    k.deltas.committed = k.deltas.top_committed = 1;
    k.deltas.commit_release = k.deltas.txn = 1;
    k.keys_touched = 1;
    k.events = CommitAtA;
    kinds.push_back(k);
  }
  {
    ReturnKind k = Kind("serial abort", CcMode::kSerial);
    k.setup = TopAddsA;
    k.commit = false;
    k.deltas.aborted = k.deltas.top_aborted = 1;
    k.deltas.abort_release = k.deltas.txn = 1;
    k.span_status = Status::Code::kAborted;
    k.keys_touched = 1;
    k.events = AbortAtA;
    kinds.push_back(k);
  }
  return kinds;
}

TEST(TransactionReturnTest, EveryReturnKindKeepsItsBookkeeping) {
  for (const ReturnKind& k : ReturnKinds()) {
    SCOPED_TRACE(k.name);
    EngineOptions o = FastTimeout(k.mode);
    o.cc_protocol = k.protocol;
    o.span_sample_one_in = 1;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("nestedtx-return-kinds-" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    if (k.wal) {
      o.wal_enabled = true;
      o.wal_dir = dir;
      o.wal_shards = 1;
      o.wal_fsync_mode = WalFsyncMode::kNone;
    }
    {
      Database db(o);
      if (k.traced) {
        ASSERT_TRUE(db.EnableTracing().ok());
      }
      db.Preload("a", 0);
      db.Preload("b", 0);

      ReturnScene scene;
      k.setup(db, scene);
      ASSERT_NE(scene.returning, nullptr);
      const TransactionId id = scene.returning->id();
      const size_t events_before =
          k.traced ? db.trace()->Snapshot().size() : 0;
      const ReturnDeltas before = ReadDeltas(db);
      const Status s =
          k.commit ? scene.returning->Commit() : scene.returning->Abort();
      const ReturnDeltas after = ReadDeltas(db);

      EXPECT_EQ(s.code(), k.status) << s.ToString();
      EXPECT_EQ(after.committed - before.committed, k.deltas.committed);
      EXPECT_EQ(after.aborted - before.aborted, k.deltas.aborted);
      EXPECT_EQ(after.top_committed - before.top_committed,
                k.deltas.top_committed);
      EXPECT_EQ(after.top_aborted - before.top_aborted, k.deltas.top_aborted);
      EXPECT_EQ(after.occ_commits - before.occ_commits, k.deltas.occ_commits);
      EXPECT_EQ(after.occ_validation_aborts - before.occ_validation_aborts,
                k.deltas.occ_validation_aborts);
      EXPECT_EQ(after.commit_release - before.commit_release,
                k.deltas.commit_release);
      EXPECT_EQ(after.abort_release - before.abort_release,
                k.deltas.abort_release);
      EXPECT_EQ(after.txn - before.txn, k.deltas.txn);

      int spans = 0;
      for (const TxnSpan& span : db.metrics().spans().Snapshot()) {
        if (span.id != id) continue;
        ++spans;
        EXPECT_EQ(span.final_status, k.span_status);
        EXPECT_EQ(span.keys_touched, k.keys_touched);
      }
      EXPECT_EQ(spans, 1);

      if (k.traced) {
        const Schedule all = db.trace()->Snapshot();
        ASSERT_GE(all.size(), events_before);
        const std::vector<Event> trailing(all.begin() + events_before,
                                          all.end());
        EXPECT_EQ(trailing, k.events(id, *db.trace()));
      }

      // Close the scene, then begin again: under kSerial this hangs
      // unless the return opened the gate.
      while (!scene.handles.empty()) {
        if (!scene.handles.back()->returned()) {
          ASSERT_TRUE(scene.handles.back()->Abort().ok());
        }
        scene.handles.pop_back();
      }
      auto next = db.Begin();
      ASSERT_NE(next, nullptr);
      ASSERT_TRUE(next->Abort().ok());
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace nestedtx
