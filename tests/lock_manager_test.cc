#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <random>
#include <thread>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/failpoints.h"
#include "core/id_small_set.h"
#include "core/lock_manager.h"
#include "serial/data_type.h"
#include "tx/well_formed.h"
#include "util/random.h"
#include "util/strings.h"

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

// The key lookup is lock-free for hits and inserts under a shard mutex,
// publishing new KeyStates and grown tables while other threads probe.
// Four threads first-touch the same fresh keys, each in its own order,
// so every shard's table grows several times under concurrent probes.
// A key that got two KeyStates would let two writers hold it at once,
// and one of their increments would be lost.
TEST_F(LockManagerTest, ConcurrentFirstTouchAcrossTableGrowth) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kKeys = 64 * 256;  // per-shard tables grow 16 -> 512
  EngineOptions o = MakeOptions();
  o.lock_timeout = std::chrono::seconds(30);  // contention waits, never fails
  LockManager lm(o, &stats_);
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < kKeys; ++i) keys.push_back(StrCat("g", i));

  std::atomic<uint32_t> ready{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> order(kKeys);
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), std::mt19937(t + 1));
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (uint32_t n = 0; n < kKeys; ++n) {
        const TransactionId txn = T({t * kKeys + n});
        const std::string& key = keys[order[n]];
        ASSERT_TRUE(lm.AcquireWrite(txn, key, AddM(1)).ok());
        lm.OnCommit(txn, TransactionId::Root(), {key});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (const std::string& key : keys) {
    ASSERT_EQ(lm.ReadBase(key), std::optional<int64_t>(kThreads)) << key;
    const LockManager::KeySnapshotForTest snap = lm.SnapshotKeyForTest(key);
    EXPECT_TRUE(snap.read_holders.empty()) << key;
    EXPECT_TRUE(snap.write_holders.empty()) << key;
  }
}

// Holder storage leaves with the last holder (core/id_small_set.h): on
// every release path, fast under the MICRO bit or inflated under the
// stripe mutex, a key nobody holds owns no holder block. Each scenario
// runs with the lock word on (fast lanes) and off (every key inflated).
class HolderStorageTest : public ::testing::TestWithParam<bool> {
 protected:
  HolderStorageTest() : lm_(Options(), &stats_) {}

  static EngineOptions Options() {
    EngineOptions o;
    o.lock_timeout = std::chrono::seconds(30);
    o.lock_word_enabled = GetParam();
    return o;
  }

  static LockManager::Mutator Set(int64_t v) {
    return [v](std::optional<int64_t>) { return v; };
  }

  EngineStats stats_;
  LockManager lm_;
};

TEST_P(HolderStorageTest, TopLevelCommitAndAbortReturnTheBlocks) {
  for (const bool commit : {true, false}) {
    SCOPED_TRACE(commit ? "commit" : "abort");
    const std::string key = commit ? "c" : "a";
    lm_.SetBase(key, 5);
    ASSERT_TRUE(lm_.AcquireRead(T({0}), key).ok());
    ASSERT_TRUE(lm_.AcquireWrite(T({0}), key, Set(6)).ok());
    ASSERT_TRUE(lm_.AcquireRead(T({1}), "other").ok());
    EXPECT_EQ(lm_.SnapshotKeyForTest(key).inflated, !GetParam());
    EXPECT_GT(lm_.HolderCapacityForTest(key), 0u);
    if (commit) {
      lm_.OnCommit(T({0}), TransactionId::Root(), {key});
    } else {
      lm_.OnAbort(T({0}), {key});
    }
    EXPECT_EQ(lm_.HolderCapacityForTest(key), 0u);
    EXPECT_EQ(lm_.ReadBase(key), std::optional<int64_t>(commit ? 6 : 5));
    // A holder of another key keeps its own block.
    EXPECT_GT(lm_.HolderCapacityForTest("other"), 0u);
    lm_.OnAbort(T({1}), {"other"});
    EXPECT_EQ(lm_.HolderCapacityForTest("other"), 0u);
  }
}

// The first holder releases while a second request is parked on the key
// (so the key is inflated and the release wakes it); the second then
// releases the same way, and the inflated key ends with no block.
TEST_P(HolderStorageTest, InflatedReleaseWithAParkedWaiterReturnsTheBlocks) {
  for (const bool commit : {true, false}) {
    SCOPED_TRACE(commit ? "commit" : "abort");
    const std::string key = commit ? "c" : "a";
    const TransactionId holder = T({commit ? 0u : 2u});
    const TransactionId waiter = T({commit ? 1u : 3u});
    ASSERT_TRUE(lm_.AcquireWrite(holder, key, Set(1)).ok());
    std::thread th([&] {
      EXPECT_TRUE(lm_.AcquireWrite(waiter, key, Set(2)).ok());
    });
    ASSERT_TRUE(WaitUntil(
        [&] { return !lm_.wait_graph().WaitingOn(waiter).empty(); }));
    EXPECT_TRUE(lm_.SnapshotKeyForTest(key).inflated);
    auto release = [&](const TransactionId& txn) {
      if (commit) {
        lm_.OnCommit(txn, TransactionId::Root(), {key});
      } else {
        lm_.OnAbort(txn, {key});
      }
    };
    release(holder);
    th.join();
    EXPECT_TRUE(lm_.SnapshotKeyForTest(key).inflated);
    EXPECT_GT(lm_.HolderCapacityForTest(key), 0u);
    release(waiter);
    EXPECT_EQ(lm_.HolderCapacityForTest(key), 0u);
    EXPECT_EQ(lm_.ReadBase(key), commit ? std::optional<int64_t>(2)
                                        : std::nullopt);
  }
}

// A child commit either merges into an ancestor already holding the key
// (kMerged: the set shrinks but keeps its block) or puts the parent in
// its place (kReplaced); either way the block leaves with the parent.
TEST_P(HolderStorageTest, ChildCommitsKeepTheBlockUntilTheParentLeaves) {
  const TransactionId parent = T({0});
  const TransactionId child = T({0, 0});
  lm_.SetBase("merged", 0);
  ASSERT_TRUE(lm_.AcquireRead(parent, "merged").ok());
  ASSERT_TRUE(lm_.AcquireWrite(parent, "merged", Set(1)).ok());
  ASSERT_TRUE(lm_.AcquireRead(child, "merged").ok());
  ASSERT_TRUE(lm_.AcquireWrite(child, "merged", Set(2)).ok());
  ASSERT_TRUE(lm_.AcquireRead(child, "replaced").ok());
  ASSERT_TRUE(lm_.AcquireWrite(child, "replaced", Set(3)).ok());
  lm_.OnCommit(child, parent, std::vector<std::string>{"merged", "replaced"});
  for (const char* key : {"merged", "replaced"}) {
    const LockManager::KeySnapshotForTest snap = lm_.SnapshotKeyForTest(key);
    EXPECT_EQ(snap.read_holders, std::vector<TransactionId>{parent}) << key;
    EXPECT_EQ(snap.write_holders, std::vector<TransactionId>{parent}) << key;
    EXPECT_GT(lm_.HolderCapacityForTest(key), 0u) << key;
  }
  lm_.OnCommit(parent, TransactionId::Root(),
               std::vector<std::string>{"merged", "replaced"});
  EXPECT_EQ(lm_.HolderCapacityForTest("merged"), 0u);
  EXPECT_EQ(lm_.HolderCapacityForTest("replaced"), 0u);
  EXPECT_EQ(lm_.ReadBase("merged"), std::optional<int64_t>(2));
  EXPECT_EQ(lm_.ReadBase("replaced"), std::optional<int64_t>(3));
}

INSTANTIATE_TEST_SUITE_P(LockWord, HolderStorageTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

// Flat 2PL: a child's locks belong to the top-level id, and the
// top-level release returns the key's block.
TEST(HolderStorageFlatTest, TopLevelReleaseReturnsTheBlocks) {
  EngineOptions o;
  o.cc_mode = CcMode::kFlat2PL;
  Database db(o);
  db.Preload("k", 0);
  auto t = db.Begin();
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->TryGet("k").ok());
  ASSERT_TRUE((*c)->Add("k", 1).ok());
  ASSERT_TRUE((*c)->Commit().ok());
  LockManager& lm = db.manager().locks();
  EXPECT_GT(lm.HolderCapacityForTest("k"), 0u);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(lm.HolderCapacityForTest("k"), 0u);
  EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(1));
}

// A depth-14 id spills its path to the heap inside a pooled block. The
// block goes back to this thread's cache when the set empties, and the
// next insert takes the same block; under ASan, a leaked path, a stale
// read of a cached (poisoned) block or a double free fails the test.
TEST(HolderBlockTest, DeepIdRoundTripsAPooledBlock) {
  std::vector<uint32_t> path(14);
  std::iota(path.begin(), path.end(), 1);
  const TransactionId deep(path);
  ASSERT_GT(deep.Depth(), TransactionId::kInlineDepth);
  const TransactionId sibling = deep.Parent().Child(99);

  IdSet set;
  ASSERT_TRUE(set.Insert(deep));
  const TransactionId* block = set.begin();
  ASSERT_TRUE(set.Erase(deep));
  EXPECT_EQ(set.capacity(), 0u);
  ASSERT_TRUE(set.Insert(sibling));
  EXPECT_EQ(set.begin(), block);
  EXPECT_EQ(*set.begin(), sibling);
  // Growth moves both heap paths into a larger block, and the empty set
  // returns it.
  ASSERT_TRUE(set.Insert(deep));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(deep) && set.Contains(sibling));
  EXPECT_EQ(set.EraseIf([](const TransactionId&) { return true; }), 2u);
  EXPECT_EQ(set.capacity(), 0u);

  VersionMap versions;
  const TransactionId child = deep.Child(0);
  ASSERT_TRUE(versions.Put(deep, 1));
  ASSERT_TRUE(versions.Put(child, 2));
  EXPECT_EQ(versions.ReplaceWithAncestor(child, deep), ReplaceOutcome::kMerged);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions.begin()->value, std::optional<int64_t>(2));
  EXPECT_EQ(versions.TryTake(deep),
            std::optional<std::optional<int64_t>>(std::optional<int64_t>(2)));
  EXPECT_EQ(versions.capacity(), 0u);

  // The same round trip through the lock manager's grant and release.
  EngineStats stats;
  LockManager lm(EngineOptions{}, &stats);
  ASSERT_TRUE(lm.AcquireWrite(deep, "k", [](std::optional<int64_t>) {
                  return 7;
                }).ok());
  ASSERT_TRUE(lm.AcquireRead(child, "k").ok());
  lm.OnCommit(child, deep, {"k"});
  lm.OnCommit(deep, deep.Parent(), {"k"});
  EXPECT_EQ(lm.SnapshotKeyForTest("k").write_holders,
            std::vector<TransactionId>{deep.Parent()});
  lm.OnAbort(deep.Parent(), {"k"});
  EXPECT_EQ(lm.HolderCapacityForTest("k"), 0u);
}

// Churn over a rolling window of keys: four threads run nested
// transactions that read, put, add and delete keys while the window
// slides, and some children and top-level transactions abort on
// purpose. Every Put writes the value it read plus one and every Delete
// removes a zero, so the store's sum equals the committed increments;
// afterwards no key owns holder storage.
struct ChurnResult {
  int64_t committed = 0;  // increments of committed top-level transactions
  uint32_t keys = 0;      // keys "c0".."c<keys-1>" were touched
};

Status ChurnAccess(Transaction& t, const std::string& key, Rng& rng,
                   int64_t* delta) {
  switch (rng.Uniform(4)) {
    case 0:
      return t.TryGet(key).status();
    case 1: {
      Result<std::optional<int64_t>> v = t.GetForUpdate(key);
      if (!v.ok()) return v.status();
      RETURN_IF_ERROR(t.Put(key, v->value_or(0) + 1));
      ++*delta;
      return Status::OK();
    }
    case 2: {
      Result<int64_t> v = t.Add(key, 1);
      if (v.ok()) ++*delta;
      return v.status();
    }
    default: {
      Result<std::optional<int64_t>> v = t.GetForUpdate(key);
      if (!v.ok()) return v.status();
      return v->value_or(0) == 0 ? t.Delete(key) : Status::OK();
    }
  }
}

ChurnResult RunChurn(Database& db, int txns_per_thread) {
  constexpr int kThreads = 4;
  constexpr uint32_t kWindow = 16;
  constexpr int kSlideEvery = 4;  // transactions per window step
  std::vector<int64_t> committed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(101 + w);
      for (int n = 0; n < txns_per_thread; ++n) {
        const uint32_t base = static_cast<uint32_t>(n / kSlideEvery);
        auto t = db.Begin();
        int64_t delta = 0;
        Status s;
        for (int a = 0; a < 3 && s.ok(); ++a) {
          const std::string key =
              StrCat("c", base + rng.Uniform(kWindow));
          Result<std::unique_ptr<Transaction>> c = t->BeginChild();
          if (!c.ok()) {
            s = c.status();
            break;
          }
          int64_t child_delta = 0;
          Status cs = ChurnAccess(**c, key, rng, &child_delta);
          if (cs.ok() && !rng.Bernoulli(0.2)) {
            cs = (*c)->Commit();
            if (cs.ok()) delta += child_delta;
          } else {
            (void)(*c)->Abort();
          }
          if (!cs.ok() && !cs.IsAborted()) s = cs;
        }
        if (s.ok() && !rng.Bernoulli(0.15) && t->Commit().ok()) {
          committed[w] += delta;
        } else if (!t->returned()) {
          (void)t->Abort();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ChurnResult out;
  for (int64_t c : committed) out.committed += c;
  out.keys = static_cast<uint32_t>(txns_per_thread / kSlideEvery) + kWindow;
  return out;
}

void ExpectChurnConserved(Database& db, const ChurnResult& r) {
  int64_t sum = 0;
  for (uint32_t k = 0; k < r.keys; ++k) {
    const std::string key = StrCat("c", k);
    sum += db.ReadCommitted(key).value_or(0);
    EXPECT_EQ(db.manager().locks().HolderCapacityForTest(key), 0u) << key;
  }
  EXPECT_EQ(sum, r.committed);
  EXPECT_GT(r.committed, 0);
}

TEST(HolderChurnTest, RollingWindowConservesEveryProtocol) {
  for (const CcProtocol p : {CcProtocol::kDetect, CcProtocol::kWaitDie,
                             CcProtocol::kNoWait, CcProtocol::kOcc}) {
    SCOPED_TRACE(CcProtocolName(p));
    EngineOptions o;
    o.cc_protocol = p;
    o.lock_timeout = std::chrono::seconds(5);
    Database db(o);
    ExpectChurnConserved(db, RunChurn(db, 1000));
  }
}

// The same churn traced, certified by the Lemma 33 checker (tracing
// turns the fast lanes off, so every grant and release here takes the
// inflated path).
TEST(HolderChurnTest, TracedRollingWindowIsSeriallyCorrect) {
  EngineOptions o;
  o.lock_timeout = std::chrono::seconds(5);
  Database db(o);
  ASSERT_TRUE(db.EnableTracing().ok());
  const ChurnResult r = RunChurn(db, 6);
  ExpectChurnConserved(db, r);
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  const Status wf = CheckConcurrentWellFormed(*st, alpha);
  ASSERT_TRUE(wf.ok()) << wf.ToString();
  const Status sc = CheckSeriallyCorrectForAll(*st, alpha, {});
  EXPECT_TRUE(sc.ok()) << sc.ToString();
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

// Keys on one stripe share its key mutex and condition variable, so a
// notify meant for one key's waiters wakes the other key's too. These
// tests pin that such a wake is only spurious: it never grants, cancels
// or times out the other key's waiter.
class SharedStripeTest : public ::testing::Test {
 protected:
  explicit SharedStripeTest(std::chrono::milliseconds lock_timeout =
                                std::chrono::seconds(30))
      : lm_(Options(lock_timeout), &stats_) {
    for (int i = 0; b_.empty(); ++i) {
      const std::string b = StrCat("b", i);
      if (lm_.StripeForTest(b) == lm_.StripeForTest(a_)) b_ = b;
    }
  }

  static EngineOptions Options(std::chrono::milliseconds lock_timeout) {
    EngineOptions o;
    o.lock_timeout = lock_timeout;
    return o;
  }

  static LockManager::Mutator Set(int64_t v) {
    return [v](std::optional<int64_t>) { return v; };
  }

  // A read of `key` by `txn` on its own thread. `status` and `value`
  // are valid once `thread` has been joined.
  struct Reader {
    Reader(LockManager& lm, const TransactionId& txn, const std::string& key)
        : thread([this, &lm, txn, key] {
            Result<std::optional<int64_t>> r = lm.AcquireRead(txn, key);
            status = r.status();
            if (r.ok()) value = *r;
            done.store(true);
          }) {}
    ~Reader() {
      if (thread.joinable()) thread.join();
    }
    std::atomic<bool> done{false};
    Status status;
    std::optional<int64_t> value;
    std::thread thread;
  };

  // True iff `txn` stays parked (registered in the wait graph, its call
  // not returned) for the whole of `ms`.
  bool StaysParked(const Reader& r, const TransactionId& txn, int ms) {
    for (int i = 0; i < ms; ++i) {
      if (r.done.load() || lm_.wait_graph().WaitingOn(txn).empty()) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  EngineStats stats_;
  LockManager lm_;
  const std::string a_ = "a";
  std::string b_;  // distinct from a_, on a_'s stripe
};

TEST_F(SharedStripeTest, ReleaseOnOneKeyReparksTheOtherKeysWaiter) {
  const TransactionId t1 = T({1}), t2 = T({2}), t3 = T({3}), t4 = T({4});
  ASSERT_TRUE(lm_.AcquireWrite(t1, a_, Set(7)).ok());
  ASSERT_TRUE(lm_.AcquireWrite(t4, b_, Set(9)).ok());
  Reader r2(lm_, t2, a_);
  ASSERT_TRUE(
      WaitUntil([&] { return !lm_.wait_graph().WaitingOn(t2).empty(); }));
  Reader r3(lm_, t3, b_);
  ASSERT_TRUE(
      WaitUntil([&] { return !lm_.wait_graph().WaitingOn(t3).empty(); }));

  // T4's commit notifies the shared condition variable: one key woken.
  const uint64_t wakeups = stats_.Snapshot().wakeups_issued;
  lm_.OnCommit(t4, TransactionId::Root(), std::vector<std::string>{b_});
  r3.thread.join();
  ASSERT_TRUE(r3.status.ok()) << r3.status.ToString();
  EXPECT_EQ(r3.value, std::optional<int64_t>(9));
  EXPECT_EQ(stats_.Snapshot().wakeups_issued, wakeups + 1);

  // The same notify woke T2, which found T1 still holding a and re-parked.
  EXPECT_TRUE(StaysParked(r2, t2, 50));
  lm_.OnCommit(t1, TransactionId::Root(), std::vector<std::string>{a_});
  r2.thread.join();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.value, std::optional<int64_t>(7));
  EXPECT_TRUE(lm_.wait_graph().WaitingOn(t2).empty());

  lm_.OnCommit(t2, TransactionId::Root(), std::vector<std::string>{a_});
  lm_.OnCommit(t3, TransactionId::Root(), std::vector<std::string>{b_});
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
  EXPECT_EQ(stats_.Snapshot().lock_timeouts, 0u);
}

TEST_F(SharedStripeTest, DoomCancelsOnlyTheDoomedKeysWaiter) {
  const TransactionId t1 = T({1}), t2 = T({2, 0}), t3 = T({3}), t4 = T({4});
  ASSERT_TRUE(lm_.AcquireWrite(t1, a_, Set(7)).ok());
  ASSERT_TRUE(lm_.AcquireWrite(t4, b_, Set(9)).ok());
  Reader r2(lm_, t2, a_);
  Reader r3(lm_, t3, b_);
  ASSERT_TRUE(WaitUntil([&] { return lm_.ParkedWaiterCount() == 2; }));

  // The doom's mutex-pass and notify go through the shared stripe: both
  // waiters wake, only T2 is in the doomed subtree.
  lm_.DoomSubtree(T({2}));
  r2.thread.join();
  EXPECT_TRUE(r2.status.IsCancelled()) << r2.status.ToString();
  EXPECT_TRUE(StaysParked(r3, t3, 50));

  lm_.OnCommit(t4, TransactionId::Root(), std::vector<std::string>{b_});
  r3.thread.join();
  ASSERT_TRUE(r3.status.ok()) << r3.status.ToString();
  EXPECT_EQ(r3.value, std::optional<int64_t>(9));
  const StatsSnapshot snap = stats_.Snapshot();
  EXPECT_EQ(snap.waits_cancelled, 1u);
  EXPECT_EQ(snap.lock_timeouts, 0u);

  lm_.ClearDoom(T({2}));
  lm_.OnCommit(t1, TransactionId::Root(), std::vector<std::string>{a_});
  lm_.OnCommit(t3, TransactionId::Root(), std::vector<std::string>{b_});
  EXPECT_EQ(lm_.DoomedRootCount(), 0u);
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
}

class SharedStripeTimeoutTest : public SharedStripeTest {
 protected:
  SharedStripeTimeoutTest()
      : SharedStripeTest(std::chrono::milliseconds(20)) {}
};

// Two threads trade write locks on b, each holding it across a short
// sleep, so b keeps inflating, parking a waiter and notifying the shared
// condition variable while T2 waits out its 20 ms on a. T2's deadline is
// fixed at its first park, so the wakes neither extend nor shorten it.
TEST_F(SharedStripeTimeoutTest, TimeoutHoldsUnderTrafficOnTheOtherKey) {
  const TransactionId t1 = T({1}), t2 = T({2});
  ASSERT_TRUE(lm_.AcquireWrite(t1, a_, Set(7)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> traffic_timeouts{0};
  std::vector<std::thread> traffic;
  const auto traffic_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (uint32_t c = 0; c < 2; ++c) {
    traffic.emplace_back([&, c] {
      for (uint32_t i = 0;
           !stop.load() && std::chrono::steady_clock::now() < traffic_end;
           ++i) {
        const TransactionId txn = T({(c + 1) * 1000000 + i});
        const Status s = lm_.AcquireWrite(txn, b_, Set(i)).status();
        if (s.ok()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          lm_.OnCommit(txn, TransactionId::Root(),
                       std::vector<std::string>{b_});
        } else {
          EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
          traffic_timeouts.fetch_add(1);
          lm_.OnAbort(txn, std::vector<std::string>{b_});
        }
      }
    });
  }
  // The traffic notifies the stripe before T2 parks, and while it waits.
  ASSERT_TRUE(WaitUntil([&] { return stats_.Snapshot().wakeups_issued > 0; }));
  const uint64_t wakeups = stats_.Snapshot().wakeups_issued;
  const auto start = std::chrono::steady_clock::now();
  const Status s = lm_.AcquireRead(t2, a_).status();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const uint64_t wakeups_during = stats_.Snapshot().wakeups_issued - wakeups;
  stop.store(true);
  for (std::thread& th : traffic) th.join();

  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(elapsed, std::chrono::milliseconds(20));
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_GT(wakeups_during, 0u);
  const StatsSnapshot snap = stats_.Snapshot();
  EXPECT_EQ(snap.lock_timeouts, 1 + traffic_timeouts.load());
  EXPECT_EQ(snap.waits_cancelled, 0u);
  EXPECT_TRUE(lm_.wait_graph().WaitingOn(t2).empty());
  lm_.OnCommit(t1, TransactionId::Root(), std::vector<std::string>{a_});
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
}

// A waiter spins on its key's release epoch for the first kWaitSpinNs of
// its wait and only then parks on the stripe's condition variable. These
// tests pin both halves: a release during the spin ends the wait at once,
// a long hold parks the wait once, a zero lock_timeout never spins, and a
// doom that lands mid-spin still cancels the wait.
class WaitSpinTest : public ::testing::Test {
 protected:
  WaitSpinTest() : lm_(Options(std::chrono::seconds(30)), &stats_) {}

  static EngineOptions Options(std::chrono::milliseconds lock_timeout) {
    EngineOptions o;
    o.lock_timeout = lock_timeout;
    return o;
  }

  static LockManager::Mutator Set(int64_t v) {
    return [v](std::optional<int64_t>) { return v; };
  }

  EngineStats stats_;
  LockManager lm_;
};

// The holder commits as soon as its waiter registers, polling without
// sleeping, so the release lands inside the waiter's spin: the epoch bump
// must end the spin at once. Without the bump every wait spins out its
// whole budget before its re-check finds the key free. The wait is timed
// as the lock manager times it (first wait to grant), which leaves out
// the call's fixed costs.
TEST_F(WaitSpinTest, ReleaseDuringSpinEndsTheWait) {
  constexpr uint32_t kHandoffs = 200;
  std::vector<uint64_t> wait_ns;
  for (uint32_t i = 0; i < kHandoffs; ++i) {
    const TransactionId holder = T({2 * i + 1}), waiter = T({2 * i + 2});
    ASSERT_TRUE(lm_.AcquireWrite(holder, "k", Set(i)).ok());
    Status status;
    uint64_t elapsed_ns = 0;
    std::thread reader([&] {
      const uint64_t waited_before = ThreadWaitAccounting().ns;
      status = lm_.AcquireRead(waiter, "k").status();
      elapsed_ns = ThreadWaitAccounting().ns - waited_before;
    });
    while (lm_.wait_graph().NumWaiters() == 0) std::this_thread::yield();
    lm_.OnCommit(holder, TransactionId::Root(), std::vector<std::string>{"k"});
    reader.join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    lm_.OnCommit(waiter, TransactionId::Root(), std::vector<std::string>{"k"});
    wait_ns.push_back(elapsed_ns);
  }
  std::nth_element(wait_ns.begin(), wait_ns.begin() + kHandoffs / 2,
                   wait_ns.end());
  EXPECT_LT(wait_ns[kHandoffs / 2], LockManager::kWaitSpinNs / 2);
  const StatsSnapshot snap = stats_.Snapshot();
  EXPECT_EQ(snap.lock_waits, kHandoffs);
  EXPECT_LE(snap.lock_wait_parks, kHandoffs / 4);
  EXPECT_EQ(lm_.wait_graph().NumWaiters(), 0u);
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
}

// A hold far past the spin budget parks the wait once; the holder's
// commit still wakes it.
TEST_F(WaitSpinTest, LongHoldParksOnce) {
  const TransactionId holder = T({1}), waiter = T({2});
  ASSERT_TRUE(lm_.AcquireWrite(holder, "k", Set(7)).ok());
  Status status;
  std::optional<int64_t> value;
  std::thread reader([&] {
    Result<std::optional<int64_t>> r = lm_.AcquireRead(waiter, "k");
    status = r.status();
    if (r.ok()) value = *r;
  });
  ASSERT_TRUE(WaitUntil([&] { return lm_.wait_graph().NumWaiters() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.OnCommit(holder, TransactionId::Root(), std::vector<std::string>{"k"});
  reader.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(value, std::optional<int64_t>(7));
  const StatsSnapshot snap = stats_.Snapshot();
  EXPECT_EQ(snap.lock_waits, 1u);
  EXPECT_EQ(snap.lock_wait_parks, 1u);
  EXPECT_EQ(snap.lock_timeouts, 0u);
  lm_.OnCommit(waiter, TransactionId::Root(), std::vector<std::string>{"k"});
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
}

// The spin budget is capped at lock_timeout: with none, the wait goes
// straight to the condition variable with its deadline already passed and
// times out there, never spinning.
TEST_F(WaitSpinTest, ZeroTimeoutNeverSpins) {
  EngineStats stats;
  LockManager lm(Options(std::chrono::milliseconds(0)), &stats);
  const TransactionId holder = T({1}), waiter = T({2});
  ASSERT_TRUE(lm.AcquireWrite(holder, "k", Set(7)).ok());
  const Status s = lm.AcquireRead(waiter, "k").status();
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.lock_waits, 1u);
  EXPECT_EQ(snap.lock_wait_parks, 1u);
  EXPECT_EQ(snap.lock_timeouts, 1u);
  EXPECT_EQ(lm.wait_graph().NumWaiters(), 0u);
  EXPECT_EQ(lm.ParkedWaiterCount(), 0u);
  lm.OnCommit(holder, TransactionId::Root(), std::vector<std::string>{"k"});
}

// A spinner watches only its key's epoch, so the doom's notify misses it;
// the spin's end re-checks the doom and the wait is cancelled, not left
// parked for the rest of its 30 s timeout.
TEST_F(WaitSpinTest, DoomedSpinnerIsCancelled) {
  const TransactionId holder = T({1}), waiter = T({2, 0});
  ASSERT_TRUE(lm_.AcquireWrite(holder, "k", Set(7)).ok());
  Status status;
  std::thread reader([&] { status = lm_.AcquireRead(waiter, "k").status(); });
  while (lm_.ParkedWaiterCount() == 0) std::this_thread::yield();
  const auto doomed_at = std::chrono::steady_clock::now();
  lm_.DoomSubtree(T({2}));
  reader.join();
  EXPECT_LT(std::chrono::steady_clock::now() - doomed_at,
            std::chrono::seconds(1));
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  const StatsSnapshot snap = stats_.Snapshot();
  EXPECT_EQ(snap.waits_cancelled, 1u);
  EXPECT_EQ(snap.lock_timeouts, 0u);
  EXPECT_EQ(lm_.wait_graph().NumWaiters(), 0u);
  EXPECT_EQ(lm_.ParkedWaiterCount(), 0u);
  lm_.ClearDoom(T({2}));
  lm_.OnAbort(holder, std::vector<std::string>{"k"});
  EXPECT_EQ(lm_.DoomedRootCount(), 0u);
}

}  // namespace
}  // namespace nestedtx
