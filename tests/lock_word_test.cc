// The lock word (DESIGN.md §5) must be invisible except for speed:
// values, holder sets, conflict sets and snapshots are identical with
// the word on, off, or mid-escalation. These tests pin the two-regime
// protocol's edges — inflation on conflict, deflation on quiescence,
// the off switch, and the snapshot discipline that lets inspection
// paths (SnapshotKeyForTest / ConflictsForTest / CollectHotKeys)
// enumerate holders while fast-word traffic mutates the key with no
// key mutex held (the regression test for the old "holder enumeration
// happens under ks.m" assumption).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/lock_manager.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

EngineOptions FastOptions(bool lock_word) {
  EngineOptions o;
  o.lock_word_enabled = lock_word;
  o.lock_timeout = std::chrono::milliseconds(30);
  return o;
}

// The same single-threaded nested scenario, word on vs. word off:
// identical values and identical aggregate accounting, but only the
// word-on run uses the fast lanes (mode-split counters are the proof
// the intended lane actually served the accesses).
TEST(LockWordTest, FastAndInflatedValuesAgree) {
  for (const bool lock_word : {true, false}) {
    Database db(FastOptions(lock_word));
    db.Preload("k", 5);
    auto parent = db.Begin();
    for (int i = 0; i < 10; ++i) {
      auto v = parent->TryGet("k");
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(**v, 5 + i);
      ASSERT_TRUE(parent->Add("k", 1).ok());
    }
    auto child = parent->BeginChild();
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE((*child)->Add("k", 100).ok());
    ASSERT_TRUE((*child)->Commit().ok());
    auto v = parent->TryGet("k");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(**v, 115);
    ASSERT_TRUE(parent->Commit().ok());
    EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(115));

    const StatsSnapshot snap = db.stats().Snapshot();
    const uint64_t fast = snap.fast_read_grants + snap.fast_write_grants +
                          snap.fast_read_reacquires +
                          snap.fast_write_reacquires;
    if (lock_word) {
      EXPECT_GT(snap.fast_read_reacquires, 0u) << snap.ToString();
      EXPECT_GT(snap.fast_write_reacquires, 0u) << snap.ToString();
    } else {
      EXPECT_EQ(fast, 0u) << snap.ToString();
      EXPECT_EQ(snap.lock_word_deflations, 0u) << snap.ToString();
    }
  }
}

// A holder granted entirely by the fast word (key never inflated) is
// visible to the snapshot and conflict surfaces, including the
// read+write dual-holder dedupe ConflictsForTest exposes.
TEST(LockWordTest, SnapshotAndConflictsSeeFastWordHolders) {
  EngineStats stats;
  LockManager lm(FastOptions(true), &stats);
  lm.SetBase("k", 7);
  const TransactionId t1 = TransactionId::Root().Child(1);
  ASSERT_TRUE(lm.AcquireRead(t1, "k").ok());
  ASSERT_TRUE(
      lm.AcquireWrite(t1, "k", [](std::optional<int64_t> v) {
          return v.value_or(0) + 1;
        }).ok());

  LockManager::KeySnapshotForTest snap = lm.SnapshotKeyForTest("k");
  EXPECT_FALSE(snap.inflated) << "uncontended key must stay fast";
  ASSERT_EQ(snap.read_holders.size(), 1u);
  EXPECT_TRUE(snap.read_holders[0] == t1);
  ASSERT_EQ(snap.write_holders.size(), 1u);
  EXPECT_TRUE(snap.write_holders[0] == t1);
  EXPECT_EQ(snap.base, std::optional<int64_t>(7));

  // A non-ancestor requester conflicts with t1 exactly once even though
  // t1 holds both modes (the wait-graph dedupe contract).
  const TransactionId t2 = TransactionId::Root().Child(2);
  const auto conflicts = lm.ConflictsForTest("k", t2, /*exclusive=*/true);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_TRUE(conflicts[0] == t1);

  lm.OnAbort(t1, {"k"});
  EXPECT_EQ(stats.Snapshot().lock_word_inflations, 0u);
}

// Regression for the holder-enumeration snapshot discipline: inspection
// surfaces must produce coherent holder sets while fast-word traffic
// mutates the key under the micro bit alone — never assuming ks.m
// protects an uninflated key. Run under TSan this also proves the
// accesses are race-free.
TEST(LockWordTest, ConcurrentSnapshotDuringFastTraffic) {
  EngineStats stats;
  LockManager lm(FastOptions(true), &stats);
  lm.SetBase("k", 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&lm, &stop, w] {
      uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Distinct roots: read-read sharing keeps the key uninflated.
        const TransactionId txn =
            TransactionId::Root().Child(uint32_t(w) * 100000u + i++);
        EXPECT_TRUE(lm.AcquireRead(txn, "k").ok());
        lm.OnAbort(txn, {"k"});
      }
    });
  }
  const TransactionId other = TransactionId::Root().Child(999999u);
  for (int i = 0; i < 2000; ++i) {
    LockManager::KeySnapshotForTest snap = lm.SnapshotKeyForTest("k");
    // Holder sets are copied atomically w.r.t. fast traffic: every
    // observed holder is a live reader, and the base never wavers.
    EXPECT_EQ(snap.base, std::optional<int64_t>(1));
    EXPECT_EQ(snap.write_holders.size(), 0u);
    EXPECT_LE(snap.read_holders.size(), 3u);
    const auto conflicts = lm.ConflictsForTest("k", other, true);
    EXPECT_LE(conflicts.size(), 3u);
    (void)lm.CollectHotKeys(4);
  }
  stop.store(true);
  for (auto& t : workers) t.join();
  EXPECT_EQ(stats.Snapshot().lock_word_inflations, 0u)
      << "read-read sharing must not escalate";
}

// A would-be waiter escalates the key to the mutex regime; releasing the
// last holder with no waiters hands it back. The round trip is visible
// in the inflation/deflation counters and the snapshot's inflated bit,
// and the key serves fast grants again afterwards.
TEST(LockWordTest, InflationOnConflictDeflationOnQuiesce) {
  EngineStats stats;
  LockManager lm(FastOptions(true), &stats);
  lm.SetBase("k", 0);
  const TransactionId writer = TransactionId::Root().Child(1);
  const TransactionId reader = TransactionId::Root().Child(2);
  ASSERT_TRUE(lm.AcquireWrite(writer, "k", [](std::optional<int64_t>) {
                  return 1;
                }).ok());
  EXPECT_FALSE(lm.SnapshotKeyForTest("k").inflated);

  // Non-ancestor reader vs. write holder: must wait, so must inflate;
  // the 30ms timeout then bounds the test.
  EXPECT_TRUE(lm.AcquireRead(reader, "k").status().IsTimedOut());
  EXPECT_TRUE(lm.SnapshotKeyForTest("k").inflated);
  EXPECT_GE(stats.Snapshot().lock_word_inflations, 1u);

  // Last holder leaves, no waiters remain: the release deflates.
  lm.OnAbort(writer, {"k"});
  EXPECT_FALSE(lm.SnapshotKeyForTest("k").inflated);
  EXPECT_GE(stats.Snapshot().lock_word_deflations, 1u);

  // And the key is genuinely fast again.
  const uint64_t fast_before = stats.Snapshot().fast_read_grants;
  ASSERT_TRUE(lm.AcquireRead(reader, "k").ok());
  EXPECT_EQ(stats.Snapshot().fast_read_grants, fast_before + 1);
  lm.OnAbort(reader, {"k"});
}

// Handles inherited up the commit chain keep their fast-lane privileges:
// after a child commits, the parent's next read re-validates cold (the
// commit moved the word) and every read after that rides the seqlock
// lane again.
TEST(LockWordTest, InheritedHandleRejoinsFastLane) {
  Database db(FastOptions(true));
  db.Preload("k", 5);
  auto parent = db.Begin();
  ASSERT_TRUE(parent->TryGet("k").ok());
  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE((*child)->Add("k", 10).ok());
  ASSERT_TRUE((*child)->Commit().ok());

  auto v1 = parent->TryGet("k");  // cold: the commit bumped the seq
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(**v1, 15);
  const uint64_t fast_before = db.stats().Snapshot().fast_read_reacquires;
  auto v2 = parent->TryGet("k");  // fast again on the refreshed handle
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(**v2, 15);
  EXPECT_EQ(db.stats().Snapshot().fast_read_reacquires, fast_before + 1);
  ASSERT_TRUE(parent->Commit().ok());
}

// lock_word_enabled = false births every key inflated: the mutex-only
// engine, with the word machinery reduced to an always-false branch.
TEST(LockWordTest, DisabledKeysAreBornInflated) {
  EngineStats stats;
  LockManager lm(FastOptions(false), &stats);
  lm.SetBase("k", 3);
  const TransactionId t1 = TransactionId::Root().Child(1);
  ASSERT_TRUE(lm.AcquireRead(t1, "k").ok());
  LockManager::KeySnapshotForTest snap = lm.SnapshotKeyForTest("k");
  EXPECT_TRUE(snap.inflated);
  ASSERT_EQ(snap.read_holders.size(), 1u);
  lm.OnAbort(t1, {"k"});
  const StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.fast_read_grants, 0u);
  EXPECT_EQ(s.lock_word_inflations, 0u) << "born inflated, not escalated";
  EXPECT_EQ(s.lock_word_deflations, 0u);
}

// The two regimes in lock step. One random single-threaded stream of
// begins, accesses and returns, over 3 keys and a 3-level tree, runs
// against a word-on and a word-off engine under no-wait, where a conflict
// fails at once instead of blocking the one thread. After every step both
// must return the same status code and value, and hold the same M(X)
// state on every key: read holders, write holders, versions and base
// (holder_epoch is the word's seq, which differs by design). The word-on
// engine inflates a key on a conflict and deflates it once the key
// quiesces, so the streams cross both regimes and the hand-offs between
// them.
TEST(LockWordTest, RegimesAgreeInLockStep) {
  constexpr int kSeeds = 300;
  constexpr int kSteps = 120;
  constexpr int kDepth = 3;  // top-level, child, grandchild
  const std::string keys[] = {"a", "b", "c"};
  struct Node {
    std::unique_ptr<Transaction> on, off;  // null once returned
    int parent;                            // -1 for a top-level
    int depth;
    int children = 0;                      // live ones
  };
  uint64_t deflations = 0;  // the word-on engine's, over every stream
  for (int seed = 0; seed < kSeeds; ++seed) {
    EngineOptions opts = FastOptions(true);
    opts.cc_protocol = CcProtocol::kNoWait;
    Database on_db(opts);
    opts.lock_word_enabled = false;
    Database off_db(opts);
    std::mt19937_64 rng(seed);
    std::vector<Node> nodes;
    // A random live node that `ok` accepts, or -1.
    auto pick = [&](auto ok) {
      std::vector<int> fit;
      for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
        if (nodes[i].on != nullptr && ok(nodes[i])) fit.push_back(i);
      }
      return fit.empty() ? -1 : fit[rng() % fit.size()];
    };
    auto same = [](const auto& a, const auto& b) {
      EXPECT_EQ(a.status().code(), b.status().code());
      if (a.ok() && b.ok()) {
        EXPECT_EQ(*a, *b);
      }
    };
    // A return of node i (commit or abort), on both engines.
    auto finish = [&](int i, bool commit) {
      Node& n = nodes[i];
      EXPECT_EQ(commit ? n.on->Commit().code() : n.on->Abort().code(),
                commit ? n.off->Commit().code() : n.off->Abort().code());
      EXPECT_EQ(n.on->returned(), n.off->returned());
      if (!n.on->returned()) return;
      n.on.reset();
      n.off.reset();
      if (n.parent >= 0) --nodes[n.parent].children;
    };
    for (int step = 0; step <= kSteps; ++step) {
      SCOPED_TRACE(StrCat("seed ", seed, " step ", step));
      const int op = step < kSteps ? static_cast<int>(rng() % 10) : -1;
      const std::string& key = keys[rng() % 3];
      const int64_t arg = static_cast<int64_t>(rng() % 100);
      if (op == 0) {
        nodes.push_back(Node{on_db.Begin(), off_db.Begin(), -1, 1});
      } else if (op == 1) {
        const int i = pick([&](const Node& n) { return n.depth < kDepth; });
        if (i >= 0) {
          auto a = nodes[i].on->BeginChild();
          auto b = nodes[i].off->BeginChild();
          EXPECT_EQ(a.ok(), b.ok());
          if (a.ok() && b.ok()) {
            ++nodes[i].children;
            nodes.push_back(Node{std::move(*a), std::move(*b), i,
                                 nodes[i].depth + 1});
          }
        }
      } else if (op >= 2 && op <= 5) {
        const int i = pick([](const Node&) { return true; });
        if (i >= 0) {
          Transaction& a = *nodes[i].on;
          Transaction& b = *nodes[i].off;
          if (op == 2) {
            same(a.TryGet(key), b.TryGet(key));
          } else if (op == 3) {
            EXPECT_EQ(a.Put(key, arg).code(), b.Put(key, arg).code());
          } else if (op == 4) {
            same(a.Add(key, arg), b.Add(key, arg));
          } else {
            EXPECT_EQ(a.Delete(key).code(), b.Delete(key).code());
          }
        }
      } else if (op >= 6) {
        // 6: a child commit, 7: a top-level commit, 8-9: an abort.
        const int i = pick([&](const Node& n) {
          return n.children == 0 &&
                 (op == 6 ? n.parent >= 0 : op == 7 ? n.parent < 0 : true);
        });
        if (i >= 0) finish(i, op < 8);
      } else {
        // The stream's end: abort what is left, each child (which sits
        // after its parent) before its parent.
        for (int i = static_cast<int>(nodes.size()) - 1; i >= 0; --i) {
          if (nodes[i].on != nullptr) finish(i, /*commit=*/false);
        }
      }
      for (const std::string& k : keys) {
        const LockManager::KeySnapshotForTest a =
            on_db.manager().locks().SnapshotKeyForTest(k);
        const LockManager::KeySnapshotForTest b =
            off_db.manager().locks().SnapshotKeyForTest(k);
        EXPECT_EQ(a.read_holders, b.read_holders) << "key " << k;
        EXPECT_EQ(a.write_holders, b.write_holders) << "key " << k;
        EXPECT_EQ(a.versions, b.versions) << "key " << k;
        EXPECT_EQ(a.base, b.base) << "key " << k;
      }
      if (HasFailure()) return;
    }
    deflations += on_db.stats().Snapshot().lock_word_deflations;
  }
  EXPECT_GT(deflations, 0u) << "no stream crossed back to the word regime";
}

}  // namespace
}  // namespace nestedtx
