// Equivalence and behaviour tests for the batched commit/abort release
// path: a full-inventory OnCommit/OnAbort must leave every key in exactly
// the state a per-key loop (batches of one) produces — same holder sets,
// versions, bases — and must emit the same per-object trace events. Plus
// direct checks of the deferred-wakeup machinery: coalescing counters and
// an end-to-end blocked-waiter handoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/lock_manager.h"
#include "core/stats.h"
#include "core/trace_recorder.h"
#include "tx/event.h"

namespace nestedtx {
namespace {

TransactionId T(std::initializer_list<uint32_t> path) {
  return TransactionId(std::vector<uint32_t>(path));
}

LockManager::Mutator Set(int64_t v) {
  return [v](std::optional<int64_t>) { return v; };
}

// One acquire to replay identically against two managers.
struct Op {
  TransactionId txn;
  std::string key;
  bool write = false;
  int64_t value = 0;  // writes only
};

// A harness pair: `batched` gets full-inventory release calls, `reference`
// gets the same keys as singleton batches (the per-key loop the batched
// path replaced). Identical pre-state is replayed into both; afterwards
// every key's snapshot must match.
class Harness {
 public:
  Harness()
      : batched_(FastTimeout(), &batched_stats_),
        reference_(FastTimeout(), &reference_stats_) {
    batched_.SetTraceRecorder(&batched_trace_);
    reference_.SetTraceRecorder(&reference_trace_);
  }

  // The replayed pre-states are conflict-free by construction; a short
  // timeout turns any accidental conflict into a fast, visible failure.
  static EngineOptions FastTimeout() {
    EngineOptions o;
    o.lock_timeout = std::chrono::milliseconds(100);
    return o;
  }

  void Replay(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      if (op.write) {
        ASSERT_TRUE(
            batched_.AcquireWrite(op.txn, op.key, Set(op.value)).ok());
        ASSERT_TRUE(
            reference_.AcquireWrite(op.txn, op.key, Set(op.value)).ok());
      } else {
        ASSERT_TRUE(batched_.AcquireRead(op.txn, op.key).ok());
        ASSERT_TRUE(reference_.AcquireRead(op.txn, op.key).ok());
      }
      keys_.push_back(op.key);
    }
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }

  // Commit (or abort, when parent is null) `keys` of `txn`: one batch on
  // the batched manager, singleton batches on the reference manager.
  void Release(const TransactionId& txn, const TransactionId* parent,
               const std::vector<std::string>& keys) {
    if (parent != nullptr) {
      batched_.OnCommit(txn, *parent, keys);
      for (const std::string& k : keys) {
        reference_.OnCommit(txn, *parent, std::vector<std::string>{k});
      }
    } else {
      batched_.OnAbort(txn, keys);
      for (const std::string& k : keys) {
        reference_.OnAbort(txn, std::vector<std::string>{k});
      }
    }
  }

  // Holder sets, versions, base and epoch must agree on every key the
  // replay touched. (Epochs agree too: both managers run the same
  // operations per key, so they make the same seq changes.)
  void ExpectSnapshotsEqual() {
    for (const std::string& key : keys_) {
      const LockManager::KeySnapshotForTest b =
          batched_.SnapshotKeyForTest(key);
      const LockManager::KeySnapshotForTest r =
          reference_.SnapshotKeyForTest(key);
      EXPECT_EQ(b.read_holders, r.read_holders) << "key " << key;
      EXPECT_EQ(b.write_holders, r.write_holders) << "key " << key;
      EXPECT_EQ(b.versions, r.versions) << "key " << key;
      EXPECT_EQ(b.base, r.base) << "key " << key;
      EXPECT_EQ(b.holder_epoch, r.holder_epoch) << "key " << key;
    }
  }

  // The INFORM_*_AT subsequence per object must be identical: the batched
  // path may reorder events across objects but never within one.
  void ExpectPerObjectInformsEqual() {
    const Schedule b = batched_trace_.Snapshot();
    const Schedule r = reference_trace_.Snapshot();
    for (const std::string& key : keys_) {
      EXPECT_EQ(InformsAt(b, batched_trace_.ObjectFor(key)),
                InformsAt(r, reference_trace_.ObjectFor(key)))
          << "key " << key;
    }
  }

  LockManager& batched() { return batched_; }
  EngineStats& batched_stats() { return batched_stats_; }
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  // (kind, txn) pairs of the inform events at object `x`, in trace order.
  static std::vector<std::pair<EventKind, TransactionId>> InformsAt(
      const Schedule& s, ObjectId x) {
    std::vector<std::pair<EventKind, TransactionId>> out;
    for (const Event& e : s) {
      if ((e.kind == EventKind::kInformCommitAt ||
           e.kind == EventKind::kInformAbortAt) &&
          e.object == x) {
        out.emplace_back(e.kind, e.txn);
      }
    }
    return out;
  }

  EngineStats batched_stats_, reference_stats_;
  LockManager batched_, reference_;
  EngineTraceRecorder batched_trace_, reference_trace_;
  std::vector<std::string> keys_;
};

TEST(CommitBatchTest, SubCommitEquivalenceMixedModes) {
  Harness h;
  const TransactionId child = T({0, 0});
  // Dual-mode holds on a/b, write-only on c, read-only on d.
  h.Replay({{child, "a", true, 1},
            {child, "a", false, 0},
            {child, "b", false, 0},
            {child, "b", true, 2},
            {child, "c", true, 3},
            {child, "d", false, 0}});
  const TransactionId parent = T({0});
  h.Release(child, &parent, {"a", "b", "c", "d"});
  h.ExpectSnapshotsEqual();
  h.ExpectPerObjectInformsEqual();
}

TEST(CommitBatchTest, TopLevelCommitEquivalenceInstallsBases) {
  Harness h;
  const TransactionId top = T({0});
  h.Replay({{top, "x", true, 10},
            {top, "y", true, 20},
            {top, "z", false, 0}});
  const TransactionId root = TransactionId::Root();
  h.Release(top, &root, {"x", "y", "z"});
  h.ExpectSnapshotsEqual();
  h.ExpectPerObjectInformsEqual();
}

TEST(CommitBatchTest, AbortEquivalencePurgesStrayDescendants) {
  Harness h;
  const TransactionId parent = T({0, 1});
  const TransactionId stray1 = T({0, 1, 0});
  const TransactionId stray2 = T({0, 1, 0, 2});
  const TransactionId bystander = T({3});
  // The aborting subtree holds at several depths; an unrelated top-level
  // transaction shares read locks that must survive the purge.
  h.Replay({{parent, "p", true, 1},
            {stray1, "p", true, 2},
            {stray2, "p", true, 3},
            {stray1, "q", false, 0},
            {bystander, "q", false, 0},
            {stray2, "r", true, 4}});
  h.Release(parent, nullptr, {"p", "q", "r"});
  h.ExpectSnapshotsEqual();
  h.ExpectPerObjectInformsEqual();
  // The bystander's read lock survived on q.
  const LockManager::KeySnapshotForTest q =
      h.batched().SnapshotKeyForTest("q");
  ASSERT_EQ(q.read_holders.size(), 1u);
  EXPECT_EQ(q.read_holders[0], bystander);
}

// Abort of keys the transaction never locked: the inform event is still
// emitted (the model's scheduler may inform any object of any abort), and
// state is untouched on both paths.
TEST(CommitBatchTest, AbortEquivalenceUnheldKeys) {
  Harness h;
  const TransactionId holder = T({7});
  const TransactionId aborter = T({8});
  h.Replay({{holder, "u", true, 5}, {holder, "v", false, 0}});
  h.Release(aborter, nullptr, {"u", "v"});
  h.ExpectSnapshotsEqual();
  h.ExpectPerObjectInformsEqual();
}

TEST(CommitBatchTest, RandomizedInventoriesAndOrders) {
  std::mt19937 rng(20260806);
  const std::vector<std::string> universe = {"k0", "k1", "k2", "k3",
                                             "k4", "k5", "k6", "k7"};
  for (int round = 0; round < 30; ++round) {
    Harness h;
    const TransactionId child = T({0, static_cast<uint32_t>(round)});
    const TransactionId cousin = T({1});
    std::vector<Op> ops;
    std::vector<std::string> touched;
    for (const std::string& key : universe) {
      const int mode = static_cast<int>(rng() % 4);
      // An unrelated reader may share read-locked (or untouched) keys —
      // never write-locked ones, which would genuinely block it.
      if (mode < 2 && rng() % 3 == 0) {
        ops.push_back({cousin, key, false, 0});
      }
      if (mode == 0) continue;  // untouched by child
      if (mode & 1) ops.push_back({child, key, false, 0});
      if (mode & 2) {
        ops.push_back({child, key, true, static_cast<int64_t>(rng() % 100)});
      }
      touched.push_back(key);
    }
    if (touched.empty()) continue;
    std::shuffle(ops.begin(), ops.end(), rng);
    h.Replay(ops);
    // The batched inventory arrives in random order; the reference loop
    // runs the same random order one key at a time.
    std::shuffle(touched.begin(), touched.end(), rng);
    const TransactionId parent = T({0});
    if (rng() % 2 == 0) {
      h.Release(child, &parent, touched);
    } else {
      h.Release(child, nullptr, touched);
    }
    h.ExpectSnapshotsEqual();
    h.ExpectPerObjectInformsEqual();
  }
}

// The KeyHold overload with live cached handles must behave exactly like
// the string overload (handles only skip the shard lookup).
TEST(CommitBatchTest, CachedHandleInventoryMatchesStringInventory) {
  EngineStats stats_a, stats_b;
  LockManager with_handles(EngineOptions(), &stats_a);
  LockManager with_strings(EngineOptions(), &stats_b);
  const TransactionId child = T({0, 0});
  const TransactionId parent = T({0});
  std::vector<LockManager::KeyHold> holds;
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    const std::string key = "h" + std::to_string(i);
    LockManager::HeldLock held;
    ASSERT_TRUE(with_handles.AcquireWrite(child, key, Set(i), nullptr, &held)
                    .ok());
    ASSERT_TRUE(with_strings.AcquireWrite(child, key, Set(i)).ok());
    holds.push_back(LockManager::KeyHold{key, held});
    names.push_back(key);
  }
  with_handles.OnCommit(child, parent, holds);
  with_strings.OnCommit(child, parent, names);
  for (const std::string& key : names) {
    const LockManager::KeySnapshotForTest a =
        with_handles.SnapshotKeyForTest(key);
    const LockManager::KeySnapshotForTest b =
        with_strings.SnapshotKeyForTest(key);
    EXPECT_EQ(a.read_holders, b.read_holders) << key;
    EXPECT_EQ(a.write_holders, b.write_holders) << key;
    EXPECT_EQ(a.versions, b.versions) << key;
    EXPECT_EQ(a.holder_epoch, b.holder_epoch) << key;
  }
}

// Spin until `n` waiters are parked in the wait graph (the registration
// happens before the cv wait, under the key mutex).
void AwaitParked(LockManager& lm, size_t n) {
  for (int spin = 0; spin < 4000 && lm.wait_graph().NumWaiters() < n;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(lm.wait_graph().NumWaiters(), n);
}

// A dual-mode (read+write) holder generates two wakeup requests per key;
// with a waiter parked on each key, the batch coalesces them to one
// notify per key and counts both sides.
TEST(CommitBatchTest, DualModeWakeupsCoalesced) {
  EngineStats stats;
  EngineOptions opts;
  opts.lock_timeout = std::chrono::seconds(10);
  LockManager lm(opts, &stats);
  const TransactionId child = T({0, 0});
  const TransactionId parent = T({0});
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    const std::string key = "c" + std::to_string(i);
    ASSERT_TRUE(lm.AcquireWrite(child, key, Set(i), nullptr, nullptr).ok());
    ASSERT_TRUE(lm.AcquireRead(child, key).ok());
    keys.push_back(key);
  }
  std::vector<std::thread> blocked;
  for (int i = 0; i < 4; ++i) {
    blocked.emplace_back([&lm, &keys, i] {
      (void)lm.AcquireWrite(T({static_cast<uint32_t>(1 + i)}), keys[i],
                            Set(100 + i));
    });
  }
  AwaitParked(lm, 4);
  lm.OnCommit(child, parent, keys);
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.wakeups_issued, 4u);     // one notify per key
  EXPECT_EQ(snap.wakeups_coalesced, 4u);  // the duplicate per key merged
  // Release the parent too so the blocked writers can finish.
  lm.OnCommit(parent, TransactionId::Root(), keys);
  for (std::thread& t : blocked) t.join();
}

TEST(CommitBatchTest, SingleModeWakeupsNotCoalesced) {
  EngineStats stats;
  EngineOptions opts;
  opts.lock_timeout = std::chrono::seconds(10);
  LockManager lm(opts, &stats);
  const TransactionId top = T({0});
  ASSERT_TRUE(lm.AcquireWrite(top, "w", Set(1)).ok());
  ASSERT_TRUE(lm.AcquireRead(top, "r").ok());
  std::thread on_w([&lm] { (void)lm.AcquireWrite(T({1}), "w", Set(2)); });
  std::thread on_r([&lm] { (void)lm.AcquireWrite(T({2}), "r", Set(3)); });
  AwaitParked(lm, 2);
  lm.OnCommit(top, TransactionId::Root(), std::vector<std::string>{"w", "r"});
  on_w.join();
  on_r.join();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.wakeups_issued, 2u);
  EXPECT_EQ(snap.wakeups_coalesced, 0u);
}

// Releases with nobody parked on the key skip the notify entirely — the
// waiter count gates the wakeup request (see KeyState::waiters).
TEST(CommitBatchTest, NoWaitersNoWakeup) {
  EngineStats stats;
  LockManager lm(EngineOptions(), &stats);
  const TransactionId top = T({0});
  std::vector<std::string> keys;
  for (int i = 0; i < 3; ++i) {
    const std::string key = "g" + std::to_string(i);
    ASSERT_TRUE(lm.AcquireWrite(top, key, Set(i)).ok());
    keys.push_back(key);
  }
  lm.OnCommit(top, TransactionId::Root(), keys);
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.wakeups_issued, 0u);
  EXPECT_EQ(snap.wakeups_coalesced, 0u);
}

// An abort that releases nothing must not notify at all.
TEST(CommitBatchTest, NoHolderChangeNoWakeup) {
  EngineStats stats;
  LockManager lm(EngineOptions(), &stats);
  const TransactionId holder = T({0});
  const TransactionId other = T({1});
  ASSERT_TRUE(lm.AcquireWrite(holder, "n", Set(1)).ok());
  lm.OnAbort(other, std::vector<std::string>{"n"});
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.wakeups_issued, 0u);
  EXPECT_EQ(snap.wakeups_coalesced, 0u);
}

// End-to-end deferred-wakeup handoff: waiters blocked on several keys of
// one committing transaction are all granted after the single batched
// release (the notifies land after every key mutex is dropped).
TEST(CommitBatchTest, BatchedCommitWakesBlockedWaiters) {
  EngineStats stats;
  EngineOptions opts;
  opts.lock_timeout = std::chrono::seconds(10);
  LockManager lm(opts, &stats);
  const TransactionId top = T({0});
  std::vector<std::string> keys;
  for (int i = 0; i < 3; ++i) {
    const std::string key = "wk" + std::to_string(i);
    ASSERT_TRUE(lm.AcquireWrite(top, key, Set(i)).ok());
    keys.push_back(key);
  }
  std::vector<std::thread> waiters;
  std::atomic<int> granted{0};
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      auto r = lm.AcquireRead(T({static_cast<uint32_t>(1 + i)}), keys[i]);
      if (r.ok() && **r == i) granted.fetch_add(1);
    });
  }
  // Wait until all three are parked, then release everything in one batch.
  for (int spin = 0; spin < 4000 && lm.wait_graph().NumWaiters() < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lm.OnCommit(top, TransactionId::Root(), keys);
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(granted.load(), 3);
  EXPECT_GE(stats.Snapshot().wakeups_issued, 3u);
}

}  // namespace
}  // namespace nestedtx
