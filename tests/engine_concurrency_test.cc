// Multithreaded engine tests: invariant preservation under contention,
// deadlock resolution, partial-abort semantics, and cross-mode agreement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/failpoints.h"
#include "util/cleanup.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

EngineOptions Opts(CcMode mode) {
  EngineOptions o;
  o.cc_mode = mode;
  o.lock_timeout = std::chrono::milliseconds(500);
  return o;
}

// Counter increments from many threads must never lose an update.
void RunCounterTortureTest(CcMode mode) {
  Database db(Opts(mode));
  db.Preload("c", 0);
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 200;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIncrementsPerThread; ++j) {
        Status s = db.RunTransaction(50, [](Transaction& t) {
          auto r = t.Add("c", 1);
          return r.ok() ? Status::OK() : r.status();
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_GT(committed.load(), 0);
  EXPECT_EQ(db.ReadCommitted("c").value(), committed.load());
}

TEST(EngineConcurrencyTest, CounterNoLostUpdatesMoss) {
  RunCounterTortureTest(CcMode::kMossRW);
}
TEST(EngineConcurrencyTest, CounterNoLostUpdatesExclusive) {
  RunCounterTortureTest(CcMode::kExclusive);
}
TEST(EngineConcurrencyTest, CounterNoLostUpdatesFlat) {
  RunCounterTortureTest(CcMode::kFlat2PL);
}
TEST(EngineConcurrencyTest, CounterNoLostUpdatesSerial) {
  RunCounterTortureTest(CcMode::kSerial);
}

// Bank: random transfers between accounts; the total must be conserved,
// even with deadlocks, retries, and nested structure (each transfer is a
// subtransaction pair: withdraw + deposit).
void RunBankTortureTest(CcMode mode, bool nested) {
  Database db(Opts(mode));
  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 100;
  for (int i = 0; i < kAccounts; ++i) {
    db.Preload(StrCat("acct", i), kInitial);
  }
  constexpr int kThreads = 6;
  constexpr int kTransfersPerThread = 120;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w * 977 + 13);
      for (int j = 0; j < kTransfersPerThread; ++j) {
        const std::string from = StrCat("acct", rng.Uniform(kAccounts));
        const std::string to = StrCat("acct", rng.Uniform(kAccounts));
        const int64_t amount = rng.UniformRange(1, 10);
        if (from == to) continue;
        (void)db.RunTransaction(25, [&](Transaction& t) -> Status {
          auto body = [&](Transaction& x) -> Status {
            auto bal = x.Get(from);
            if (!bal.ok()) return bal.status();
            if (*bal < amount) return Status::OK();  // skip, keep invariant
            auto r1 = x.Add(from, -amount);
            if (!r1.ok()) return r1.status();
            auto r2 = x.Add(to, amount);
            if (!r2.ok()) return r2.status();
            return Status::OK();
          };
          if (!nested) return body(t);
          return Database::RunNested(t, 3, body);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    auto v = db.ReadCommitted(StrCat("acct", i));
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, 0);
    total += *v;
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(EngineConcurrencyTest, BankConservationMossFlatBody) {
  RunBankTortureTest(CcMode::kMossRW, /*nested=*/false);
}
TEST(EngineConcurrencyTest, BankConservationMossNested) {
  RunBankTortureTest(CcMode::kMossRW, /*nested=*/true);
}
TEST(EngineConcurrencyTest, BankConservationExclusive) {
  RunBankTortureTest(CcMode::kExclusive, /*nested=*/false);
}
TEST(EngineConcurrencyTest, BankConservationSerial) {
  RunBankTortureTest(CcMode::kSerial, /*nested=*/false);
}

TEST(EngineConcurrencyTest, ConcurrentChildrenOfOneParent) {
  // The point of nesting: siblings run concurrently within one
  // transaction, each on its own thread, writing disjoint keys.
  Database db(Opts(CcMode::kMossRW));
  auto parent = db.Begin();
  constexpr int kChildren = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kChildren; ++i) {
    auto child = parent->BeginChild();
    ASSERT_TRUE(child.ok());
    threads.emplace_back(
        [&, i, c = std::shared_ptr<Transaction>(std::move(*child))] {
          if (!c->Put(StrCat("k", i), i).ok() || !c->Commit().ok()) {
            failures.fetch_add(1);
          }
        });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(parent->Commit().ok());
  for (int i = 0; i < kChildren; ++i) {
    EXPECT_EQ(db.ReadCommitted(StrCat("k", i)).value(), i);
  }
}

TEST(EngineConcurrencyTest, ChildrenCommitIntoABusyParent) {
  // A parent keeps reading and adding on its own thread, on keys it
  // shares with its children and on keys it does not, while children on
  // other threads access and then commit or abort into it. The parent's
  // commit must install every committed subtree's Adds, and its release
  // must free every key, those it inherited included.
  EngineOptions o = Opts(CcMode::kMossRW);
  o.lock_timeout = std::chrono::seconds(10);  // waits here are not faults
  Database db(o);
  constexpr int kChildren = 4;
  constexpr int kRounds = 12;  // even, so the last round is odd
  constexpr int kShared = 4;
  constexpr int kOwn = 3;  // keys only one party touches
  // Shared keys, the parent's own keys, and fresh own keys for each child
  // of each round, which reach the parent only through the hand-off.
  auto shared = [](int i) { return StrCat("s", i); };
  auto parent_key = [](int i) { return StrCat("p", i); };
  auto child_key = [](int round, int c, int i) {
    return StrCat("c", round, "_", c, "_", i);
  };
  std::vector<std::string> keys;
  for (int i = 0; i < kShared; ++i) keys.push_back(shared(i));
  for (int i = 0; i < kOwn; ++i) keys.push_back(parent_key(i));
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kChildren; ++c) {
      for (int i = 0; i < kOwn; ++i) keys.push_back(child_key(round, c, i));
    }
  }
  std::map<std::string, int64_t> expected;
  for (const std::string& key : keys) expected[key] = 0;

  auto parent = db.Begin();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::unique_ptr<Transaction>> children;
    for (int c = 0; c < kChildren; ++c) {
      auto child = parent->BeginChild();
      ASSERT_TRUE(child.ok());
      children.push_back(std::move(*child));
    }
    // Even rounds: the parent works on shared and own keys until every
    // child has returned, so hand-offs land between its accesses. Odd
    // rounds, the last one included: the parent works on its own keys
    // only and then opens the commit gate, so every hand-off lands after
    // its last access and waits for the next round's first access or for
    // the parent's commit.
    const bool overlap = round % 2 == 0;
    std::atomic<bool> commit_gate{overlap};
    // Each child's Adds, kept only if its commit succeeds.
    std::vector<std::map<std::string, int64_t>> committed(kChildren);
    std::atomic<int> running{kChildren};
    std::vector<std::thread> threads;
    for (int c = 0; c < kChildren; ++c) {
      threads.emplace_back([&, c] {
        Transaction& t = *children[c];
        Rng rng(round * 131 + c * 7 + 1);
        std::map<std::string, int64_t> adds;
        bool ok = true;
        // Shared keys in ascending order, written before they are read:
        // siblings never wait in a cycle, and no child ever waits for its
        // parent (an ancestor).
        for (int i = 0; i < kShared && ok; ++i) {
          if (rng.Bernoulli(0.5)) continue;
          ok = t.Add(shared(i), c + 1).ok() && t.TryGet(shared(i)).ok();
          if (ok) adds[shared(i)] += c + 1;
        }
        for (int i = 0; i < kOwn && ok; ++i) {
          const std::string key = child_key(round, c, i);
          ok = t.Add(key, 1).ok() && t.TryGet(key).ok();
          if (ok) adds[key] += 1;
        }
        while (!commit_gate.load()) std::this_thread::yield();
        if (ok && rng.Bernoulli(0.7) && t.Commit().ok()) {
          committed[c] = std::move(adds);
        } else if (!t.returned()) {
          (void)t.Abort();
        }
        running.fetch_sub(1);
      });
    }
    // The parent's own work, on this thread.
    bool parent_ok = true;
    for (int i = 0;
         parent_ok && (i < 2 * kShared || (overlap && running.load() != 0));
         ++i) {
      const std::string own_key = parent_key(i % kOwn);
      const std::string shared_key = shared(i % kShared);
      parent_ok = parent->Add(own_key, 1).ok() && parent->TryGet(own_key).ok();
      if (parent_ok) ++expected[own_key];
      if (parent_ok && overlap) {
        parent_ok = parent->TryGet(shared_key).ok();
        if (parent_ok && i % 3 == 0) {
          parent_ok = parent->Add(shared_key, 100).ok();
          if (parent_ok) expected[shared_key] += 100;
        }
      }
    }
    commit_gate.store(true);
    for (auto& t : threads) t.join();
    ASSERT_TRUE(parent_ok);
    for (const auto& adds : committed) {
      for (const auto& [key, delta] : adds) expected[key] += delta;
    }
  }
  ASSERT_TRUE(parent->Commit().ok());
  for (const std::string& key : keys) {
    EXPECT_EQ(db.ReadCommitted(key).value_or(0), expected[key]) << key;
    const LockManager::KeySnapshotForTest snap =
        db.manager().locks().SnapshotKeyForTest(key);
    ASSERT_TRUE(snap.read_holders.empty() && snap.write_holders.empty())
        << key;
  }
  // Every key is free: another top-level transaction writes each one
  // without waiting.
  const uint64_t waits = db.stats().Snapshot().lock_waits;
  auto w = db.Begin();
  for (const std::string& key : keys) ASSERT_TRUE(w->Put(key, -1).ok());
  ASSERT_TRUE(w->Commit().ok());
  EXPECT_EQ(db.stats().Snapshot().lock_waits, waits);
}

TEST(EngineConcurrencyTest, SiblingsShareParentContext) {
  // Sibling subtransactions of one parent may both write the same key:
  // after the first commits to the parent, the lock is at the parent
  // (an ancestor of the second sibling), so the second proceeds.
  Database db(Opts(CcMode::kMossRW));
  auto parent = db.Begin();
  {
    auto c1 = parent->BeginChild();
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE((*c1)->Put("k", 1).ok());
    ASSERT_TRUE((*c1)->Commit().ok());
  }
  {
    auto c2 = parent->BeginChild();
    ASSERT_TRUE(c2.ok());
    auto r = (*c2)->Add("k", 10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 11);
    ASSERT_TRUE((*c2)->Commit().ok());
  }
  ASSERT_TRUE(parent->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 11);
}

TEST(EngineConcurrencyTest, DeadlockResolvedByVictimAbort) {
  Database db(Opts(CcMode::kMossRW));
  db.Preload("a", 0);
  db.Preload("b", 0);
  // Two transactions locking a,b in opposite orders, many rounds; with
  // the wait-for graph one of each colliding pair dies quickly and the
  // retry loop gets both through eventually.
  std::atomic<int> committed{0};
  auto worker = [&](bool forward) {
    for (int i = 0; i < 30; ++i) {
      Status s = db.RunTransaction(100, [&](Transaction& t) -> Status {
        auto r1 = t.Add(forward ? "a" : "b", 1);
        if (!r1.ok()) return r1.status();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        auto r2 = t.Add(forward ? "b" : "a", 1);
        if (!r2.ok()) return r2.status();
        return Status::OK();
      });
      if (s.ok()) committed.fetch_add(1);
    }
  };
  std::thread t1(worker, true), t2(worker, false);
  t1.join();
  t2.join();
  EXPECT_EQ(committed.load(), 60);
  EXPECT_EQ(db.ReadCommitted("a").value(), 60);
  EXPECT_EQ(db.ReadCommitted("b").value(), 60);
}

TEST(EngineConcurrencyTest, PartialAbortPreservesSiblingWork) {
  // A transaction runs two subtransactions; one aborts. Under Moss the
  // committed sibling's work survives within the parent.
  Database db(Opts(CcMode::kMossRW));
  auto t = db.Begin();
  {
    auto good = t->BeginChild();
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE((*good)->Put("good", 1).ok());
    ASSERT_TRUE((*good)->Commit().ok());
  }
  {
    auto bad = t->BeginChild();
    ASSERT_TRUE(bad.ok());
    ASSERT_TRUE((*bad)->Put("bad", 1).ok());
    ASSERT_TRUE((*bad)->Abort().ok());
  }
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("good").value(), 1);
  EXPECT_FALSE(db.ReadCommitted("bad").has_value());
}

TEST(EngineConcurrencyTest, ReadersDoNotBlockReadersUnderLoad) {
  Database db(Opts(CcMode::kMossRW));
  db.Preload("hot", 7);
  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 300; ++j) {
        Status s = db.RunTransaction(3, [](Transaction& t) {
          auto r = t.Get("hot");
          if (!r.ok()) return r.status();
          return r.ok() && *r == 7 ? Status::OK()
                                   : Status::Internal("wrong value");
        });
        if (s.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * 300);
  // Read-read never conflicts: no waits at all.
  EXPECT_EQ(db.stats().Snapshot().lock_waits, 0u);
}

TEST(EngineConcurrencyTest, StatsAreCoherent) {
  Database db(Opts(CcMode::kMossRW));
  ASSERT_TRUE(db.RunTransaction(1, [](Transaction& t) {
                  return t.Put("k", 1);
                }).ok());
  auto t = db.Begin();
  (void)t->Abort();
  EXPECT_EQ(db.stats().Snapshot().top_level_committed, 1u);
  EXPECT_EQ(db.stats().Snapshot().top_level_aborted, 1u);
  EXPECT_GE(db.stats().Snapshot().txns_begun, 2u);
  EXPECT_GE(db.stats().Snapshot().writes, 1u);
}

// BeginChild may run on any thread, so it can race its parent's return.
// The begin_txn delay holds a BeginChild between its activity check and
// its count of the child for 20 ms, and the owner returns 5 ms in. The
// child begin and the return must never both succeed: a child under a
// returned parent would hand its write lock to a parent that never
// releases again, and the key would stay locked for good.
void RunBeginChildRacingReturn(bool commit) {
  EngineOptions o = Opts(CcMode::kMossRW);
  o.lock_timeout = std::chrono::milliseconds(200);
  Database db(o);
  db.Preload("k", 0);
  auto disarm = MakeCleanup([] { FailPoints::DisableAll(); });
  for (int trial = 0; trial < 3; ++trial) {
    FailPoints::Config delay;
    delay.delay_one_in = 1;
    delay.delay_us = 20000;
    FailPoints::Enable(FailPoints::kBeginTxn, delay);
    auto parent = db.Begin();
    std::unique_ptr<Transaction> child;
    std::thread begin([&] {
      Result<std::unique_ptr<Transaction>> r = parent->BeginChild();
      if (r.ok()) child = std::move(*r);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Status returned = commit ? parent->Commit() : parent->Abort();
    begin.join();
    FailPoints::DisableAll();
    EXPECT_FALSE(child != nullptr && returned.ok())
        << "trial " << trial << ": a child began under a returned parent";
    if (child != nullptr) {
      (void)child->Add("k", 1);
      (void)child->Commit();
      child.reset();
      if (!returned.ok()) (void)parent->Commit();
    }
    // Whichever side won, a fresh writer of the key is not blocked.
    auto writer = db.Begin();
    EXPECT_TRUE(writer->Add("k", 1).ok()) << "trial " << trial;
    EXPECT_TRUE(writer->Commit().ok()) << "trial " << trial;
  }
}

TEST(EngineConcurrencyTest, BeginChildRacingCommitNeverBothSucceed) {
  RunBeginChildRacingReturn(/*commit=*/true);
}

TEST(EngineConcurrencyTest, BeginChildRacingAbortNeverBothSucceed) {
  RunBeginChildRacingReturn(/*commit=*/false);
}

}  // namespace
}  // namespace nestedtx
