// Parameterized property sweeps over the engine: across a grid of
// (CC mode x threads x keys x read ratio), concurrent workloads must
// preserve value invariants — no lost updates, conserved totals —
// regardless of deadlocks, timeouts, retries, or nesting shape.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

struct EngineSweepCase {
  std::string label;
  CcMode mode;
  int threads;
  int keys;
  double read_ratio;
  bool nested;
};

void PrintTo(const EngineSweepCase& c, std::ostream* os) { *os << c.label; }

class EnginePropertyTest : public ::testing::TestWithParam<EngineSweepCase> {
};

TEST_P(EnginePropertyTest, IncrementsAreNeverLost) {
  const EngineSweepCase& c = GetParam();
  EngineOptions options;
  options.cc_mode = c.mode;
  options.lock_timeout = std::chrono::milliseconds(300);
  Database db(options);
  for (int k = 0; k < c.keys; ++k) db.Preload(StrCat("k", k), 0);

  std::atomic<int64_t> committed_increments{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < c.threads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w * 31 + 7);
      for (int i = 0; i < 60; ++i) {
        const std::string key = StrCat("k", rng.Uniform(c.keys));
        int64_t delta = 0;
        Status s = db.RunTransaction(40, [&](Transaction& t) -> Status {
          delta = 0;
          auto body = [&](Transaction& x) -> Status {
            if (rng.Bernoulli(c.read_ratio)) {
              auto r = x.TryGet(key);
              return r.ok() ? Status::OK() : r.status();
            }
            auto r = x.Add(key, 1);
            if (!r.ok()) return r.status();
            delta = 1;
            return Status::OK();
          };
          if (!c.nested) return body(t);
          return Database::RunNested(t, 4, body);
        });
        if (s.ok()) committed_increments.fetch_add(delta);
      }
    });
  }
  for (auto& t : threads) t.join();

  int64_t total = 0;
  for (int k = 0; k < c.keys; ++k) {
    total += db.ReadCommitted(StrCat("k", k)).value_or(0);
  }
  EXPECT_EQ(total, committed_increments.load());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnginePropertyTest,
    ::testing::Values(
        EngineSweepCase{"moss_hot_mixed", CcMode::kMossRW, 6, 1, 0.5, false},
        EngineSweepCase{"moss_hot_nested", CcMode::kMossRW, 6, 1, 0.5, true},
        EngineSweepCase{"moss_spread", CcMode::kMossRW, 6, 16, 0.5, false},
        EngineSweepCase{"moss_readheavy", CcMode::kMossRW, 8, 4, 0.9, false},
        EngineSweepCase{"moss_writeonly", CcMode::kMossRW, 6, 4, 0.0, true},
        EngineSweepCase{"excl_hot", CcMode::kExclusive, 6, 1, 0.5, false},
        EngineSweepCase{"excl_nested", CcMode::kExclusive, 4, 4, 0.5, true},
        EngineSweepCase{"flat_hot", CcMode::kFlat2PL, 6, 1, 0.5, false},
        EngineSweepCase{"serial_hot", CcMode::kSerial, 6, 1, 0.5, false},
        EngineSweepCase{"serial_nested", CcMode::kSerial, 4, 4, 0.5, true}),
    [](const ::testing::TestParamInfo<EngineSweepCase>& info) {
      return info.param.label;
    });

// Order-inverting workload under wait-for-graph detection: every cycle
// is broken and the invariant is preserved.
TEST(DeadlockResolutionTest, OrderInversionResolvesAndConserves) {
  EngineOptions options;
  options.cc_mode = CcMode::kMossRW;
  options.lock_timeout = std::chrono::milliseconds(50);
  Database db(options);
  db.Preload("a", 0);
  db.Preload("b", 0);
  std::atomic<int> committed{0};
  auto worker = [&](bool forward) {
    for (int i = 0; i < 25; ++i) {
      Status s = db.RunTransaction(200, [&](Transaction& t) -> Status {
        auto r1 = t.Add(forward ? "a" : "b", 1);
        if (!r1.ok()) return r1.status();
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
  EXPECT_EQ(committed.load(), 50);
  EXPECT_EQ(db.ReadCommitted("a").value(), 50);
  EXPECT_EQ(db.ReadCommitted("b").value(), 50);
}

// Nesting-depth sweep: a chain of subtransactions depth D deep, where
// the innermost writes and every level commits; the value must surface.
class NestingDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(NestingDepthTest, DeepChainCommitsThrough) {
  const int depth = GetParam();
  Database db;
  auto top = db.Begin();
  std::vector<std::unique_ptr<Transaction>> chain;
  Transaction* cur = top.get();
  for (int d = 0; d < depth; ++d) {
    auto child = cur->BeginChild();
    ASSERT_TRUE(child.ok());
    chain.push_back(std::move(*child));
    cur = chain.back().get();
  }
  ASSERT_TRUE(cur->Put("deep", depth).ok());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    ASSERT_TRUE((*it)->Commit().ok());
  }
  auto r = top->Get("deep");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, depth);
  ASSERT_TRUE(top->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("deep").value(), depth);
}

TEST_P(NestingDepthTest, DeepChainAbortAtTopOfChainDiscardsAll) {
  const int depth = GetParam();
  Database db;
  db.Preload("deep", -1);
  auto top = db.Begin();
  std::vector<std::unique_ptr<Transaction>> chain;
  Transaction* cur = top.get();
  for (int d = 0; d < depth; ++d) {
    auto child = cur->BeginChild();
    ASSERT_TRUE(child.ok());
    chain.push_back(std::move(*child));
    cur = chain.back().get();
  }
  ASSERT_TRUE(cur->Put("deep", depth).ok());
  // Commit all but the outermost chain link, then abort it.
  for (size_t i = chain.size(); i-- > 1;) {
    ASSERT_TRUE(chain[i]->Commit().ok());
  }
  ASSERT_TRUE(chain[0]->Abort().ok());
  auto r = top->Get("deep");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, -1);
  ASSERT_TRUE(top->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("deep").value(), -1);
}

INSTANTIATE_TEST_SUITE_P(Depths, NestingDepthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace nestedtx
