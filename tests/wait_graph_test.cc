#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/wait_graph.h"
#include "util/random.h"

namespace nestedtx {
namespace {

TransactionId T(std::initializer_list<uint32_t> path) {
  return TransactionId(std::vector<uint32_t>(path));
}

TEST(WaitGraphTest, NoCycleSimpleChain) {
  WaitGraph g;
  EXPECT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  EXPECT_TRUE(g.AddWait(T({1}), {T({2})}).ok());
  EXPECT_EQ(g.NumWaiters(), 2u);
}

TEST(WaitGraphTest, DirectCycleDetected) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  Status s = g.AddWait(T({1}), {T({0})});
  EXPECT_TRUE(s.IsDeadlock());
  // The failed wait left no edge behind.
  EXPECT_EQ(g.NumWaiters(), 1u);
}

TEST(WaitGraphTest, TransitiveCycleDetected) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  ASSERT_TRUE(g.AddWait(T({1}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({2}), {T({0})}).IsDeadlock());
}

TEST(WaitGraphTest, AncestorHolderIgnored) {
  WaitGraph g;
  // Waiting "on" one's own ancestor is not a real conflict edge.
  EXPECT_TRUE(g.AddWait(T({0, 1}), {T({0})}).ok());
  EXPECT_EQ(g.NumWaiters(), 0u);  // edge skipped entirely
}

TEST(WaitGraphTest, DescendantWaitClosesCycleThroughParent) {
  WaitGraph g;
  // T0.0's child waits on T0.1; T0.1 then waits on T0.0 — T0.0 cannot
  // finish until its child does, so this is a deadlock.
  ASSERT_TRUE(g.AddWait(T({0, 0}), {T({1})}).ok());
  EXPECT_TRUE(g.AddWait(T({1}), {T({0})}).IsDeadlock());
}

TEST(WaitGraphTest, RemoveWaitBreaksCycle) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  g.RemoveWait(T({0}));
  EXPECT_TRUE(g.AddWait(T({1}), {T({0})}).ok());
}

TEST(WaitGraphTest, ReAddReplacesEdges) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  // Re-register with a different holder set; the old edge to T0.1 is
  // gone, so T0.1 -> T0.0 -> T0.2 is a chain, not a cycle.
  ASSERT_TRUE(g.AddWait(T({0}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({1}), {T({0})}).ok());
}

TEST(WaitGraphTest, ReAddReplacesEdgesNoStaleCycle) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  ASSERT_TRUE(g.AddWait(T({0}), {T({2})}).ok());  // replaces
  // Old edge T0.0 -> T0.1 must be gone: T0.1 waiting on ... nothing that
  // reaches T0.1. T0.2 -> T0.1 creates chain T0.0->T0.2->T0.1; adding
  // T0.1 -> T0.0 NOW would close a genuine cycle.
  ASSERT_TRUE(g.AddWait(T({2}), {T({3})}).ok());
  EXPECT_TRUE(g.AddWait(T({3}), {T({0})}).IsDeadlock());
}

TEST(WaitGraphTest, ParallelBranchesNoFalseCycle) {
  WaitGraph g;
  EXPECT_TRUE(g.AddWait(T({0}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({1}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({3}), {T({2})}).ok());
  EXPECT_EQ(g.NumWaiters(), 3u);
}

TEST(WaitGraphTest, RelatedHoldersAllSkipped) {
  WaitGraph g;
  // Ancestor and descendant holders are both dropped; only the unrelated
  // holder produces an edge.
  ASSERT_TRUE(g.AddWait(T({0, 1}), {T({0}), T({0, 1, 2}), T({5})}).ok());
  EXPECT_EQ(g.NumWaiters(), 1u);
  std::vector<TransactionId> on = g.WaitingOn(T({0, 1}));
  ASSERT_EQ(on.size(), 1u);
  EXPECT_EQ(on[0], T({5}));
}

TEST(WaitGraphTest, OnlyRelatedHoldersLeavesNoWaiter) {
  WaitGraph g;
  ASSERT_TRUE(g.AddWait(T({0, 1}), {T({0}), T({0, 1, 2})}).ok());
  EXPECT_EQ(g.NumWaiters(), 0u);
  EXPECT_TRUE(g.WaitingOn(T({0, 1})).empty());
}

TEST(WaitGraphTest, AncestorWaiterBlocksDescendantHolder) {
  WaitGraph g;
  // T0.0's wait blocks the whole subtree under T0.0: an edge reaching any
  // descendant of T0.0 closes a cycle with it.
  ASSERT_TRUE(g.AddWait(T({0}), {T({1})}).ok());
  EXPECT_TRUE(g.AddWait(T({1}), {T({0, 3})}).IsDeadlock());
}

TEST(WaitGraphTest, MultiHopCycleThroughRelatedNodes) {
  WaitGraph g;
  // Every hop goes through a relative, never an exact id match:
  // T0.0's child waits on T0.1; T0.1's child waits on T0.2; T0.2's child
  // waiting on T0.0 closes the loop (T0.2's child is blocked by T0.2's
  // subtree... and each parent cannot finish until its child does).
  ASSERT_TRUE(g.AddWait(T({0, 0}), {T({1})}).ok());
  ASSERT_TRUE(g.AddWait(T({1, 2}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({2, 7}), {T({0})}).IsDeadlock());
  // The rejected registration left nothing behind.
  EXPECT_EQ(g.NumWaiters(), 2u);
  EXPECT_TRUE(g.WaitingOn(T({2, 7})).empty());
}

TEST(WaitGraphTest, MultiHopRelatedChainNoCycle) {
  WaitGraph g;
  // Same shape but the closing edge targets an unrelated branch: no cycle.
  ASSERT_TRUE(g.AddWait(T({0, 0}), {T({1})}).ok());
  ASSERT_TRUE(g.AddWait(T({1, 2}), {T({2})}).ok());
  EXPECT_TRUE(g.AddWait(T({2, 7}), {T({3})}).ok());
  EXPECT_EQ(g.NumWaiters(), 3u);
}

TEST(WaitGraphTest, LongChainIterativeDetectorNoOverflow) {
  WaitGraph g;
  // A 2000-hop chain would blow a naive recursive detector's stack under
  // sanitizers; the explicit-stack DFS must walk it and find the cycle.
  constexpr uint32_t kChain = 2000;
  for (uint32_t i = 0; i < kChain; ++i) {
    ASSERT_TRUE(g.AddWait(T({i}), {T({i + 1})}).ok());
  }
  EXPECT_TRUE(g.AddWait(T({kChain}), {T({0})}).IsDeadlock());
  EXPECT_EQ(g.NumWaiters(), size_t{kChain});
}

// ---------------------------------------------------------------------------
// Randomized equivalence: the indexed iterative detector against a
// brute-force reference that re-implements the spec as directly as
// possible (recursive reachability, full edge scans, no index, no memo).
// ---------------------------------------------------------------------------

bool RefRelated(const TransactionId& a, const TransactionId& b) {
  return a.IsAncestorOf(b) || b.IsAncestorOf(a);
}

// Straight-line reference model of WaitGraph registration semantics.
class ReferenceGraph {
 public:
  // Mirrors WaitGraph::AddWait: replaces any previous edges of `waiter`
  // (also on failure), drops related holders, rejects if a kept edge
  // closes a cycle. Returns true if the wait was registered (or trivially
  // satisfied), false for deadlock.
  bool AddWait(const TransactionId& waiter,
               const std::vector<TransactionId>& holders) {
    edges_.erase(waiter);
    std::set<TransactionId> useful;
    for (const TransactionId& h : holders) {
      if (!RefRelated(h, waiter)) useful.insert(h);
    }
    for (const TransactionId& h : useful) {
      std::set<TransactionId> seen;
      if (Reaches(h, waiter, &seen)) return false;
    }
    if (!useful.empty()) {
      edges_[waiter].assign(useful.begin(), useful.end());
    }
    return true;
  }

  void RemoveWait(const TransactionId& waiter) { edges_.erase(waiter); }

  size_t NumWaiters() const { return edges_.size(); }

 private:
  // Naive recursive related-matching reachability: an edge u -> v blocks
  // every transaction related to u.
  bool Reaches(const TransactionId& from, const TransactionId& target,
               std::set<TransactionId>* seen) const {
    if (RefRelated(from, target)) return true;
    if (!seen->insert(from).second) return false;
    for (const auto& [src, dsts] : edges_) {
      if (!RefRelated(src, from)) continue;
      for (const TransactionId& dst : dsts) {
        if (Reaches(dst, target, seen)) return true;
      }
    }
    return false;
  }

  std::map<TransactionId, std::vector<TransactionId>> edges_;
};

TEST(WaitGraphTest, RandomizedEquivalenceWithBruteForce) {
  // Id pool: all paths of depth 1..3 over child indices 0..2 (39 ids),
  // dense enough that random waits constantly hit ancestor/descendant
  // relationships.
  std::vector<TransactionId> pool;
  for (uint32_t a = 0; a < 3; ++a) {
    pool.push_back(T({a}));
    for (uint32_t b = 0; b < 3; ++b) {
      pool.push_back(T({a, b}));
      for (uint32_t c = 0; c < 3; ++c) {
        pool.push_back(T({a, b, c}));
      }
    }
  }
  ASSERT_EQ(pool.size(), 39u);

  Rng rng(0x5eed5eedULL);
  size_t add_calls = 0;
  constexpr int kRounds = 400;
  constexpr int kOpsPerRound = 40;
  for (int round = 0; round < kRounds; ++round) {
    WaitGraph g;
    ReferenceGraph ref;
    for (int op = 0; op < kOpsPerRound; ++op) {
      const TransactionId& who = pool[rng.Uniform(pool.size())];
      if (rng.Bernoulli(0.2)) {
        g.RemoveWait(who);
        ref.RemoveWait(who);
      } else {
        std::vector<TransactionId> holders;
        const uint64_t n = 1 + rng.Uniform(3);
        for (uint64_t i = 0; i < n; ++i) {
          holders.push_back(pool[rng.Uniform(pool.size())]);
        }
        ++add_calls;
        const bool got = g.AddWait(who, holders).ok();
        const bool want = ref.AddWait(who, holders);
        ASSERT_EQ(got, want)
            << "round " << round << " op " << op << ": waiter "
            << who.ToString() << " diverged from reference";
      }
      ASSERT_EQ(g.NumWaiters(), ref.NumWaiters())
          << "round " << round << " op " << op;
    }
  }
  // The spec asks for at least 10^4 randomized registrations.
  EXPECT_GE(add_calls, size_t{10000});
}

}  // namespace
}  // namespace nestedtx
