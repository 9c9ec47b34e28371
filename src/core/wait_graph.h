// Wait-for graph for deadlock detection, ancestor-aware.
//
// A waiter registers edges to the (non-ancestor) holders blocking it; a
// registration that would close a cycle is rejected and the requester
// dies. Nested transactions make the requester the cheap place to die:
// only the waiting subtree retries, not the whole top-level transaction
// — the partial-abort advantage the paper's introduction motivates.
//
// Detector: iterative DFS on an explicit stack (no recursion-depth
// blowups) over an adjacency map keyed by packed TransactionId. The map's
// lexicographic key order doubles as an ancestor-closure index: the
// registered waiters related to a node n are n's registered ancestors
// (one O(log n) lookup per prefix of n's path) plus a contiguous key
// range of registered descendants starting at upper_bound(n) — so each
// node expansion costs O(depth·log W + related) instead of scanning every
// edge in the graph. Negative reachability results are memoized across
// the per-holder checks of one registration (edge removals cannot create
// paths, so negatives stay valid).
#ifndef NESTEDTX_CORE_WAIT_GRAPH_H_
#define NESTEDTX_CORE_WAIT_GRAPH_H_

#include <map>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

class WaitGraph {
 public:
  /// Register `waiter -> holder` edges (replacing any previous edges of
  /// `waiter` — including on failure: a rejected registration never
  /// leaves the previous wait's edges behind). Edges where holder is an
  /// ancestor or descendant of waiter are skipped — ancestors do not
  /// conflict, and a wait on one's own descendant resolves when the
  /// child returns. If the registration would close a cycle, returns
  /// Deadlock and registers nothing: the requester is the victim.
  Status AddWait(const TransactionId& waiter,
                 const std::vector<TransactionId>& holders);

  /// Remove all outgoing edges of `waiter` (wait over or re-evaluated).
  void RemoveWait(const TransactionId& waiter);

  /// Number of transactions currently waiting (diagnostics).
  size_t NumWaiters() const;

  /// Current outgoing edges of `waiter` (diagnostics/tests).
  std::vector<TransactionId> WaitingOn(const TransactionId& waiter) const;

 private:
  // Registered waiter -> its sorted, unique, non-empty outgoing edges.
  using NodeMap = std::map<TransactionId, std::vector<TransactionId>>;
  using IdHashSet = std::unordered_set<TransactionId, TransactionIdHash>;

  // True iff `target` is reachable from `from`, treating an edge u->v as
  // blocking every transaction related (ancestor/descendant) to u: a node
  // is blocked by its own wait, a live descendant's wait (the parent
  // cannot return until the child does), or an ancestor's wait (the
  // ancestor's lock moves only when the ancestor progresses). This is
  // deliberately conservative — a false cycle costs one subtree retry; a
  // missed cycle costs a hang. `no_path` accumulates nodes proven unable
  // to reach `target`. Caller holds mutex_.
  bool FindCycle(const TransactionId& from, const TransactionId& target,
                 IdHashSet* no_path) const;

  mutable std::mutex mutex_;
  NodeMap waiters_;  // lexicographic order == tree pre-order
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_WAIT_GRAPH_H_
