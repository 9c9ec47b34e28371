#include "core/wait_graph.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace nestedtx {

namespace {

bool Related(const TransactionId& a, const TransactionId& b) {
  return a.IsAncestorOf(b) || b.IsAncestorOf(a);
}

}  // namespace

bool WaitGraph::FindCycle(const TransactionId& from,
                          const TransactionId& target,
                          IdHashSet* no_path) const {
  // Explicit-stack DFS — deep wait chains must not recurse.
  std::vector<TransactionId> stack{from};
  const auto push_edges = [&](NodeMap::const_iterator it) {
    for (const TransactionId& dst : it->second) {
      if (no_path->count(dst) == 0) stack.push_back(dst);
    }
  };
  while (!stack.empty()) {
    const TransactionId id = std::move(stack.back());
    stack.pop_back();
    if (Related(id, target)) return true;
    if (!no_path->insert(id).second) continue;  // already expanded
    // Expand every registered waiter related to `id` — its ancestors via
    // one map lookup per path prefix, its descendants via the contiguous
    // lexicographic range just after it.
    for (TransactionId a = id;; a = a.Parent()) {
      auto it = waiters_.find(a);
      if (it != waiters_.end()) push_edges(it);
      if (a.IsRoot()) break;
    }
    for (auto it = waiters_.upper_bound(id);
         it != waiters_.end() && id.IsAncestorOf(it->first); ++it) {
      push_edges(it);
    }
  }
  // Exhaustive failure: everything in no_path was fully expanded without
  // reaching target, so those negatives are reusable by later checks.
  return false;
}

Status WaitGraph::AddWait(const TransactionId& waiter,
                          const std::vector<TransactionId>& holders) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TransactionId> useful;
  for (const TransactionId& h : holders) {
    if (Related(h, waiter)) continue;
    auto it = std::lower_bound(useful.begin(), useful.end(), h);
    if (it == useful.end() || !(*it == h)) useful.insert(it, h);
  }
  // This registration replaces any previous wait by `waiter`, so the old
  // edges are dropped before the cycle check — stale self-edges must not
  // count as paths (and must not survive a rejected registration).
  waiters_.erase(waiter);
  if (useful.empty()) return Status::OK();

  // Would any holder's blocked-set reach back to the waiter? Negative
  // results carry across holders (removals cannot create paths).
  IdHashSet no_path;
  for (const TransactionId& h : useful) {
    if (FindCycle(h, waiter, &no_path)) {
      return Status::Deadlock(
          StrCat("wait by ", waiter, " on ", h, " closes a cycle"));
    }
  }
  waiters_.emplace(waiter, std::move(useful));
  return Status::OK();
}

void WaitGraph::RemoveWait(const TransactionId& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  waiters_.erase(waiter);
}

size_t WaitGraph::NumWaiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiters_.size();
}

std::vector<TransactionId> WaitGraph::WaitingOn(
    const TransactionId& waiter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = waiters_.find(waiter);
  if (it == waiters_.end()) return {};
  return it->second;
}

}  // namespace nestedtx
