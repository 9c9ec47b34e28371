#include "core/retry.h"

#include <chrono>
#include <thread>

#include "core/failpoints.h"
#include "core/metrics.h"
#include "util/cleanup.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {

uint64_t RetryBackoffDelayUs(const RetryPolicy& policy,
                             const TransactionId& scope, int attempt) {
  if (policy.backoff_base_us == 0 || attempt <= 0) return 0;
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  uint64_t ceiling = uint64_t{policy.backoff_base_us} << shift;
  if (ceiling > policy.backoff_cap_us) ceiling = policy.backoff_cap_us;
  // Jitter is a pure function of (seed, scope, attempt): reproducible,
  // yet distinct scopes desynchronize — which is what breaks the
  // repeated-collision livelock two identical backoff schedules cause.
  Rng rng(policy.seed ^ static_cast<uint64_t>(scope.Hash()) ^
          (static_cast<uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL));
  return rng.Uniform(ceiling) + 1;
}

RetryExecutor::RetryExecutor(Database* db, RetryPolicy policy)
    : db_(db),
      policy_(policy),
      // Every non-detect protocol re-seeds backoff from each attempt's
      // fresh id: prevention aborts (wait-die / no-wait) need it to break
      // retry livelock, and OCC validation aborts have the same shape —
      // two transactions that repeatedly invalidate each other's read
      // sets must not sleep identical delays forever.
      prevention_scopes_(db->options().cc_protocol != CcProtocol::kDetect) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
  if (policy_.max_attempts_top < 1) {
    policy_.max_attempts_top = policy_.max_attempts;
  }
}

bool RetryExecutor::ConsumeRetry(TreeState* tree) {
  if (policy_.tree_budget <= 0) return true;
  return tree->remaining.fetch_sub(1, std::memory_order_relaxed) > 0;
}

Status RetryExecutor::Backoff(const TransactionId& scope, int attempt) {
  FailPoints::MaybeDelay(FailPoints::kRetryBackoff);
  const Status injected = FailPoints::MaybeFail(FailPoints::kRetryBackoff);
  const uint64_t us = RetryBackoffDelayUs(policy_, scope, attempt);
  if (us > 0) {
    // Histogram the sleep actually taken (the scheduler may oversleep),
    // not the planned delay.
    MetricsRegistry& metrics = db_->manager().metrics();
    const uint64_t start_ns = metrics.enabled() ? MonotonicNowNs() : 0;
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    if (metrics.enabled()) {
      metrics.Record(kHistRetryBackoffNs, MonotonicNowNs() - start_ns);
    }
  }
  return injected;
}

void RetryExecutor::AbortQuietly(Transaction& txn) {
  while (!txn.returned()) {
    if (txn.Abort().ok()) return;
    // Abort refuses while children are active: a body handed child
    // handles to threads it is still joining. Wait them out.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool RetryExecutor::RetryableForChild(const Status& s,
                                      const Transaction& parent) const {
  if (Database::Retryable(s)) return true;
  // Cancelled: the failed child's own doom lifted when it aborted. Retry
  // only if the enclosing scope is not itself doomed — if an ancestor is
  // being cancelled, this whole subtree is an orphan and must unwind,
  // not spin.
  if (s.IsCancelled()) {
    return !db_->manager().locks().IsDoomed(parent.id());
  }
  return false;
}

std::shared_ptr<RetryExecutor::TreeState> RetryExecutor::FindTree(
    uint32_t top_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = trees_.find(top_index);
  return it == trees_.end() ? nullptr : it->second;
}

void RetryExecutor::RegisterTree(uint32_t top_index,
                                 std::shared_ptr<TreeState> tree) {
  std::lock_guard<std::mutex> lock(mutex_);
  trees_[top_index] = std::move(tree);
}

void RetryExecutor::UnregisterTree(uint32_t top_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  trees_.erase(top_index);
}

Status RetryExecutor::Run(const Database::TxnBody& body) {
  RETURN_IF_ERROR(db_->manager().AdmitTopLevel());
  auto release =
      MakeCleanup([this] { db_->manager().ReleaseTopLevel(); });

  // One budget pool for the whole logical unit of work: every attempt of
  // the top level AND every nested RunChild inside any attempt draw from
  // it (attempts run under distinct top-level ids; the pool is keyed per
  // attempt below so nested scopes find it).
  auto tree = std::make_shared<TreeState>();
  tree->remaining.store(policy_.tree_budget, std::memory_order_relaxed);

  Status last = Status::Internal("no attempts made");
  bool budget_exhausted = false;
  // Root scope: every top-level retry loop jitters from the same stream
  // (historical behaviour, load-bearing for detect-mode bench baselines).
  // Prevention protocols instead re-seed from each failed attempt's own
  // id — see prevention_scopes_ — or two opposite-order loops that abort
  // each other on attempt n sleep identical delays and abort each other
  // on attempt n+1, forever.
  TransactionId backoff_scope;
  for (int attempt = 0; attempt < policy_.max_attempts_top; ++attempt) {
    if (attempt > 0) {
      if (!ConsumeRetry(tree.get())) {
        budget_exhausted = true;
        break;
      }
      db_->stats().Add(kStatRetriesAttempted);
      const Status injected = Backoff(backoff_scope, attempt);
      if (!injected.ok()) {
        last = injected;  // injected fault consumes the attempt
        continue;
      }
    }
    std::unique_ptr<Transaction> txn = db_->Begin();
    if (txn == nullptr) return db_->manager().failure();  // engine poisoned
    if (prevention_scopes_) backoff_scope = txn->id();
    txn->NoteRetryAttempt(static_cast<uint32_t>(attempt));
    const uint32_t top_index = txn->id()[0];
    RegisterTree(top_index, tree);
    auto unregister =
        MakeCleanup([this, top_index] { UnregisterTree(top_index); });
    Status s = body(*txn);
    if (s.ok()) {
      s = txn->Commit();
      if (s.ok()) return Status::OK();
    }
    if (!txn->returned()) {
      txn->Cancel();  // doom the failed tree first, as RunChild does
      AbortQuietly(*txn);
    }
    // A fresh attempt runs under a fresh top-level id, so a Cancelled
    // verdict against the dead tree never taints the next one.
    if (!Database::Retryable(s) && !s.IsCancelled()) return s;
    last = s;
  }
  db_->stats().Add(kStatRetriesExhausted);
  return Status::Aborted(StrCat(
      "transaction gave up (",
      budget_exhausted ? "tree retry budget exhausted" : "attempt limit",
      " after ", policy_.max_attempts_top, " attempts); last: ",
      last.ToString()));
}

Status RetryExecutor::RunChild(Transaction& parent,
                               const Database::TxnBody& body) {
  std::shared_ptr<TreeState> tree = FindTree(parent.id()[0]);
  if (tree == nullptr) {
    // Caller began the tree outside Run() (raw Begin): budget this
    // subtree in isolation.
    tree = std::make_shared<TreeState>();
    tree->remaining.store(policy_.tree_budget, std::memory_order_relaxed);
  }

  Status last = Status::Internal("no attempts made");
  bool budget_exhausted = false;
  // Same livelock surface as Run(): siblings of one parent share the
  // parent-id scope, so under prevention the scope tracks the failed
  // child instead (fresh child indices per attempt).
  TransactionId backoff_scope = parent.id();
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (!ConsumeRetry(tree.get())) {
        budget_exhausted = true;
        break;
      }
      db_->stats().Add(kStatRetriesAttempted);
      const Status injected = Backoff(backoff_scope, attempt);
      if (!injected.ok()) {
        last = injected;
        continue;
      }
    }
    Result<std::unique_ptr<Transaction>> child = parent.BeginChild();
    if (!child.ok()) {
      // Injected begin faults are transient: consume this attempt. A
      // parent-scope refusal (returned, doomed, orphaned) is not ours
      // to retry — unwind.
      if (child.status().IsDeadlock() || child.status().IsTimedOut() ||
          child.status().IsIoError()) {
        last = child.status();
        continue;
      }
      return child.status();
    }
    if (prevention_scopes_) backoff_scope = (*child)->id();
    (*child)->NoteRetryAttempt(static_cast<uint32_t>(attempt));
    Status s = body(**child);
    if (s.ok()) {
      s = (*child)->Commit();
      if (s.ok()) return Status::OK();
    }
    if (!(*child)->returned()) {
      // Doom the failed subtree FIRST so descendants parked in lock
      // waits on other threads wake with Cancelled now; the abort that
      // follows (once the body's threads unwound) lifts the doom.
      (*child)->Cancel();
      AbortQuietly(**child);
    }
    if (!RetryableForChild(s, parent)) return s;
    last = s;
  }
  db_->stats().Add(kStatRetriesExhausted);
  // Escalation: this subtree cannot make progress, so the parent will
  // have to abort or retry — stop sibling work that can no longer
  // usefully commit. The parent's own Abort lifts the doom.
  if (policy_.escalate_cancels_parent) parent.Cancel();
  return Status::Aborted(StrCat(
      "subtree under ", parent.id(), " gave up (",
      budget_exhausted ? "tree retry budget exhausted" : "attempt limit",
      " after ", policy_.max_attempts, " attempts); last: ",
      last.ToString()));
}

}  // namespace nestedtx
