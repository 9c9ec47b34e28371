// Fault-tolerant execution: subtree retry under bounded backoff, orphan
// cancellation on failure, and admission control on top-level begins.
//
// The paper's serial-correctness result (Theorem 34) holds for EVERY
// schedule the lock discipline admits, so an execution layer is free to
// abort a failed subtree and re-run it — as a fresh subtransaction with a
// fresh id — without touching the correctness argument. RetryExecutor is
// that layer: it turns the transient failures the engine reports
// (deadlock victims, lock timeouts, injected faults) into bounded
// re-execution of exactly the failed subtree, which is the practical
// payoff of nesting over flat transactions.
//
// Safety hinges on three engine facts:
//   1. An aborted subtransaction's effects are discarded wholesale by the
//      lock manager, so a re-run cannot double-apply.
//   2. Each attempt runs under a fresh TransactionId (monotone child
//      counters never reuse indices), so stale state — doom entries,
//      wait-graph edges — can never be mistaken for the new attempt.
//   3. Cancellation (Transaction::Cancel) only dooms ids by subtree
//      prefix; the doom lifts when the doomed root aborts.
//
// Retry is NOT attempted for semantic failures (InvalidArgument,
// NotFound surfaced as errors, FailedPrecondition) or for admission
// sheds (Overloaded): only Database::Retryable's failures (Deadlock,
// TimedOut, Aborted, IoError) and — once the enclosing scope is clear of
// doom — Cancelled are considered transient.
#ifndef NESTEDTX_CORE_RETRY_H_
#define NESTEDTX_CORE_RETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/database.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

/// Knobs for RetryExecutor. Defaults match Database::RunTransaction's
/// historical behaviour (8 attempts, 50us..12.8ms backoff) but with a
/// deterministic jitter stream instead of thread-identity seeding.
struct RetryPolicy {
  /// Attempts per subtree retry scope (the initial run counts as one).
  /// Kept deliberately small: a subtree retry cannot release
  /// ancestor-held locks, so a deadlock cycle running through the
  /// parents is only broken by the subtree exhausting its attempts and
  /// escalating — small bounds escalate (and so resolve) quickly.
  /// At least 1.
  int max_attempts = 8;

  /// Attempts for the top level (RetryExecutor::Run). A top-level retry
  /// releases everything the tree held, so generous bounds are safe and
  /// useful where subtree bounds are not. 0 = same as max_attempts.
  int max_attempts_top = 0;

  /// Shared re-run budget for one transaction tree: every retry anywhere
  /// in the tree (the top-level loop and all nested RunChild loops)
  /// draws from the same pool, so a storm of failing subtrees cannot
  /// multiply work combinatorially. 0 = unlimited.
  int tree_budget = 0;

  /// Exponential backoff before the n-th retry: jittered uniform in
  /// (0, min(backoff_base_us << (n-1), backoff_cap_us)]. base 0 = none.
  uint32_t backoff_base_us = 50;
  uint32_t backoff_cap_us = 12800;

  /// Seed for the jitter stream. Delays are a pure function of
  /// (seed, retry scope id, attempt), so a fixed seed gives reproducible
  /// backoff schedules in tests.
  uint64_t seed = 0xbac0ffULL;

  /// When a subtree exhausts its attempts, cancel the parent's subtree
  /// before reporting failure: sibling work that can no longer commit
  /// usefully (the parent is about to abort or retry) stops early.
  bool escalate_cancels_parent = true;
};

/// The deterministic backoff delay before retry `attempt` (1-based) of
/// the scope identified by `scope` — exposed for tests.
uint64_t RetryBackoffDelayUs(const RetryPolicy& policy,
                             const TransactionId& scope, int attempt);

/// Runs transaction bodies with subtree-granular retry. Thread-safe: one
/// executor may serve many threads; nested RunChild calls made inside a
/// Run body automatically share that tree's retry budget.
class RetryExecutor {
 public:
  explicit RetryExecutor(Database* db, RetryPolicy policy = {});

  /// Run `body` as a top-level transaction under the retry policy.
  /// Passes the admission gate first (Status::Overloaded when shed; the
  /// slot is held across ALL attempts, so retries of admitted work never
  /// re-queue behind fresh arrivals).
  Status Run(const Database::TxnBody& body);

  /// Run `body` as a subtransaction of `parent`, retrying only this
  /// subtree on transient failure. On exhaustion, escalates per policy
  /// (cancels the parent's subtree) and returns the give-up status; the
  /// caller's own retry scope decides what happens next.
  Status RunChild(Transaction& parent, const Database::TxnBody& body);

  const RetryPolicy& policy() const { return policy_; }

 private:
  /// Per-tree shared retry pool (see RetryPolicy::tree_budget).
  struct TreeState {
    std::atomic<int> remaining{0};
  };

  /// True if a retry may proceed (consumes one unit when budgeted).
  bool ConsumeRetry(TreeState* tree);
  /// Backoff before retry `attempt` of `scope`; kRetryBackoff failpoint
  /// may inject a failure, returned for the caller to count as a failed
  /// attempt.
  Status Backoff(const TransactionId& scope, int attempt);
  /// Abort `txn`, waiting out any children a body leaked to other
  /// threads (Abort refuses while children are active).
  static void AbortQuietly(Transaction& txn);
  /// Transient-failure test for a child scope under `parent`.
  bool RetryableForChild(const Status& s, const Transaction& parent) const;

  std::shared_ptr<TreeState> FindTree(uint32_t top_index);
  void RegisterTree(uint32_t top_index, std::shared_ptr<TreeState> tree);
  void UnregisterTree(uint32_t top_index);

  Database* db_;
  RetryPolicy policy_;
  /// Under a prevention protocol (wait-die / no-wait) every conflict is
  /// an abort, so two retry loops whose delays coincide re-collide on
  /// every attempt — with the historical shared backoff scope (all
  /// top-level retries jitter from the root scope) that coincidence is
  /// PERMANENT and two opposite-order transactions livelock. When set,
  /// each retry jitters from the just-failed attempt's own txn id:
  /// fresh per attempt, distinct across loops, so schedules
  /// desynchronize. Off under detection to keep its backoff schedules
  /// (and bench baselines) byte-identical.
  bool prevention_scopes_ = false;

  std::mutex mutex_;  // guards trees_
  /// Live trees by top-level child index (TransactionId path[0]), so a
  /// RunChild deep in a body finds the budget its Run attempt registered.
  std::unordered_map<uint32_t, std::shared_ptr<TreeState>> trees_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_RETRY_H_
