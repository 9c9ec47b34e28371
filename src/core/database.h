// Public facade: a nested-transaction key-value store whose concurrency
// control is Moss's read/write locking (or a configured baseline).
//
// This is the engine-layer counterpart of the paper's R/W Locking system:
// Transaction handles play the transaction automata, the LockManager
// plays the R/W Locking objects, and the thread scheduler plays the
// generic scheduler.
#ifndef NESTEDTX_CORE_DATABASE_H_
#define NESTEDTX_CORE_DATABASE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/options.h"
#include "core/stats.h"
#include "core/trace_recorder.h"
#include "core/transaction.h"
#include "util/status.h"

namespace nestedtx {

class Database {
 public:
  explicit Database(EngineOptions options = {});
  ~Database();

  /// Begin a top-level transaction. Returns nullptr once the engine is
  /// marked failed (a Recover that died mid-replay); the reason is
  /// manager().failure().
  std::unique_ptr<Transaction> Begin() { return manager_.Begin(); }

  /// Install a committed value without a transaction (setup only; must not
  /// race with live transactions). When the WAL is enabled the preloaded
  /// value is also appended and flushed (best-effort) so a crash after
  /// setup does not lose the initial state. On a WAL-enabled database
  /// call Recover() FIRST: a preload appends to the log, and Recover
  /// requires a fresh one.
  void Preload(const std::string& key, int64_t value);

  /// Recover the store from `options.wal_dir`: load the newest valid
  /// checkpoint snapshot (falling back one generation on corruption),
  /// then replay only the post-checkpoint log suffix in commit (seq)
  /// order — per-shard files are parsed in parallel (one scanner thread
  /// per shard, up to the hardware threads) and merged by seq. A torn
  /// tail (partial record from a crash mid-flush) is truncated, as is
  /// anything above the first gap in the global commit sequence (the
  /// cross-shard consistent cut — see core/wal.h). Must be called
  /// before the first transaction AND before any Preload on a
  /// WAL-enabled database; FailedPrecondition otherwise. Idempotent:
  /// recovering twice (e.g. after a crash during recovery itself)
  /// converges to the same state because replay is last-writer-wins by
  /// seq. Any other failure poisons the engine (a half-applied replay
  /// must never be served): Begin() returns nullptr and RunTransaction
  /// returns this status until the process restarts.
  Status Recover();

  /// Checkpoint/compact the log (see core/wal.h): write a CRC-framed
  /// snapshot of the committed base as of a durable cut C — captured by
  /// a fuzzy scan, WITHOUT stalling commits — install it in the
  /// CHECKPOINT manifest, and drop every shard-log record <= C, so the
  /// next Recover loads the snapshot and replays only the post-C
  /// suffix. Safe to call while transactions run; concurrent calls
  /// serialize. FailedPrecondition when the WAL is off; a skipped
  /// checkpoint (nothing new since the last cut) returns OK. Also runs
  /// automatically from a background thread whenever
  /// wal_checkpoint_every_bytes of log have accumulated (see
  /// options.h).
  Status Checkpoint();

  /// Read the committed base value (bypasses locking; for setup/verify,
  /// not for use concurrent with writers).
  std::optional<int64_t> ReadCommitted(const std::string& key);

  /// Body of a transaction; return OK to request commit, any error to
  /// abort (the error is propagated or retried).
  using TxnBody = std::function<Status(Transaction&)>;

  /// Run `body` as a top-level transaction, retrying on Deadlock /
  /// TimedOut / Aborted up to `max_attempts` times.
  Status RunTransaction(int max_attempts, const TxnBody& body);

  /// Run `body` as a subtransaction of `parent` with the same retry
  /// policy — the partial-abort idiom: only this subtree retries.
  static Status RunNested(Transaction& parent, int max_attempts,
                          const TxnBody& body);

  /// Self-verifying mode: record this database's execution as a schedule
  /// of the formal model's R/W Locking system, checkable afterwards with
  /// CheckSeriallyCorrectForAll (see core/trace_recorder.h). Must be
  /// called before the first transaction; not supported under kFlat2PL
  /// (whose locking does not correspond to a R/W Locking system).
  Status EnableTracing();

  /// The recorder, or nullptr if tracing is off.
  EngineTraceRecorder* trace() { return trace_.get(); }

  EngineStats& stats() { return manager_.stats(); }
  const EngineOptions& options() const { return manager_.options(); }
  TransactionManager& manager() { return manager_; }
  MetricsRegistry& metrics() { return manager_.metrics(); }

  /// Everything the engine knows about itself, Prometheus text format:
  /// all counters, all latency histograms, the hot-key table, span-log
  /// totals. Safe to call while transactions run (monitoring-grade).
  std::string ExportMetricsText();

  /// The same data as one JSON document (plus the most recent sampled
  /// spans). Valid JSON no matter what bytes appear in keys.
  std::string ExportMetricsJson();

  /// The engine's one retry classification: true for a failure after
  /// which re-running the body is safe (Deadlock, TimedOut, Aborted,
  /// IoError). IoError is a failed WAL append: the commit aborted cleanly
  /// BEFORE any effect installed, so a retry may succeed on a healthy
  /// shard. DurabilityLost is the post-install flush failure and is
  /// deliberately absent: the effects are already applied in memory, and
  /// re-running the body would double-apply them (an Add would add twice
  /// — and the retry would typically hash to a healthy shard and be
  /// acked durable). RetryExecutor adds Cancelled where a fresh attempt
  /// cannot match the stale doom.
  static bool Retryable(const Status& s) {
    return s.IsDeadlock() || s.IsTimedOut() || s.IsAborted() ||
           s.IsIoError();
  }

 private:
  // Background auto-checkpoint (wal_checkpoint_every_bytes > 0): the
  // flush leader's trigger just flips ckpt_requested_ under ckpt_mutex_
  // (it runs with a shard mutex held, so it must stay cheap); this
  // thread does the actual Checkpoint() with no locks held.
  void CheckpointThreadMain();

  TransactionManager manager_;
  std::unique_ptr<EngineTraceRecorder> trace_;

  std::mutex ckpt_mutex_;
  std::condition_variable ckpt_cv_;
  bool ckpt_requested_ = false;
  bool ckpt_stop_ = false;
  std::thread checkpoint_thread_;  // joined in ~Database, before manager_
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_DATABASE_H_
