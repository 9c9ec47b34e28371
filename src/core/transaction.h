// Nested transaction handles and the transaction manager.
//
// Usage:
//   Database db(options);
//   auto t = db.Begin();                  // top-level
//   auto c = t->BeginChild();             // subtransaction (own thread OK)
//   c->Put("k", 1);
//   c->Commit();                          // locks/versions pass to t
//   t->Commit();                          // installs into the store
//
// Structural rules (enforced): a transaction returns (commits or aborts)
// exactly once, only after all of its children have returned; operations
// on a returned or doomed transaction fail. A handle destroyed without
// returning aborts automatically (RAII).
//
// Hot path: each handle keeps a held-lock cache (key -> HeldLock handle
// from the lock manager). A re-read under a held read/write lock or a
// re-write under a held write lock goes through the lock manager's
// Reacquire* fast lane, skipping the shard hash, the conflict scan and
// the holder-set insert (see lock_manager.h for the epoch-based safety
// argument).
//
// Concurrency-control behaviour per CcMode is documented in options.h.
#ifndef NESTEDTX_CORE_TRANSACTION_H_
#define NESTEDTX_CORE_TRANSACTION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/lock_manager.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/span.h"
#include "core/stats.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

class TransactionManager;

class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Read `key`; NotFound if absent. Takes a read lock (kMossRW) or a
  /// write lock (kExclusive).
  Result<int64_t> Get(const std::string& key);

  /// Read `key`, nullopt if absent (same locking as Get).
  Result<std::optional<int64_t>> TryGet(const std::string& key);

  /// Read `key` under a WRITE lock (nullopt if absent). Use when the
  /// transaction will write the key later: taking the exclusive lock up
  /// front avoids the classic read-lock-upgrade deadlock, where two
  /// transactions both read-share a key and then both block trying to
  /// write it.
  Result<std::optional<int64_t>> GetForUpdate(const std::string& key);

  /// Write `key := value` under a write lock.
  Status Put(const std::string& key, int64_t value);

  /// Atomic read-modify-write: `key := (key or 0) + delta`; returns the
  /// new value. Write lock.
  Result<int64_t> Add(const std::string& key, int64_t delta);

  /// Delete `key` under a write lock (absent is fine).
  Status Delete(const std::string& key);

  /// Start a subtransaction. The child may run on any thread; multiple
  /// children may run concurrently (that is the point of nesting).
  Result<std::unique_ptr<Transaction>> BeginChild();

  /// Commit: locks and versions pass to the parent (or, for a top-level
  /// transaction, into the committed store). Fails while children are
  /// active or after the transaction returned.
  Status Commit();

  /// Abort: this subtree's effects are discarded. Under kFlat2PL a child
  /// abort also dooms the whole top-level transaction (no savepoints).
  /// Clears any cancellation (Cancel) pending on this transaction's id.
  Status Abort();

  /// Orphan cancellation: mark this subtree doomed ahead of an abort.
  /// Every descendant's (and this transaction's) next engine call fails
  /// with Status::Cancelled, and descendants parked in lock waits wake
  /// immediately with Status::Cancelled instead of sleeping out the lock
  /// timeout — the paper's orphan notion made operational: once an
  /// ancestor's abort is decided, Theorem 34 makes no promise to the
  /// subtree, so stop spending locks and time on it. Callable from any
  /// thread, idempotent. The doom lifts when this transaction aborts
  /// (a retry then runs under fresh ids, which the stale doom cannot
  /// match). Only Abort() is permitted afterwards.
  void Cancel();

  /// RetryExecutor hook: tag this transaction's span with its attempt
  /// number (0 = first attempt). No-op unless the span is sampled.
  void NoteRetryAttempt(uint32_t attempt) {
    if (span_sampled_) span_.retry_attempt = attempt;
  }

  const TransactionId& id() const { return id_; }
  bool returned() const { return returned_.load(); }
  /// Children begun and not yet returned (diagnostic; racy by nature).
  int active_children() const { return active_children_.load(); }
  /// True if a flat-mode subtransaction abort doomed this transaction
  /// tree; all further operations fail and only Abort() is permitted.
  bool doomed() const;

 private:
  friend class TransactionManager;

  Transaction(TransactionManager* manager, Transaction* parent,
              TransactionId id, bool occ);

  /// The transaction id locks are taken under (self, or the top-level
  /// ancestor in kFlat2PL).
  const TransactionId& LockOwner() const;

  Status CheckActive() const;
  /// Swap out this transaction's key inventory (it becomes empty).
  std::vector<LockManager::KeyHold> TakeKeys();
  /// Sorted-merge `keys` into the parent's inventory (cached handles ride
  /// along). The same taken vector serves the batched release first, so
  /// the commit path never deep-copies the key strings.
  void MergeKeysIntoParent(const std::vector<LockManager::KeyHold>& keys);
  Transaction* TopLevel();

  // --- Durability (wal_enabled only; see core/wal.h) ---
  /// Record a successful locking-path write in the commit image (last
  /// write of a key wins). OCC handles skip this: their write buffer IS
  /// the image.
  void RecordWalWrite(const std::string& key, std::optional<int64_t> value);
  /// Child commit: fold this handle's image into the parent's, child
  /// entries overwriting the parent's — the WAL face of lock
  /// inheritance. The image dies with the handle on abort.
  void MergeWalWritesIntoParent();
  /// The shared tail of Commit()'s append-failed path: turn the commit
  /// into a clean abort (no trace commit event was emitted yet, nothing
  /// was installed) and return `cause`, which is retryable through
  /// RetryExecutor/RunTransaction.
  Status AbortAfterFailedAppend(Status cause,
                                const std::vector<LockManager::KeyHold>& keys,
                                uint64_t commit_req_ns, bool timed);

  /// Register `key` in the key inventory, copy out any cached held-lock
  /// handle for it (plus its inventory index, a hint for CacheHeld), and
  /// (when tracing) allocate an access child id into `info`; returns the
  /// info pointer to pass to the lock manager (nullptr when not tracing).
  const AccessTraceInfo* PrepareAccess(const std::string& key,
                                       uint32_t op_code, Value op_arg,
                                       AccessTraceInfo* info,
                                       LockManager::HeldLock* held,
                                       bool* have_held, size_t* idx);
  /// Store/update the held-lock handle cached for `key`. `idx` is the
  /// entry's position as of PrepareAccess — revalidated, since committing
  /// children may have merged entries in since.
  void CacheHeld(size_t idx, const std::string& key,
                 const LockManager::HeldLock& held);

  /// Read/write through the lock manager, taking the held-lock fast lane
  /// when a sufficient cached handle exists.
  Result<std::optional<int64_t>> LockedRead(const std::string& key,
                                            const AccessTraceInfo* trace,
                                            LockManager::HeldLock held,
                                            bool have_held, size_t idx);
  Result<std::optional<int64_t>> LockedWrite(const std::string& key,
                                             const LockManager::Mutator& m,
                                             const AccessTraceInfo* trace,
                                             LockManager::HeldLock held,
                                             bool have_held, size_t idx);

  /// When tracing: fold a child report value into this transaction's
  /// aggregate (unsigned wraparound, mirroring ScriptedTransaction).
  void AddToAggregate(Value v);

  // --- Optimistic execution (CcProtocol::kOcc) ---
  // An OCC handle never touches the lock manager's holder structures:
  // every op lands in a private OccState instead of keys_. Reads resolve
  // own write buffer -> own read set -> ancestors' buffers -> store
  // (giving repeatable reads); child commit validates-and-merges the
  // sets into the parent; only top-level commit touches shared state.

  /// One buffered op, kept (traced runs only) for the top-level replay
  /// commit. `reported` is the value the op observed/produced — the
  /// replay must reproduce it or fail validation.
  struct OccOp {
    std::string key;
    uint32_t op_code;
    Value op_arg;
    std::optional<int64_t> reported;
  };
  struct OccState {
    std::vector<LockManager::OccWriteEntry> writes;  // sorted by key, unique
    std::vector<LockManager::OccReadEntry> reads;    // sorted by key
    std::vector<OccOp> ops;                          // traced runs only
  };

  /// Where an OCC buffer lookup found the key.
  enum class OccHit { kNone, kWrite, kRead };

  /// Lookup in THIS handle's buffers (caller holds mutex_).
  OccHit OccLookupLocked(const std::string& key,
                         std::optional<int64_t>* value);
  /// Observe `key`'s value for this handle, recording the read
  /// dependency (word entry for store reads, buffer-sourced entry for
  /// ancestor-buffer hits) that merge/commit validation will check.
  Result<std::optional<int64_t>> OccObserve(const std::string& key);
  /// Buffer a write (`mutator` maps observed -> new value; reads_current
  /// says whether the op semantically observes the old value, i.e. Add).
  Result<std::optional<int64_t>> OccWriteOp(const std::string& key,
                                            uint32_t op_code, Value op_arg,
                                            bool reads_current,
                                            const LockManager::Mutator& m);
  /// Append a traced op record + aggregate fold (no-op when not tracing).
  void OccRecordOp(const std::string& key, uint32_t op_code, Value op_arg,
                   std::optional<int64_t> reported);
  /// Child commit: validate this handle's read set against the parent
  /// chain as of now and merge sets/ops into the parent (the OCC image
  /// of lock inheritance). Fails with retryable Status::Aborted when a
  /// sibling's merged write invalidated an observation.
  Status OccMergeIntoParent();
  /// Top-level commit bookkeeping (word-path validate/install, or the
  /// traced replay-under-locks). Called from Commit() after returned_
  /// flips; mirrors the locking path's events/metrics/stats exactly.
  Status CommitOcc(uint64_t commit_req_ns);
  /// Traced replay: re-run the buffered ops through the locking grant
  /// paths in sorted key order (writes exclusively, so no upgrades and,
  /// by the sorted-acquisition argument, no deadlocks), validating each
  /// observed value. Fills `acquired` with the touched keys for
  /// OnCommit/OnAbort.
  Status OccReplayTraced(OccState* st, std::vector<std::string>* acquired);

  /// RAII wrapper around one lock-manager call: charges the calling
  /// thread's lock-wait delta (ThreadWaitAccounting) to the sampled
  /// span. Waits are synchronous on the caller's thread, so the delta
  /// is exactly this access's waits.
  class SpanAccessScope;

  /// Seal and publish the sampled span (no-op when not sampled).
  void FinishSpan(uint64_t end_ns, size_t keys_touched, Status::Code code);

  TransactionManager* manager_;
  Transaction* parent_;  // nullptr for top-level
  TransactionId id_;

  std::mutex mutex_;  // guards keys_, child_counter_, aggregate_
  /// Keys this transaction may hold locks on, sorted by key, each with
  /// the cached fast-path handle from its latest successful acquire (an
  /// empty/stale handle just falls back to the full grant path).
  std::vector<LockManager::KeyHold> keys_;
  uint32_t child_counter_ = 0;
  /// Commit image for the WAL (locking handles, wal_enabled only): the
  /// final value of every key this subtree wrote, sorted by key. Guarded
  /// by mutex_. Children fold theirs in at commit; the top-level commit
  /// appends the merged image before releasing its locks.
  std::vector<WalWrite> wal_writes_;
  std::atomic<int> active_children_{0};
  std::atomic<bool> returned_{false};
  std::atomic<bool> doomed_{false};   // kFlat2PL subtree failure
  Value aggregate_ = 0;               // guarded by mutex_; tracing only

  /// True when this handle executes optimistically (kOcc). Children
  /// inherit the flag, so a whole tree is either optimistic or locking.
  const bool occ_;
  std::unique_ptr<OccState> occ_state_;  // lazily allocated; guarded by mutex_

  // Observability scratch. begin_ns_ is stamped once at construction
  // (metrics enabled only); span_ accumulates while span_sampled_ and is
  // pushed to the span log exactly once, at commit/abort. Like the rest
  // of a handle's sequencing state, the span scratch assumes the usual
  // one-thread-at-a-time use of a single handle (concurrency comes from
  // children, each with its own handle and span).
  uint64_t begin_ns_ = 0;
  TxnSpan span_;
  bool span_sampled_ = false;
};

/// Owns the lock manager and global policies; creates top-level
/// transactions. Thread-safe.
class TransactionManager {
 public:
  explicit TransactionManager(const EngineOptions& options);

  /// Begin a top-level transaction. Under kSerial this blocks until the
  /// engine-wide gate is free. Returns nullptr once the engine is marked
  /// failed (MarkFailed) — e.g. after a recovery that died mid-replay —
  /// so callers never run over half-applied state; failure() carries the
  /// reason.
  std::unique_ptr<Transaction> Begin();

  /// Poison the engine: every subsequent Begin() returns nullptr. The
  /// first call's status wins and is reported by failure() thereafter.
  /// Used by Database::Recover when a replay fails partway — the store
  /// may hold a half-applied prefix, which must never be served.
  void MarkFailed(Status why);
  /// OK while healthy; the MarkFailed status once poisoned.
  Status failure() const;

  const EngineOptions& options() const { return options_; }
  EngineStats& stats() { return stats_; }
  MetricsRegistry& metrics() { return metrics_; }
  LockManager& locks() { return locks_; }
  /// The write-ahead log, or null when wal_enabled is false (or wal_dir
  /// is empty — normalized off, mirroring the lock-word knob).
  WriteAheadLog* wal() { return wal_.get(); }

  /// Admission gate for managed top-level execution (RunTransaction /
  /// RetryExecutor::Run; raw Begin() is never gated). Returns OK with a
  /// slot held (release with ReleaseTopLevel), blocks while the queue
  /// has room, or sheds with Status::Overloaded once in-flight plus
  /// queued top-levels exceed the configured bounds — so retry storms
  /// degrade goodput gracefully instead of collapsing it. No-op (always
  /// OK) when admission_max_inflight is 0.
  Status AdmitTopLevel();
  void ReleaseTopLevel();

 private:
  friend class Transaction;

  // kSerial gate (semaphore semantics: release may happen on a different
  // thread than acquire, so a plain mutex would be UB).
  void AcquireSerialGate();
  void ReleaseSerialGate();

  EngineOptions options_;
  EngineStats stats_;
  MetricsRegistry metrics_;
  LockManager locks_;
  /// Constructed before any transaction runs; locks_ holds a raw pointer
  /// (declared after locks_, destroyed first — by then every transaction
  /// has returned and the destructor's FlushAll makes the tail durable).
  std::unique_ptr<WriteAheadLog> wal_;

  std::atomic<uint32_t> top_counter_{0};

  // Engine failure state (MarkFailed / failure / Begin's refusal).
  mutable std::mutex failed_mutex_;
  Status failed_status_ = Status::OK();

  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_busy_ = false;

  // Admission gate (see AdmitTopLevel).
  std::mutex admit_mutex_;
  std::condition_variable admit_cv_;
  uint32_t admitted_ = 0;
  uint32_t admit_queued_ = 0;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_TRANSACTION_H_
