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
// Threading contract: one thread at a time per handle. Every call on a
// handle, its destructor included, comes from the one thread that owns
// it at the time; a handle may move between threads with the
// happens-before of the hand-off. Cancel, BeginChild and the getters
// returned, active_children and doomed are the exceptions: they touch
// only atomics and mutex-guarded state, so any thread may call them.
// A BeginChild that races its parent's Commit or Abort gets one of two
// outcomes. Either it counts its child first, and the return fails with
// FailedPrecondition (active children), or the return comes first, and
// BeginChild fails with FailedPrecondition (already returned). No child
// ever starts under a returned parent.
// Concurrency inside a tree comes from children, each on its own handle
// and thread, running beside its parent and siblings.
//
// Hot path: each locking handle keeps a key inventory, every key it may
// hold a lock on with the HeldLock handle of its latest grant. Only the
// owner reads or writes it, so an access searches it once and takes no
// mutex: a repeat read runs the lock manager's seqlock lane in place on
// the entry that search found, a re-write runs the held-write CAS lane,
// and every other access grants through the entry's handle, which the
// lock manager updates in place (see lock_manager.h for the word-based
// safety argument). A committing child, or a flat-2PL child that aborts,
// hands its taken inventory to the parent's pending list under the
// parent's mutex; the parent folds that list into its inventory at its
// next access and before its own release, so every inherited key reaches
// the release batch. A parent that touches a key in the same instant a
// child commits it misses and takes the grant path on that key.
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
  bool returned() const { return (status_.load() & kReturned) != 0; }
  /// Children begun and not yet returned (diagnostic; racy by nature).
  int active_children() const {
    return static_cast<int>(status_.load() & kChildMask);
  }
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
  /// The recorder this handle reports to: null when not tracing, and for
  /// OCC subtransactions, which the trace never sees (their ops surface
  /// as accesses of the top-level commit's block; see OccInstall).
  EngineTraceRecorder* TraceRecorder() const;

  Status CheckActive() const;
  /// A return's entry: set kReturned with one CAS, which fails while a
  /// child is active (a BeginChild that counted its child first wins) or
  /// once returned. `verb` names the return in the error.
  Status MarkReturned(const char* verb);
  /// Fold the inventories committed children handed up (pending_keys_)
  /// into keys_; an entry already there, with its cached handle, wins.
  /// Owner only, and only once keys_pending_ reads true: an access with
  /// nothing pending pays that one acquire load.
  void AdoptPendingKeys();
  /// Swap out this transaction's key inventory, pending hand-offs folded
  /// in (it becomes empty). Owner only.
  std::vector<LockManager::KeyHold> TakeKeys();
  /// Hand a taken inventory to the parent's pending list (cached handles
  /// ride along). The same vector served the batched release first, so
  /// the commit path never deep-copies the key strings.
  void HandKeysToParent(std::vector<LockManager::KeyHold> keys);
  Transaction* TopLevel();

  /// The one access body behind TryGet, GetForUpdate, Put, Add and
  /// Delete. `op_code`/`op_arg` name the model operation; `m` maps the
  /// observed value to the new one, and a null `m` reads (as in
  /// LockManager::Grant). A locking handle searches its inventory once:
  /// a repeat read tries the seqlock lane in place, and every other
  /// access makes one lock-manager call on the entry's handle. An OCC
  /// handle observes into its read set and buffers writes in its image.
  Result<std::optional<int64_t>> Access(const std::string& key,
                                        uint32_t op_code, Value op_arg,
                                        const LockManager::Mutator* m);
  /// Record a write's result in the image (last write of a key wins).
  void RecordWrite(const std::string& key, std::optional<int64_t> value);

  /// When tracing: fold a child report value into this transaction's
  /// aggregate (unsigned wraparound, mirroring ScriptedTransaction).
  void AddToAggregate(Value v);

  // --- Returns ---
  // Commit passes locks, versions and the image up (Pass), Abort
  // discards them (AbortTail), and both end in Finish.

  /// What a return hands its tail.
  struct Handoff {
    uint64_t request_ns = 0;  // commit/abort request stamp (timed only)
    Value aggregate = 0;      // traced commits: the reported value
    size_t keys = 0;          // the span's keys_touched
    bool released = false;    // ran a release or an OCC install
    WalTicket ticket;         // a top-level commit's log record
  };
  /// A return's first step: one clock read for the span's request stamp
  /// and the release histogram (span sampling implies metrics enabled).
  Handoff StartReturn();
  /// INFORM_COMMIT_AT: hand locks, versions and the image to the parent,
  /// or (top-level) log and install them, filling `h`. A top-level
  /// failure (OCC validation, the log append) happens before anything
  /// is installed or traced as committed.
  Status Pass(Handoff* h);
  /// The one abort tail, INFORM_ABORT_AT: discard this handle's locks
  /// and versions (a flat-2PL child dooms its tree instead; an OCC
  /// handle only drops its sets) and Finish.
  /// Returns `cause`: OK for Abort(), else the failure that turned a
  /// top-level commit into this abort (retryable through RetryExecutor).
  Status AbortTail(Status cause, Handoff h);
  /// The tail of every return: the release and txn_ns histograms, the
  /// span, REPORT_COMMIT or REPORT_ABORT, the outcome counters, and then
  /// the serial gate (top-level) or the parent's child count. Returns
  /// `result`.
  Status Finish(bool committed, Status result, const Handoff& h);

  // --- Optimistic execution (CcProtocol::kOcc) ---
  // An OCC handle never touches the lock manager's holder structures:
  // reads land in a private read set and writes in the image. Reads
  // resolve own image -> own read set -> ancestors' buffers -> store
  // (giving repeatable reads); child commit validates-and-merges the
  // sets into the parent; only top-level commit touches shared state.

  /// One buffered op, kept (traced runs only) as the trace payload of
  /// the top-level commit. `reported` is the value the op observed or
  /// produced. The read set and the image drop some of these values
  /// (reads served from an ancestor's buffer, reads of the tree's own
  /// writes), and the checker needs them to catch a bad child merge.
  struct OccOp {
    std::string key;
    uint32_t op_code;
    Value op_arg;
    std::optional<int64_t> reported;
  };

  /// Lookup in THIS handle's image and read set (caller holds mutex_).
  bool OccLookupLocked(const std::string& key, std::optional<int64_t>* value);
  /// Observe `key`'s value for this handle, recording the read
  /// dependency (word entry for store reads, buffer-sourced entry for
  /// ancestor-buffer hits) that merge/commit validation will check.
  Result<std::optional<int64_t>> OccObserve(const std::string& key);
  /// Child commit: validate this handle's read set against the parent
  /// chain as of now and merge sets/ops into the parent (the OCC image
  /// of lock inheritance), counting the sets into `h->keys`. Fails with
  /// retryable Status::Aborted when a sibling's merged write invalidated
  /// an observation.
  Status OccMergeIntoParent(Handoff* h);
  /// Top-level commit: LockManager::OccCommit, traced or not, then fill
  /// the block it reserved (EmitOccCommit).
  Status OccInstall(Handoff* h);
  /// Fill a traced commit's block from `first`: the ops' access groups
  /// stable-sorted by key, REQUEST_COMMIT, COMMIT, then one
  /// INFORM_COMMIT_AT per key. `ops` must already be sorted.
  void EmitOccCommit(const std::vector<OccOp>& ops, uint64_t first,
                     Value aggregate);

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

  // Guards pending_keys_, child_counter_, aggregate_, writes_ and the OCC
  // sets: the state that children and other threads reach.
  std::mutex mutex_;
  /// Keys this transaction may hold locks on, sorted by key, each with
  /// the cached fast-path handle from its latest successful acquire (an
  /// empty/stale handle just falls back to the full grant path). Owner
  /// only: no mutex. Reserves kInventoryReserve entries on first insert.
  std::vector<LockManager::KeyHold> keys_;
  static constexpr size_t kInventoryReserve = 16;
  /// Inventories handed up by committed (and flat-2PL aborted) children,
  /// not yet folded into keys_. Guarded by mutex_; keys_pending_ is set
  /// with each hand-off and cleared by the owner's fold.
  std::vector<std::vector<LockManager::KeyHold>> pending_keys_;
  std::atomic<bool> keys_pending_{false};
  uint32_t child_counter_ = 0;
  /// The write image: the final value of every key this subtree wrote,
  /// sorted by key. A child folds its image into its parent's at commit
  /// (child entries win); the top-level commit logs it (locking) or
  /// installs it (OCC). A locking handle keeps it only with a WAL; for an
  /// OCC handle it is the write set. Guarded by mutex_.
  std::vector<WalWrite> writes_;
  /// The lifecycle word: the returned bit, the doomed bit (a kFlat2PL
  /// subtree failure) and, below them, the count of children begun and
  /// not yet returned. One word, so BeginChild's count and a return's
  /// check of it are each one CAS and cannot interleave.
  static constexpr uint32_t kReturned = 1u << 31;
  static constexpr uint32_t kDoomed = 1u << 30;
  static constexpr uint32_t kChildMask = kDoomed - 1;
  std::atomic<uint32_t> status_{0};
  Value aggregate_ = 0;  // guarded by mutex_; tracing only

  /// True when this handle executes optimistically (kOcc). Children
  /// inherit the flag, so a whole tree is either optimistic or locking.
  const bool occ_;
  /// OCC read set (sorted by key) and, traced runs only, the buffered
  /// ops. Guarded by mutex_.
  std::vector<LockManager::OccReadEntry> occ_reads_;
  std::vector<OccOp> occ_ops_;

  // Observability scratch. begin_ns_ is stamped once at construction
  // (metrics enabled only); span_ accumulates while span_sampled_ and is
  // pushed to the span log exactly once, at commit/abort. Owner only, as
  // keys_ (the class's threading contract).
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

  // Engine failure state (MarkFailed / failure / Begin's refusal).
  // MarkFailed sets failed_ after storing the status, so the healthy
  // Begin path is one load; failure() reads the status under the mutex.
  mutable std::mutex failed_mutex_;
  Status failed_status_ = Status::OK();
  std::atomic<bool> failed_{false};

  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_busy_ = false;

  // Admission gate (see AdmitTopLevel).
  std::mutex admit_mutex_;
  std::condition_variable admit_cv_;
  uint32_t admitted_ = 0;
  uint32_t admit_queued_ = 0;

  // Begin ordinals: one fetch_add per top-level Begin. Alone on its cache
  // line (last member, so the class's padding fills the rest of the line),
  // so that RMW never invalidates the fields every access reads, such as
  // LockManager::doomed_count_ and wal_. One counter for the engine, not
  // per-thread blocks: the WAL shard is the ordinal mod wal_shards.
  alignas(64) std::atomic<uint32_t> top_counter_{0};
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_TRANSACTION_H_
