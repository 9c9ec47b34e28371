#include "core/transaction.h"

#include <algorithm>

#include "core/failpoints.h"
#include "serial/data_type.h"
#include "util/strings.h"

namespace nestedtx {

namespace {

// Position of `key` in the sorted key inventory.
std::vector<LockManager::KeyHold>::iterator FindKey(
    std::vector<LockManager::KeyHold>& keys, const std::string& key) {
  return std::lower_bound(
      keys.begin(), keys.end(), key,
      [](const LockManager::KeyHold& e, const std::string& k) {
        return e.key < k;
      });
}

// Sorted-unique insert; an existing entry (and its cached handle) wins.
void InsertKey(std::vector<LockManager::KeyHold>& keys,
               const LockManager::KeyHold& entry) {
  auto it = FindKey(keys, entry.key);
  if (it == keys.end() || it->key != entry.key) keys.insert(it, entry);
}

}  // namespace

const char* CcModeName(CcMode mode) {
  switch (mode) {
    case CcMode::kMossRW:
      return "moss-rw";
    case CcMode::kExclusive:
      return "exclusive";
    case CcMode::kFlat2PL:
      return "flat-2pl";
    case CcMode::kSerial:
      return "serial";
  }
  return "?";
}

const char* CcProtocolName(CcProtocol protocol) {
  switch (protocol) {
    case CcProtocol::kDetect:
      return "detect";
    case CcProtocol::kWaitDie:
      return "wait-die";
    case CcProtocol::kNoWait:
      return "no-wait";
    case CcProtocol::kOcc:
      return "occ";
  }
  return "?";
}

Transaction::Transaction(TransactionManager* manager, Transaction* parent,
                         TransactionId id, bool occ)
    : manager_(manager), parent_(parent), id_(std::move(id)), occ_(occ) {
  manager_->stats().Add(kStatTxnsBegun);
  MetricsRegistry& metrics = manager_->metrics();
  if (metrics.enabled()) {
    begin_ns_ = MonotonicNowNs();
    // Every transaction (children included) rolls the sampling dice; a
    // sampled child gets its own span in the ring.
    if (metrics.spans().Sample()) {
      span_sampled_ = true;
      span_.id = id_;
      span_.begin_ns = begin_ns_;
    }
  }
}

// Charges the calling thread's lock-wait delta to the sampled span; a
// no-op shell when the transaction carries no span.
class Transaction::SpanAccessScope {
 public:
  explicit SpanAccessScope(Transaction* t) : t_(t) {
    if (!t_->span_sampled_) return;
    before_ = ThreadWaitAccounting();
    if (t_->span_.first_lock_ns == 0) {
      t_->span_.first_lock_ns = MonotonicNowNs();
    }
  }
  ~SpanAccessScope() {
    if (!t_->span_sampled_) return;
    const ThreadWaitCounters& after = ThreadWaitAccounting();
    t_->span_.wait_ns += after.ns - before_.ns;
    t_->span_.wait_count += static_cast<uint32_t>(after.count - before_.count);
  }

 private:
  Transaction* t_;
  ThreadWaitCounters before_{};
};

void Transaction::FinishSpan(uint64_t end_ns, size_t keys_touched,
                             Status::Code code) {
  if (!span_sampled_) return;
  span_.end_ns = end_ns;
  span_.keys_touched = static_cast<uint32_t>(keys_touched);
  span_.final_status = code;
  manager_->metrics().spans().Append(span_);
  span_sampled_ = false;
}

Transaction::~Transaction() {
  if (!returned_.load()) {
    Abort();  // RAII: dropping an open transaction aborts it
  }
}

Transaction* Transaction::TopLevel() {
  Transaction* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t;
}

bool Transaction::doomed() const {
  if (doomed_.load()) return true;
  // Only flat 2PL ever dooms a tree; skip the ancestor walk otherwise.
  if (manager_->options().cc_mode != CcMode::kFlat2PL) return false;
  const Transaction* t = parent_;
  while (t != nullptr) {
    if (t->doomed_.load()) return true;
    t = t->parent_;
  }
  return false;
}

const TransactionId& Transaction::LockOwner() const {
  if (manager_->options().cc_mode != CcMode::kFlat2PL) return id_;
  const Transaction* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t->id_;
}

Status Transaction::CheckActive() const {
  if (returned_.load()) {
    return Status::FailedPrecondition(
        StrCat(id_, " has already returned"));
  }
  if (doomed()) {
    return Status::Aborted(
        StrCat(id_, " is doomed (flat-mode subtransaction abort)"));
  }
  if (manager_->locks().IsDoomed(id_)) {
    return Status::Cancelled(
        StrCat(id_, " is orphaned (ancestor abort/cancel in progress)"));
  }
  return Status::OK();
}

void Transaction::Cancel() { manager_->locks().DoomSubtree(id_); }

const AccessTraceInfo* Transaction::PrepareAccess(
    const std::string& key, uint32_t op_code, Value op_arg,
    AccessTraceInfo* info, LockManager::HeldLock* held, bool* have_held,
    size_t* idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindKey(keys_, key);
  if (it == keys_.end() || it->key != key) {
    it = keys_.insert(it, LockManager::KeyHold{key, {}});
  }
  *idx = static_cast<size_t>(it - keys_.begin());
  if (it->held.key != nullptr) {
    *held = it->held;
    *have_held = true;
  }
  if (manager_->locks().trace_recorder() == nullptr) return nullptr;
  // Accesses are children of this transaction in the model; they share
  // the child-index space with subtransactions.
  info->access_id = id_.Child(child_counter_++);
  info->op_code = op_code;
  info->op_arg = op_arg;
  return info;
}

void Transaction::CacheHeld(size_t idx, const std::string& key,
                            const LockManager::HeldLock& held) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (idx < keys_.size() && keys_[idx].key == key) {
    keys_[idx].held = held;
    return;
  }
  // A committing child merged entries in and shifted the index.
  auto it = FindKey(keys_, key);
  if (it != keys_.end() && it->key == key) it->held = held;
}

Result<std::optional<int64_t>> Transaction::LockedRead(
    const std::string& key, const AccessTraceInfo* trace,
    LockManager::HeldLock held, bool have_held, size_t idx) {
  SpanAccessScope span_scope(this);
  LockManager& locks = manager_->locks();
  if (have_held) {
    const LockManager::HeldLock before = held;
    Result<std::optional<int64_t>> r =
        locks.ReacquireRead(held, LockOwner(), trace);
    if (r.ok() &&
        (held.word != before.word || held.read != before.read ||
         held.write != before.write)) {
      CacheHeld(idx, key, held);
    }
    return r;
  }
  Result<std::optional<int64_t>> r =
      locks.AcquireRead(LockOwner(), key, trace, &held);
  if (r.ok()) CacheHeld(idx, key, held);
  return r;
}

Result<std::optional<int64_t>> Transaction::LockedWrite(
    const std::string& key, const LockManager::Mutator& m,
    const AccessTraceInfo* trace, LockManager::HeldLock held,
    bool have_held, size_t idx) {
  SpanAccessScope span_scope(this);
  LockManager& locks = manager_->locks();
  if (have_held) {
    const LockManager::HeldLock before = held;
    Result<std::optional<int64_t>> r =
        locks.ReacquireWrite(held, LockOwner(), m, trace);
    if (r.ok() &&
        (held.word != before.word || held.read != before.read ||
         held.write != before.write)) {
      CacheHeld(idx, key, held);
    }
    return r;
  }
  Result<std::optional<int64_t>> r =
      locks.AcquireWrite(LockOwner(), key, m, trace, &held);
  if (r.ok()) CacheHeld(idx, key, held);
  return r;
}

void Transaction::AddToAggregate(Value v) {
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate_ = static_cast<Value>(static_cast<uint64_t>(aggregate_) +
                                  static_cast<uint64_t>(v));
}

Result<std::optional<int64_t>> Transaction::TryGet(const std::string& key) {
  if (occ_) {
    // Optimistic read: no lock, no holder-set insert — the observation
    // lands in the private read set and is validated at commit.
    RETURN_IF_ERROR(CheckActive());
    Result<std::optional<int64_t>> r = OccObserve(key);
    if (!r.ok()) return r.status();
    manager_->stats().Bump(kStatOccReads);
    OccRecordOp(key, ops::kRead, 0, *r);
    return r;
  }
  // Repeat-read fast path: if we already hold `key`, try the seqlock
  // lane in place on the cached handle. A hit proves the handle is
  // current, so none of the general path's handle copy-out, access-id
  // bookkeeping, or write-back happens. The guard re-states CheckActive
  // with plain loads (no Status construction on the hot path): flat-2PL
  // dooming needs the ancestor walk, so that mode — like exclusive-read
  // mode and sampled spans (their wait accounting must stay complete) —
  // takes the general path below. The lane itself bails when tracing is
  // on or the word has moved.
  const CcMode cc_mode = manager_->options().cc_mode;
  if (manager_->locks().FastReadLanePossible() &&
      cc_mode != CcMode::kExclusive && cc_mode != CcMode::kFlat2PL &&
      !span_sampled_ && !returned_.load(std::memory_order_relaxed) &&
      !doomed_.load(std::memory_order_relaxed) &&
      !manager_->locks().IsDoomed(id_)) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = FindKey(keys_, key);
    if (it != keys_.end() && it->key == key) {
      std::optional<int64_t> v;
      if (manager_->locks().TryFastReadLane(it->held, &v)) return v;
    }
  }
  RETURN_IF_ERROR(CheckActive());
  const bool exclusive_reads = cc_mode == CcMode::kExclusive;
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace =
      PrepareAccess(key, ops::kRead, 0, &info, &held, &have_held, &idx);
  Result<std::optional<int64_t>> r =
      exclusive_reads
          // Exclusive locking: reads take write locks; the version copy
          // is the model's write-access behaviour.
          ? LockedWrite(
                key, [](std::optional<int64_t> v) { return v; }, trace,
                held, have_held, idx)
          : LockedRead(key, trace, held, have_held, idx);
  if (r.ok() && trace != nullptr) {
    AddToAggregate(r->value_or(kAbsentValue));
  }
  return r;
}

Result<std::optional<int64_t>> Transaction::GetForUpdate(
    const std::string& key) {
  // Under OCC there is no read-lock-upgrade hazard to pre-empt (nothing
  // is locked until commit), so this is a plain optimistic read.
  if (occ_) return TryGet(key);
  RETURN_IF_ERROR(CheckActive());
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace =
      PrepareAccess(key, ops::kRead, 0, &info, &held, &have_held, &idx);
  if (trace != nullptr) {
    // In the model this is a write access running a read-only operation.
    info.op_code = ops::kRead;
  }
  // A write lock with an identity mutator: the version copy is what the
  // model's write access does, and it makes the read abort-safe.
  Result<std::optional<int64_t>> r = LockedWrite(
      key, [](std::optional<int64_t> v) { return v; }, trace, held,
      have_held, idx);
  if (r.ok() && trace != nullptr) {
    AddToAggregate(r->value_or(kAbsentValue));
  }
  return r;
}

Result<int64_t> Transaction::Get(const std::string& key) {
  Result<std::optional<int64_t>> r = TryGet(key);
  if (!r.ok()) return r.status();
  if (!r->has_value()) {
    return Status::NotFound(StrCat("key '", key, "' not found"));
  }
  return **r;
}

Status Transaction::Put(const std::string& key, int64_t value) {
  RETURN_IF_ERROR(CheckActive());
  if (occ_) {
    Result<std::optional<int64_t>> r = OccWriteOp(
        key, ops::kWrite, value, /*reads_current=*/false,
        [value](std::optional<int64_t>) { return value; });
    return r.ok() ? Status::OK() : r.status();
  }
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace = PrepareAccess(key, ops::kWrite, value,
                                               &info, &held, &have_held,
                                               &idx);
  Result<std::optional<int64_t>> r = LockedWrite(
      key, [value](std::optional<int64_t>) { return value; }, trace, held,
      have_held, idx);
  if (r.ok()) {
    if (manager_->wal() != nullptr) RecordWalWrite(key, value);
    if (trace != nullptr) AddToAggregate(value);
  }
  return r.ok() ? Status::OK() : r.status();
}

Result<int64_t> Transaction::Add(const std::string& key, int64_t delta) {
  RETURN_IF_ERROR(CheckActive());
  if (occ_) {
    // The RMW observes the current value, so (unlike the blind Put and
    // Delete) it records a read dependency alongside the buffered write.
    Result<std::optional<int64_t>> r = OccWriteOp(
        key, ops::kCellAdd, delta, /*reads_current=*/true,
        [delta](std::optional<int64_t> v) { return v.value_or(0) + delta; });
    if (!r.ok()) return r.status();
    return **r;
  }
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace = PrepareAccess(key, ops::kCellAdd, delta,
                                               &info, &held, &have_held,
                                               &idx);
  Result<std::optional<int64_t>> r = LockedWrite(
      key,
      [delta](std::optional<int64_t> v) { return v.value_or(0) + delta; },
      trace, held, have_held, idx);
  if (!r.ok()) return r.status();
  if (manager_->wal() != nullptr) RecordWalWrite(key, *r);
  if (trace != nullptr) AddToAggregate(**r);
  return **r;
}

Status Transaction::Delete(const std::string& key) {
  RETURN_IF_ERROR(CheckActive());
  if (occ_) {
    Result<std::optional<int64_t>> r = OccWriteOp(
        key, ops::kCellDelete, 0, /*reads_current=*/false,
        [](std::optional<int64_t>) { return std::nullopt; });
    return r.ok() ? Status::OK() : r.status();
  }
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace = PrepareAccess(key, ops::kCellDelete, 0,
                                               &info, &held, &have_held,
                                               &idx);
  Result<std::optional<int64_t>> r = LockedWrite(
      key, [](std::optional<int64_t>) { return std::nullopt; }, trace,
      held, have_held, idx);
  if (r.ok()) {
    if (manager_->wal() != nullptr) RecordWalWrite(key, std::nullopt);
    if (trace != nullptr) AddToAggregate(kAbsentValue);
  }
  return r.ok() ? Status::OK() : r.status();
}

Result<std::unique_ptr<Transaction>> Transaction::BeginChild() {
  RETURN_IF_ERROR(CheckActive());
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kBeginTxn));
  FailPoints::MaybeDelay(FailPoints::kBeginTxn);
  TransactionId child_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    child_id = id_.Child(child_counter_++);
  }
  active_children_.fetch_add(1);
  // OCC children are invisible to the trace: a subtransaction only moves
  // private buffers around, and its ops surface as accesses of the
  // top-level commit's trace block (see CommitOcc). Emitting
  // create/commit events for lock-free children would give the checker
  // transactions with no access structure to certify.
  if (!occ_) {
    if (EngineTraceRecorder* rec = manager_->locks().trace_recorder()) {
      rec->Emit(Event::RequestCreate(child_id));
      rec->Emit(Event::Create(child_id));
    }
  }
  return std::unique_ptr<Transaction>(
      new Transaction(manager_, this, std::move(child_id), occ_));
}

void Transaction::MergeKeysIntoParent(
    const std::vector<LockManager::KeyHold>& keys) {
  // Cached handles ride along: their KeyState pointers stay valid, and a
  // handle whose epoch/modes no longer fit the parent simply falls back
  // to the full grant path (see lock_manager.h on inherited handles).
  std::lock_guard<std::mutex> lock(parent_->mutex_);
  for (const LockManager::KeyHold& k : keys) InsertKey(parent_->keys_, k);
}

std::vector<LockManager::KeyHold> Transaction::TakeKeys() {
  std::vector<LockManager::KeyHold> keys;
  std::lock_guard<std::mutex> lock(mutex_);
  keys.swap(keys_);
  return keys;
}

void Transaction::RecordWalWrite(const std::string& key,
                                 std::optional<int64_t> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::lower_bound(
      wal_writes_.begin(), wal_writes_.end(), key,
      [](const WalWrite& e, const std::string& k) { return e.key < k; });
  if (it != wal_writes_.end() && it->key == key) {
    it->value = value;  // last write of a key wins
  } else {
    wal_writes_.insert(it, WalWrite{key, value});
  }
}

void Transaction::MergeWalWritesIntoParent() {
  std::vector<WalWrite> mine;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    mine.swap(wal_writes_);
  }
  if (mine.empty()) return;
  // Child entries overwrite the parent's: the child's version replaced
  // the parent's in the lock manager's version map, so the child's value
  // is the subtree's final word on the key.
  std::lock_guard<std::mutex> lock(parent_->mutex_);
  for (WalWrite& w : mine) {
    auto it = std::lower_bound(
        parent_->wal_writes_.begin(), parent_->wal_writes_.end(), w.key,
        [](const WalWrite& e, const std::string& k) { return e.key < k; });
    if (it != parent_->wal_writes_.end() && it->key == w.key) {
      it->value = w.value;
    } else {
      parent_->wal_writes_.insert(it, std::move(w));
    }
  }
}

Status Transaction::AbortAfterFailedAppend(
    Status cause, const std::vector<LockManager::KeyHold>& keys,
    uint64_t commit_req_ns, bool timed) {
  // Mirrors Abort() for a top-level locking handle. returned_ already
  // flipped in Commit(), no commit trace event was emitted, and nothing
  // was installed — the only difference from a voluntary abort is the
  // cause carried back to the caller (IoError is retryable through
  // RunTransaction/RetryExecutor, so a transient log failure re-runs
  // the body against a healthy shard instead of crashing or silently
  // committing).
  MetricsRegistry& metrics = manager_->metrics();
  manager_->locks().policy().OnTransactionEnd(id_);
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  if (rec != nullptr) rec->Emit(Event::Abort(id_));
  manager_->locks().OnAbort(LockOwner(), keys);
  if (timed) {
    const uint64_t end_ns = MonotonicNowNs();
    metrics.Record(kHistAbortReleaseNs, end_ns - commit_req_ns);
    metrics.Record(kHistTxnNs, end_ns - begin_ns_);
    FinishSpan(end_ns, keys.size(), cause.code());
  }
  if (rec != nullptr) rec->Emit(Event::ReportAbort(id_));
  manager_->stats().Add(kStatTxnsAborted);
  manager_->stats().Add(kStatTopLevelAborted);
  manager_->locks().ClearDoom(id_);
  if (manager_->options().cc_mode == CcMode::kSerial) {
    manager_->ReleaseSerialGate();
  }
  return cause;
}

Status Transaction::Commit() {
  if (active_children_.load() != 0) {
    return Status::FailedPrecondition(
        StrCat(id_, " cannot commit with active children"));
  }
  RETURN_IF_ERROR(CheckActive());
  if (returned_.exchange(true)) {
    return Status::FailedPrecondition(StrCat(id_, " already returned"));
  }

  // One clock read up front covers the span's commit-request stamp and
  // the release-duration histogram (span sampling implies enabled()).
  MetricsRegistry& metrics = manager_->metrics();
  const bool timed = metrics.enabled();
  const uint64_t commit_req_ns = timed ? MonotonicNowNs() : 0;
  if (span_sampled_) span_.commit_request_ns = commit_req_ns;

  if (occ_) return CommitOcc(commit_req_ns);

  const CcMode mode = manager_->options().cc_mode;
  // No wait-graph sweep here: a committing transaction has returned from
  // every access, and each WaitForGrant exit clears its entry via a
  // scoped guard — taking the global graph mutex on the commit hot path
  // would buy nothing. Abort keeps a defensive sweep (it is the teardown
  // path for errors in flight).
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  Value my_aggregate = 0;
  if (rec != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    my_aggregate = aggregate_;
  }
  // Durability point (top-level only): append the merged commit image
  // while every write lock is still held — ReleaseBatch has not touched
  // the holder sets yet, so a later writer of any of these keys acquires
  // them only after our release and appends strictly after us (the
  // per-key ordering invariant of core/wal.h). On append failure the
  // commit turns into a clean abort: no commit trace event has been
  // emitted and nothing has been installed.
  WriteAheadLog* wal = manager_->wal();
  WalTicket wal_ticket;
  if (parent_ == nullptr && wal != nullptr) {
    std::vector<WalWrite> image;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      image.swap(wal_writes_);
    }
    if (!image.empty()) {
      Result<WalTicket> t = wal->AppendImage(id_[0], image);
      if (!t.ok()) {
        return AbortAfterFailedAppend(t.status(), TakeKeys(),
                                      commit_req_ns, timed);
      }
      wal_ticket = *t;
    }
  }
  if (rec != nullptr) {
    rec->Emit(Event::RequestCommit(id_, my_aggregate));
    rec->Emit(Event::Commit(id_));
  }
  if (parent_ == nullptr) {
    // Top-level commit: everything becomes the committed base.
    const std::vector<LockManager::KeyHold> keys = TakeKeys();
    manager_->locks().OnCommit(id_, TransactionId::Root(), keys);
    // The release fan-out is done: retire the seq from its shard's
    // unreleased set (the checkpoint truncation floor — a checkpoint's
    // fuzzy scan may miss installs of unreleased commits, so their log
    // records must survive it).
    if (wal_ticket.seq != 0) wal->NoteCommitReleased(wal_ticket);
    // Park until the record — and, across shards, everything it may
    // depend on — is flushed. A flush failure surfaces as
    // DurabilityLost, never IoError: the effects are installed
    // engine-side, so the commit must not be re-run — only never
    // acknowledged as durable. The documented asymmetry of syncing
    // after install (DESIGN.md §6).
    Status durable = Status::OK();
    if (wal_ticket.seq != 0) durable = wal->WaitDurable(wal_ticket);
    if (timed) {
      const uint64_t end_ns = MonotonicNowNs();
      metrics.Record(kHistCommitReleaseNs, end_ns - commit_req_ns);
      metrics.Record(kHistTxnNs, end_ns - begin_ns_);
      FinishSpan(end_ns, keys.size(), Status::Code::kOk);
    }
    if (rec != nullptr) rec->Emit(Event::ReportCommit(id_, my_aggregate));
    manager_->stats().Add(kStatTxnsCommitted);
    manager_->stats().Add(kStatTopLevelCommitted);
    if (mode == CcMode::kSerial) manager_->ReleaseSerialGate();
    return durable;
  }

  // Subtransaction commit. The inventory is swapped out once and the
  // same vector feeds both the batched release and the parent merge —
  // no deep copy of the key strings on the commit path.
  const std::vector<LockManager::KeyHold> keys = TakeKeys();
  if (mode == CcMode::kFlat2PL) {
    // Locks already belong to the top-level id; just hand the key
    // inventory up so the top-level release sees everything.
    MergeKeysIntoParent(keys);
  } else {
    manager_->locks().OnCommit(id_, parent_->id_, keys);
    MergeKeysIntoParent(keys);
  }
  // The WAL face of lock inheritance: the child's write image folds into
  // the parent's (child entries win), so only the top-level commit ever
  // reaches the log — exactly the paper's "only top-level commit is
  // externally meaningful".
  if (wal != nullptr) MergeWalWritesIntoParent();
  if (timed) {
    const uint64_t end_ns = MonotonicNowNs();
    // Flat-mode child commits release nothing (locks stay with the
    // top-level owner), so they contribute no release sample.
    if (mode != CcMode::kFlat2PL) {
      metrics.Record(kHistCommitReleaseNs, end_ns - commit_req_ns);
    }
    FinishSpan(end_ns, keys.size(), Status::Code::kOk);
  }
  if (rec != nullptr) {
    rec->Emit(Event::ReportCommit(id_, my_aggregate));
    parent_->AddToAggregate(my_aggregate);
  }
  manager_->stats().Add(kStatTxnsCommitted);
  parent_->active_children_.fetch_sub(1);
  return Status::OK();
}

Status Transaction::Abort() {
  if (active_children_.load() != 0) {
    return Status::FailedPrecondition(
        StrCat(id_, " cannot abort with active children"));
  }
  if (returned_.exchange(true)) {
    return Status::FailedPrecondition(StrCat(id_, " already returned"));
  }

  MetricsRegistry& metrics = manager_->metrics();
  const bool timed = metrics.enabled();
  const uint64_t abort_req_ns = timed ? MonotonicNowNs() : 0;
  if (span_sampled_) span_.commit_request_ns = abort_req_ns;

  const CcMode mode = manager_->options().cc_mode;
  // Wait-registry hygiene on teardown. Every WaitForGrant exit already
  // clears its own entry via a scoped guard (grant, deadlock, timeout,
  // injected fault all audited), so this is a defensive sweep for a
  // handle torn down with an operation's result still in flight (a no-op
  // for prevention policies, which keep no registry). Skipped for
  // flat-mode subtransactions, whose waits run under the shared
  // top-level id that siblings may still be using.
  if (parent_ == nullptr || mode != CcMode::kFlat2PL) {
    manager_->locks().policy().OnTransactionEnd(id_);
  }
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  // OCC children are invisible to the trace (see BeginChild); only a
  // top-level OCC abort reports, matching its Create from Begin.
  if (occ_ && parent_ != nullptr) rec = nullptr;
  if (rec != nullptr) rec->Emit(Event::Abort(id_));
  const std::vector<LockManager::KeyHold> keys = TakeKeys();
  if (mode == CcMode::kFlat2PL && parent_ != nullptr) {
    // No savepoints: a subtransaction abort cannot be undone in place, so
    // the whole top-level transaction is doomed. Its keys stay with the
    // top-level owner and are rolled back when the top aborts.
    TopLevel()->doomed_.store(true);
    MergeKeysIntoParent(keys);
  } else {
    manager_->locks().OnAbort(LockOwner(), keys);
  }
  if (timed) {
    const uint64_t end_ns = MonotonicNowNs();
    // A flat-mode child abort dooms the tree but releases nothing.
    if (!(mode == CcMode::kFlat2PL && parent_ != nullptr)) {
      metrics.Record(kHistAbortReleaseNs, end_ns - abort_req_ns);
    }
    if (parent_ == nullptr) metrics.Record(kHistTxnNs, end_ns - begin_ns_);
    FinishSpan(end_ns, keys.size(), Status::Code::kAborted);
  }
  if (rec != nullptr) rec->Emit(Event::ReportAbort(id_));
  manager_->stats().Add(kStatTxnsAborted);
  // The abort Cancel() announced has now happened: lift the doom so the
  // id space is clean. A retried subtree runs under fresh child ids, so
  // even a doom cleared late could never match the new attempt; clearing
  // here keeps the registry from accumulating dead roots.
  manager_->locks().ClearDoom(id_);
  if (parent_ == nullptr) {
    manager_->stats().Add(kStatTopLevelAborted);
    if (mode == CcMode::kSerial) manager_->ReleaseSerialGate();
  } else {
    parent_->active_children_.fetch_sub(1);
  }
  return Status::OK();
}

namespace {

// Sorted-vector positions in the OCC buffers.
std::vector<LockManager::OccWriteEntry>::iterator OccFindWrite(
    std::vector<LockManager::OccWriteEntry>& writes, const std::string& key) {
  return std::lower_bound(
      writes.begin(), writes.end(), key,
      [](const LockManager::OccWriteEntry& e, const std::string& k) {
        return e.key < k;
      });
}

std::vector<LockManager::OccReadEntry>::iterator OccFindRead(
    std::vector<LockManager::OccReadEntry>& reads, const std::string& key) {
  return std::lower_bound(
      reads.begin(), reads.end(), key,
      [](const LockManager::OccReadEntry& e, const std::string& k) {
        return e.key < k;
      });
}

// Sorted insert; duplicates per key are allowed (a merge may carry
// distinct word observations of the same key).
void OccInsertRead(std::vector<LockManager::OccReadEntry>& reads,
                   LockManager::OccReadEntry e) {
  reads.insert(OccFindRead(reads, e.key), std::move(e));
}

}  // namespace

Transaction::OccHit Transaction::OccLookupLocked(
    const std::string& key, std::optional<int64_t>* value) {
  if (occ_state_ == nullptr) return OccHit::kNone;
  auto wit = OccFindWrite(occ_state_->writes, key);
  if (wit != occ_state_->writes.end() && wit->key == key) {
    *value = wit->value;
    return OccHit::kWrite;
  }
  auto rit = OccFindRead(occ_state_->reads, key);
  if (rit != occ_state_->reads.end() && rit->key == key) {
    *value = rit->observed;
    return OccHit::kRead;
  }
  return OccHit::kNone;
}

Result<std::optional<int64_t>> Transaction::OccObserve(
    const std::string& key) {
  // Own buffers first: a handle's repeat reads are served locally, so the
  // read set holds at most one entry per key and reads are repeatable.
  std::optional<int64_t> v;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (OccLookupLocked(key, &v) != OccHit::kNone) return v;
  }
  // Ancestors' buffers: a child reads through the parent chain the way a
  // locking child reads through inherited versions. One mutex at a time
  // and never our own under an ancestor's — the child-merge path nests
  // strictly child->ancestor, so holding two here could deadlock it.
  bool from_ancestor = false;
  for (Transaction* t = parent_; t != nullptr && !from_ancestor;
       t = t->parent_) {
    std::lock_guard<std::mutex> lock(t->mutex_);
    from_ancestor = t->OccLookupLocked(key, &v) != OccHit::kNone;
  }
  LockManager::OccReadEntry e;
  e.key = key;
  if (from_ancestor) {
    // Buffer-sourced: no word to validate; the merge into the parent
    // re-resolves the key and fails if the observation went stale.
    e.observed = v;
    e.from_store = false;
  } else {
    Result<std::optional<int64_t>> r = manager_->locks().OccReadKey(key, &e);
    if (!r.ok()) return r.status();
    v = *r;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (occ_state_ == nullptr) occ_state_ = std::make_unique<OccState>();
    OccInsertRead(occ_state_->reads, std::move(e));
  }
  return v;
}

Result<std::optional<int64_t>> Transaction::OccWriteOp(
    const std::string& key, uint32_t op_code, Value op_arg,
    bool reads_current, const LockManager::Mutator& m) {
  std::optional<int64_t> current;
  if (reads_current) {
    Result<std::optional<int64_t>> r = OccObserve(key);
    if (!r.ok()) return r.status();
    current = *r;
  }
  const std::optional<int64_t> next = m(current);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (occ_state_ == nullptr) occ_state_ = std::make_unique<OccState>();
    auto it = OccFindWrite(occ_state_->writes, key);
    if (it != occ_state_->writes.end() && it->key == key) {
      it->value = next;
    } else {
      occ_state_->writes.insert(it, LockManager::OccWriteEntry{key, next});
    }
  }
  manager_->stats().Bump(kStatOccWrites);
  OccRecordOp(key, op_code, op_arg, next);
  return next;
}

void Transaction::OccRecordOp(const std::string& key, uint32_t op_code,
                              Value op_arg, std::optional<int64_t> reported) {
  if (manager_->locks().trace_recorder() == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (occ_state_ == nullptr) occ_state_ = std::make_unique<OccState>();
  occ_state_->ops.push_back(OccOp{key, op_code, op_arg, reported});
  // Inline AddToAggregate (it takes mutex_): every op folds the value it
  // reports, matching the locking paths' per-op aggregate contributions.
  aggregate_ = static_cast<Value>(
      static_cast<uint64_t>(aggregate_) +
      static_cast<uint64_t>(reported.value_or(kAbsentValue)));
}

Status Transaction::OccMergeIntoParent() {
  std::unique_ptr<OccState> st;
  Value my_aggregate = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    st = std::move(occ_state_);
    my_aggregate = aggregate_;
  }
  // parent_->mutex_ is held across validate AND merge: sibling merges
  // serialize here, so two children that both observed a key and both
  // buffered conflicting writes cannot slip past each other's
  // validation. Resolution above the parent locks one ancestor at a
  // time, strictly child->ancestor — merges at different depths take
  // mutexes in depth order and cannot deadlock.
  std::lock_guard<std::mutex> plock(parent_->mutex_);
  if (st != nullptr) {
    for (LockManager::OccReadEntry& e : st->reads) {
      std::optional<int64_t> v;
      OccHit h = parent_->OccLookupLocked(e.key, &v);
      for (Transaction* t = parent_->parent_;
           t != nullptr && h == OccHit::kNone; t = t->parent_) {
        std::lock_guard<std::mutex> alock(t->mutex_);
        h = t->OccLookupLocked(e.key, &v);
      }
      if (h == OccHit::kNone) {
        if (!e.from_store) {
          // The ancestor buffer this read was served from is gone —
          // nothing left to pin the observation; fail conservatively.
          manager_->stats().Add(kStatOccValidationAborts);
          return Status::Aborted(StrCat(
              id_, " OCC merge: buffered source for key '", e.key,
              "' vanished"));
        }
        continue;  // store-sourced: rides up for top-level validation
      }
      if (v != e.observed) {
        // A sibling's merged write (or a differing ancestor observation)
        // invalidated this read: partial abort — only this subtree
        // discards its work and retries.
        manager_->stats().Add(kStatOccValidationAborts);
        return Status::Aborted(StrCat(
            id_, " OCC merge validation failed on key '", e.key, "'"));
      }
      // Disposition on a value match: buffer-sourced entries are pure
      // duplicates of the ancestor's own observation and drop out (the
      // merge below skips !from_store). Store-sourced entries ALWAYS
      // keep their word — even when an ancestor's buffered write
      // matches the value, the store observation is independent, and a
      // concurrent top-level committer could still invalidate it
      // between our read and the tree's install.
    }
    // Merge. Writes upsert (the child's buffered value wins, as its
    // version replaces the parent's in locking inheritance); surviving
    // store-sourced reads insert unless an identical word entry already
    // exists; traced ops append after the parent's own (exactly the
    // order a serial execution of the tree would produce them in).
    if (parent_->occ_state_ == nullptr) {
      parent_->occ_state_ = std::make_unique<OccState>();
    }
    OccState& pst = *parent_->occ_state_;
    for (LockManager::OccReadEntry& e : st->reads) {
      if (!e.from_store) continue;  // dropped above (or never had a word)
      bool dup = false;
      for (auto it = OccFindRead(pst.reads, e.key);
           it != pst.reads.end() && it->key == e.key; ++it) {
        if (it->key_state == e.key_state && it->word == e.word) {
          dup = true;
          break;
        }
      }
      if (!dup) OccInsertRead(pst.reads, std::move(e));
    }
    for (LockManager::OccWriteEntry& w : st->writes) {
      auto it = OccFindWrite(pst.writes, w.key);
      if (it != pst.writes.end() && it->key == w.key) {
        it->value = w.value;
      } else {
        pst.writes.insert(it, std::move(w));
      }
    }
    for (OccOp& op : st->ops) pst.ops.push_back(std::move(op));
  }
  // Fold the aggregate inline (AddToAggregate would retake plock).
  parent_->aggregate_ = static_cast<Value>(
      static_cast<uint64_t>(parent_->aggregate_) +
      static_cast<uint64_t>(my_aggregate));
  return Status::OK();
}

Status Transaction::CommitOcc(uint64_t commit_req_ns) {
  MetricsRegistry& metrics = manager_->metrics();
  const bool timed = metrics.enabled();
  EngineStats& stats = manager_->stats();
  if (parent_ != nullptr) {
    // Child commit: validate-and-merge is the OCC image of lock
    // inheritance — the parent absorbs the child's observations and
    // intents; nothing touches shared state. No trace events either way
    // (OCC children are invisible to the trace; see BeginChild).
    const Status s = OccMergeIntoParent();
    if (timed) {
      FinishSpan(MonotonicNowNs(), 0,
                 s.ok() ? Status::Code::kOk : Status::Code::kAborted);
    }
    stats.Add(s.ok() ? kStatTxnsCommitted : kStatTxnsAborted);
    if (!s.ok()) manager_->locks().ClearDoom(id_);
    parent_->active_children_.fetch_sub(1);
    return s;
  }
  // Top-level commit: the only point an OCC tree touches shared state.
  std::unique_ptr<OccState> st;
  Value my_aggregate = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    st = std::move(occ_state_);
    my_aggregate = aggregate_;
  }
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  std::vector<OccOp> ops;  // the trace payload
  TraceBlock block;
  if (rec != nullptr) {
    // Size the block: one access group per op, REQUEST_COMMIT, COMMIT,
    // and one INFORM_COMMIT_AT per distinct key. The stable sort keeps
    // each key's ops in the order the tree ran them.
    if (st != nullptr) ops.swap(st->ops);
    std::stable_sort(
        ops.begin(), ops.end(),
        [](const OccOp& a, const OccOp& b) { return a.key < b.key; });
    block.size = 2;
    for (size_t i = 0; i < ops.size(); ++i) {
      block.size += EngineTraceRecorder::kAccessGroupEvents;
      if (i == 0 || ops[i].key != ops[i - 1].key) ++block.size;
    }
  }
  WriteAheadLog* wal = manager_->wal();
  WalTicket wal_ticket;
  Status s = Status::OK();
  size_t keys_touched = 0;
  const bool touched =
      st != nullptr && (!st->writes.empty() || !st->reads.empty());
  if (touched) {
    keys_touched = st->writes.size() + st->reads.size();
    // OccCommit appends the image itself, between validation and
    // install (the write-set words are still MICRO-locked there), and
    // reserves the trace block at its serialization point.
    s = manager_->locks().OccCommit(st->writes, st->reads, id_[0],
                                    wal != nullptr ? &wal_ticket : nullptr,
                                    rec != nullptr ? &block : nullptr);
  }
  const CcMode mode = manager_->options().cc_mode;
  if (s.ok()) {
    if (rec != nullptr) {
      // Nothing to validate or install: any point of the order serves.
      if (!touched) block.first = rec->Reserve(block.size);
      EmitOccCommit(ops, block.first, my_aggregate);
    }
    // Installed; now park for durability. Same asymmetry as the locking
    // path: a flush failure reports the non-retryable DurabilityLost
    // without undoing the install.
    Status durable = Status::OK();
    if (wal_ticket.seq != 0) durable = wal->WaitDurable(wal_ticket);
    if (timed) {
      const uint64_t end_ns = MonotonicNowNs();
      metrics.Record(kHistCommitReleaseNs, end_ns - commit_req_ns);
      metrics.Record(kHistTxnNs, end_ns - begin_ns_);
      FinishSpan(end_ns, keys_touched, Status::Code::kOk);
    }
    if (rec != nullptr) rec->Emit(Event::ReportCommit(id_, my_aggregate));
    stats.Add(kStatOccCommits);
    stats.Add(kStatTxnsCommitted);
    stats.Add(kStatTopLevelCommitted);
    if (mode == CcMode::kSerial) manager_->ReleaseSerialGate();
    return durable;
  }
  // Validation (or the WAL append) failed: the transaction aborts in
  // place, mirroring Abort()'s event order and bookkeeping. The handle
  // has returned, so Database's retry loop sees the retryable abort
  // without a double Abort(). Nothing was installed, and the trace saw
  // none of the tree's accesses (the reserved block stays empty).
  if (rec != nullptr) {
    rec->Emit(Event::Abort(id_));
    rec->Emit(Event::ReportAbort(id_));
  }
  if (timed) {
    const uint64_t end_ns = MonotonicNowNs();
    metrics.Record(kHistAbortReleaseNs, end_ns - commit_req_ns);
    metrics.Record(kHistTxnNs, end_ns - begin_ns_);
    FinishSpan(end_ns, keys_touched, Status::Code::kAborted);
  }
  stats.Add(kStatTxnsAborted);
  stats.Add(kStatTopLevelAborted);
  manager_->locks().ClearDoom(id_);
  if (mode == CcMode::kSerial) manager_->ReleaseSerialGate();
  return s;
}

void Transaction::EmitOccCommit(const std::vector<OccOp>& ops,
                                uint64_t first, Value aggregate) {
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  // Every child has returned, but child_counter_ stays under mutex_.
  uint32_t child = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    child = child_counter_;
    child_counter_ += static_cast<uint32_t>(ops.size());
  }
  uint64_t seq = first;
  for (const OccOp& op : ops) {
    AccessTraceInfo info;
    info.access_id = id_.Child(child++);
    info.op_code = op.op_code;
    info.op_arg = op.op_arg;
    rec->EmitAccessAt(seq, op.key, info, op.reported.value_or(kAbsentValue));
    seq += EngineTraceRecorder::kAccessGroupEvents;
  }
  rec->EmitAt(seq++, Event::RequestCommit(id_, aggregate));
  rec->EmitAt(seq++, Event::Commit(id_));
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && ops[i].key == ops[i - 1].key) continue;
    rec->EmitAt(seq++,
                Event::InformCommitAt(rec->ObjectFor(ops[i].key), id_));
  }
}

namespace {

// kOcc option normalization: the optimistic paths are built on the lock
// word (seq validation, MICRO write locks), so the ablation switch cannot
// be honoured.
EngineOptions NormalizeOptions(EngineOptions options) {
  if (options.cc_protocol == CcProtocol::kOcc) {
    options.lock_word_enabled = true;
  }
  // A WAL needs somewhere to live; with no directory the knob is off
  // (mirrors how tracing quietly disables the fast lanes).
  if (options.wal_enabled && options.wal_dir.empty()) {
    options.wal_enabled = false;
  }
  if (options.wal_shards == 0) options.wal_shards = 1;
  return options;
}

}  // namespace

TransactionManager::TransactionManager(const EngineOptions& options)
    : options_(NormalizeOptions(options)),
      metrics_(options_),
      locks_(options_, &stats_, &metrics_) {
  if (options_.wal_enabled) {
    wal_ = std::make_unique<WriteAheadLog>(options_, &stats_, &metrics_);
    locks_.SetWal(wal_.get());
  }
}

void TransactionManager::AcquireSerialGate() {
  std::unique_lock<std::mutex> lk(gate_mutex_);
  gate_cv_.wait(lk, [&] { return !gate_busy_; });
  gate_busy_ = true;
}

void TransactionManager::ReleaseSerialGate() {
  {
    std::lock_guard<std::mutex> lk(gate_mutex_);
    gate_busy_ = false;
  }
  gate_cv_.notify_one();
}

Status TransactionManager::AdmitTopLevel() {
  if (options_.admission_max_inflight == 0) return Status::OK();
  std::unique_lock<std::mutex> lk(admit_mutex_);
  if (admitted_ < options_.admission_max_inflight) {
    ++admitted_;
    return Status::OK();
  }
  if (admit_queued_ >= options_.admission_max_queued) {
    stats_.Add(kStatAdmissionRejected);
    return Status::Overloaded(
        StrCat("admission gate full (", admitted_, " in flight, ",
               admit_queued_, " queued)"));
  }
  ++admit_queued_;
  admit_cv_.wait(lk, [&] {
    return admitted_ < options_.admission_max_inflight;
  });
  --admit_queued_;
  ++admitted_;
  return Status::OK();
}

void TransactionManager::ReleaseTopLevel() {
  if (options_.admission_max_inflight == 0) return;
  {
    std::lock_guard<std::mutex> lk(admit_mutex_);
    --admitted_;
  }
  admit_cv_.notify_one();
}

void TransactionManager::MarkFailed(Status why) {
  std::lock_guard<std::mutex> lk(failed_mutex_);
  if (failed_status_.ok()) failed_status_ = std::move(why);
  failed_.store(true, std::memory_order_release);
}

Status TransactionManager::failure() const {
  std::lock_guard<std::mutex> lk(failed_mutex_);
  return failed_status_;
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  // A failed engine (e.g. a recovery that died mid-replay) must not hand
  // out handles over half-applied state. A load, not the mutex: Begin
  // writes no line that other threads' accesses read.
  if (failed_.load(std::memory_order_acquire)) return nullptr;
  if (options_.cc_mode == CcMode::kSerial) AcquireSerialGate();
  TransactionId id = TransactionId::Root().Child(
      top_counter_.fetch_add(1, std::memory_order_relaxed));
  if (EngineTraceRecorder* rec = locks_.trace_recorder()) {
    rec->Emit(Event::RequestCreate(id));
    rec->Emit(Event::Create(id));
  }
  return std::unique_ptr<Transaction>(new Transaction(
      this, nullptr, std::move(id),
      /*occ=*/options_.cc_protocol == CcProtocol::kOcc));
}

}  // namespace nestedtx
