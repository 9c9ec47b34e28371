#include "core/transaction.h"

#include <algorithm>

#include "core/failpoints.h"
#include "serial/data_type.h"
#include "util/strings.h"

namespace nestedtx {

namespace {

// Position of `key` in a vector sorted by its entries' `key` field (the
// write image, the OCC read set).
template <typename Entry>
typename std::vector<Entry>::iterator FindKey(std::vector<Entry>& entries,
                                              const std::string& key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const Entry& e, const std::string& k) { return e.key < k; });
}

// The key inventory's search (sorted, unique keys): the entry for `key`
// and true, else its insert position and false. One three-way compare
// per step, so a hit stops at the entry.
std::pair<std::vector<LockManager::KeyHold>::iterator, bool> FindHold(
    std::vector<LockManager::KeyHold>& keys, const std::string& key) {
  size_t lo = 0;
  size_t hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int c = keys[mid].key.compare(key);
    if (c == 0) return {keys.begin() + mid, true};
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {keys.begin() + lo, false};
}

// Sorted-unique insert; an existing entry (and its cached handle) wins.
void InsertKey(std::vector<LockManager::KeyHold>& keys,
               LockManager::KeyHold&& entry) {
  auto [it, found] = FindHold(keys, entry.key);
  if (!found) keys.insert(it, std::move(entry));
}

// Upsert into a sorted write image: the later write of a key wins.
void PutWrite(std::vector<WalWrite>& image, const std::string& key,
              std::optional<int64_t> value) {
  auto it = FindKey(image, key);
  if (it != image.end() && it->key == key) {
    it->value = value;
  } else {
    image.insert(it, WalWrite{key, value});
  }
}

// Fold a committing child's image into its parent's (the caller holds
// the parent's mutex). Child entries win: the child's version replaced
// the parent's, in the lock manager's version map or in the OCC image,
// so the child's value is the subtree's final word on the key.
void FoldImage(const std::vector<WalWrite>& child,
               std::vector<WalWrite>& parent) {
  for (const WalWrite& w : child) PutWrite(parent, w.key, w.value);
}

// Sorted insert; duplicates per key are allowed (a merge may carry
// distinct word observations of the same key).
void OccInsertRead(std::vector<LockManager::OccReadEntry>& reads,
                   LockManager::OccReadEntry e) {
  reads.insert(FindKey(reads, e.key), std::move(e));
}

// A read under a write lock (exclusive-mode reads, GetForUpdate) copies
// the version: that is the model's write access running a read.
const LockManager::Mutator kCopy = [](std::optional<int64_t> v) { return v; };

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
  if (!returned()) {
    Abort();  // RAII: dropping an open transaction aborts it
  }
}

Transaction* Transaction::TopLevel() {
  Transaction* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t;
}

bool Transaction::doomed() const {
  if (status_.load() & kDoomed) return true;
  // Only flat 2PL ever dooms a tree; skip the ancestor walk otherwise.
  if (manager_->options().cc_mode != CcMode::kFlat2PL) return false;
  const Transaction* t = parent_;
  while (t != nullptr) {
    if (t->status_.load() & kDoomed) return true;
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
  if (returned()) {
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

void Transaction::RecordWrite(const std::string& key,
                              std::optional<int64_t> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  PutWrite(writes_, key, value);
}

void Transaction::AddToAggregate(Value v) {
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate_ = static_cast<Value>(static_cast<uint64_t>(aggregate_) +
                                  static_cast<uint64_t>(v));
}

Result<std::optional<int64_t>> Transaction::Access(
    const std::string& key, uint32_t op_code, Value op_arg,
    const LockManager::Mutator* m) {
  if (occ_) {
    RETURN_IF_ERROR(CheckActive());
    // Optimistic: nothing is locked until commit. A read, or an Add (the
    // one write that observes the old value), records a read dependency;
    // a write buffers its result in the image. Commit validates both.
    std::optional<int64_t> v;
    if (op_code == ops::kRead || op_code == ops::kCellAdd) {
      Result<std::optional<int64_t>> seen = OccObserve(key);
      if (!seen.ok()) return seen;
      v = *seen;
    }
    if (op_code != ops::kRead) {
      v = (*m)(v);
      RecordWrite(key, v);
    }
    manager_->stats().Bump(op_code == ops::kRead ? kStatOccReads
                                                 : kStatOccWrites);
    if (manager_->locks().trace_recorder() != nullptr) {
      // Every op folds the value it reports, matching the locking
      // accesses' aggregate contributions.
      std::lock_guard<std::mutex> lock(mutex_);
      occ_ops_.push_back(OccOp{key, op_code, op_arg, v});
      aggregate_ = static_cast<Value>(
          static_cast<uint64_t>(aggregate_) +
          static_cast<uint64_t>(v.value_or(kAbsentValue)));
    }
    return v;
  }
  // The one search of the owner-only inventory.
  if (keys_pending_.load(std::memory_order_acquire)) AdoptPendingKeys();
  LockManager& locks = manager_->locks();
  auto [it, known] = FindHold(keys_, key);
  // Repeat-read lane, in place on the entry just found: a hit proves the
  // handle current, so nothing is written back. The guard restates
  // CheckActive with plain loads (no Status on the hot path): flat-2PL
  // dooming needs the ancestor walk, so that mode, like sampled spans
  // (their wait accounting must stay complete), takes the grant path
  // below, as do exclusive-mode reads (they pass a mutator). The lane
  // itself bails when the word has moved.
  if (known && m == nullptr && locks.FastLanesEnabled() &&
      manager_->options().cc_mode != CcMode::kFlat2PL && !span_sampled_ &&
      (status_.load(std::memory_order_relaxed) & (kReturned | kDoomed)) ==
          0 &&
      !locks.IsDoomed(id_)) {
    std::optional<int64_t> v;
    if (locks.TryFastReadLane(it->held, &v)) return v;
  }
  RETURN_IF_ERROR(CheckActive());
  if (!known) {
    if (keys_.capacity() == 0) {
      keys_.reserve(kInventoryReserve);
      it = keys_.end();
    }
    it = keys_.insert(it, LockManager::KeyHold{key, {}});
  }
  AccessTraceInfo info;
  const AccessTraceInfo* trace = nullptr;
  if (locks.trace_recorder() != nullptr) {
    // Accesses are children of this transaction in the model; they share
    // the child-index space with subtransactions.
    std::lock_guard<std::mutex> lock(mutex_);
    info.access_id = id_.Child(child_counter_++);
    info.op_code = op_code;
    info.op_arg = op_arg;
    trace = &info;
  }
  SpanAccessScope span_scope(this);
  // The lock manager updates the entry's handle in place: only the owner
  // touches keys_, so the entry stays put across the call.
  Result<std::optional<int64_t>> r =
      locks.Access(LockOwner(), key, m, trace, it->held);
  if (!r.ok()) return r;
  if (op_code != ops::kRead && manager_->wal() != nullptr) {
    RecordWrite(key, *r);
  }
  if (trace != nullptr) AddToAggregate(r->value_or(kAbsentValue));
  return r;
}

Result<std::optional<int64_t>> Transaction::TryGet(const std::string& key) {
  // Exclusive locking: reads take write locks.
  return Access(key, ops::kRead, 0,
                manager_->options().cc_mode == CcMode::kExclusive ? &kCopy
                                                                  : nullptr);
}

Result<std::optional<int64_t>> Transaction::GetForUpdate(
    const std::string& key) {
  // A write lock whose version copy makes the read abort-safe. Under OCC
  // nothing is locked until commit, so there is no read-lock-upgrade
  // hazard to pre-empt: this is a plain optimistic read.
  return Access(key, ops::kRead, 0, &kCopy);
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
  const LockManager::Mutator put = [value](std::optional<int64_t>) {
    return value;
  };
  return Access(key, ops::kWrite, value, &put).status();
}

Result<int64_t> Transaction::Add(const std::string& key, int64_t delta) {
  const LockManager::Mutator add = [delta](std::optional<int64_t> v) {
    return v.value_or(0) + delta;
  };
  Result<std::optional<int64_t>> r = Access(key, ops::kCellAdd, delta, &add);
  if (!r.ok()) return r.status();
  return **r;
}

Status Transaction::Delete(const std::string& key) {
  const LockManager::Mutator erase = [](std::optional<int64_t>) {
    return std::optional<int64_t>();
  };
  return Access(key, ops::kCellDelete, 0, &erase).status();
}

EngineTraceRecorder* Transaction::TraceRecorder() const {
  // Emitting create/commit events for lock-free OCC children would give
  // the checker transactions with no access structure to certify.
  if (occ_ && parent_ != nullptr) return nullptr;
  return manager_->locks().trace_recorder();
}

Result<std::unique_ptr<Transaction>> Transaction::BeginChild() {
  RETURN_IF_ERROR(CheckActive());
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kBeginTxn));
  FailPoints::MaybeDelay(FailPoints::kBeginTxn);
  // Count the child with one CAS that fails once this transaction has
  // returned: a return that raced past CheckActive above wins.
  uint32_t s = status_.load();
  do {
    if (s & kReturned) {
      return Status::FailedPrecondition(StrCat(id_, " has already returned"));
    }
  } while (!status_.compare_exchange_weak(s, s + 1));
  TransactionId child_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    child_id = id_.Child(child_counter_++);
  }
  std::unique_ptr<Transaction> child(
      new Transaction(manager_, this, std::move(child_id), occ_));
  if (EngineTraceRecorder* rec = child->TraceRecorder()) {
    rec->Emit(Event::RequestCreate(child->id_));
    rec->Emit(Event::Create(child->id_));
  }
  return child;
}

void Transaction::HandKeysToParent(std::vector<LockManager::KeyHold> keys) {
  // Cached handles ride along: their KeyState pointers stay valid, and a
  // handle whose word or modes no longer fit the parent simply falls back
  // to the full grant path (lock_manager.h, "Hot-path fast lane").
  if (keys.empty()) return;
  std::lock_guard<std::mutex> lock(parent_->mutex_);
  parent_->pending_keys_.push_back(std::move(keys));
  parent_->keys_pending_.store(true, std::memory_order_release);
}

void Transaction::AdoptPendingKeys() {
  std::vector<std::vector<LockManager::KeyHold>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(pending_keys_);
    keys_pending_.store(false, std::memory_order_relaxed);
  }
  for (std::vector<LockManager::KeyHold>& batch : pending) {
    if (keys_.empty()) {
      keys_.swap(batch);
      continue;
    }
    for (LockManager::KeyHold& k : batch) InsertKey(keys_, std::move(k));
  }
}

std::vector<LockManager::KeyHold> Transaction::TakeKeys() {
  // A child's hand-off happens before its child-count decrement, so a
  // return, which needs that count at 0, always sees it.
  if (keys_pending_.load(std::memory_order_acquire)) AdoptPendingKeys();
  std::vector<LockManager::KeyHold> keys;
  keys.swap(keys_);
  return keys;
}

Transaction::Handoff Transaction::StartReturn() {
  Handoff h;
  h.request_ns = manager_->metrics().enabled() ? MonotonicNowNs() : 0;
  if (span_sampled_) span_.commit_request_ns = h.request_ns;
  return h;
}

Status Transaction::MarkReturned(const char* verb) {
  uint32_t s = status_.load();
  do {
    if (s & kChildMask) {
      return Status::FailedPrecondition(
          StrCat(id_, " cannot ", verb, " with active children"));
    }
    if (s & kReturned) {
      return Status::FailedPrecondition(StrCat(id_, " already returned"));
    }
  } while (!status_.compare_exchange_weak(s, s | kReturned));
  return Status::OK();
}

Status Transaction::Commit() {
  // With a child active, MarkReturned's error wins over doom and orphan.
  if ((status_.load() & kChildMask) == 0) RETURN_IF_ERROR(CheckActive());
  RETURN_IF_ERROR(MarkReturned("commit"));
  Handoff h = StartReturn();
  if (TraceRecorder() != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    h.aggregate = aggregate_;
  }
  Status s = Pass(&h);
  if (!s.ok()) {
    // A failed child merge dropped its sets already. A top-level commit
    // that failed still holds everything and turns into a clean abort:
    // nothing was installed or traced as committed.
    return parent_ != nullptr ? Finish(false, std::move(s), h)
                              : AbortTail(std::move(s), h);
  }
  // Park until the record — and, across shards, everything it may
  // depend on — is flushed. A flush failure surfaces as DurabilityLost,
  // never IoError: the effects are installed engine-side, so the commit
  // must not be re-run — only never acknowledged as durable. The
  // documented asymmetry of syncing after install (DESIGN.md §6).
  if (h.ticket.seq != 0) s = manager_->wal()->WaitDurable(h.ticket);
  return Finish(true, std::move(s), h);
}

Status Transaction::Pass(Handoff* h) {
  if (occ_) return parent_ != nullptr ? OccMergeIntoParent(h) : OccInstall(h);
  // No wait-graph sweep here: a committing transaction has returned from
  // every access, and each WaitForGrant exit clears its entry via a
  // scoped guard — taking the global graph mutex on the commit hot path
  // would buy nothing. Abort keeps a defensive sweep (it is the teardown
  // path for errors in flight).
  WriteAheadLog* wal = manager_->wal();
  std::vector<WalWrite> image;
  if (wal != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    image.swap(writes_);
  }
  // Durability point (top-level only): append the merged commit image
  // while every write lock is still held — ReleaseBatch has not touched
  // the holder sets yet, so a later writer of any of these keys acquires
  // them only after our release and appends strictly after us (the
  // per-key ordering invariant of core/wal.h).
  if (parent_ == nullptr && !image.empty()) {
    Result<WalTicket> t = wal->AppendImage(id_[0], image);
    if (!t.ok()) return t.status();
    h->ticket = *t;
  }
  if (EngineTraceRecorder* rec = manager_->locks().trace_recorder()) {
    rec->Emit(Event::RequestCommit(id_, h->aggregate));
    rec->Emit(Event::Commit(id_));
  }
  // The inventory is swapped out once and the same vector feeds both the
  // batched release and the hand-off to the parent — no deep copy of the
  // key strings on the commit path. Flat-mode locks already belong to the
  // top-level id: a child commit releases nothing and only hands its
  // inventory up, so the top-level release sees everything.
  std::vector<LockManager::KeyHold> keys = TakeKeys();
  h->keys = keys.size();
  h->released =
      parent_ == nullptr || manager_->options().cc_mode != CcMode::kFlat2PL;
  if (h->released) {
    manager_->locks().OnCommit(
        id_, parent_ != nullptr ? parent_->id_ : TransactionId::Root(), keys);
  }
  if (parent_ == nullptr) {
    // The release fan-out is done: retire the seq from its shard's
    // unreleased set (the checkpoint truncation floor — a checkpoint's
    // fuzzy scan may miss installs of unreleased commits, so their log
    // records must survive it).
    if (h->ticket.seq != 0) wal->NoteCommitReleased(h->ticket);
    return Status::OK();
  }
  HandKeysToParent(std::move(keys));
  // The WAL face of lock inheritance: only the top-level commit ever
  // reaches the log — the paper's "only top-level commit is externally
  // meaningful".
  if (!image.empty()) {
    std::lock_guard<std::mutex> lock(parent_->mutex_);
    FoldImage(image, parent_->writes_);
  }
  return Status::OK();
}

Status Transaction::Abort() {
  RETURN_IF_ERROR(MarkReturned("abort"));
  return AbortTail(Status::OK(), StartReturn());
}

Status Transaction::AbortTail(Status cause, Handoff h) {
  // No savepoints in flat 2PL: a subtransaction abort cannot be undone
  // in place, so it dooms the whole top-level transaction, and its keys
  // stay with the top-level owner to be rolled back when the top aborts.
  const bool flat_child =
      parent_ != nullptr && manager_->options().cc_mode == CcMode::kFlat2PL;
  // Wait-registry hygiene on teardown. Every WaitForGrant exit already
  // clears its own entry via a scoped guard (grant, deadlock, timeout,
  // injected fault all audited), so this is a defensive sweep for a
  // handle torn down with an operation's result still in flight (a no-op
  // for prevention policies, which keep no registry). Skipped for
  // flat-mode subtransactions, whose waits run under the shared
  // top-level id that siblings may still be using.
  if (!flat_child) manager_->locks().policy().OnTransactionEnd(id_);
  if (EngineTraceRecorder* rec = TraceRecorder()) {
    rec->Emit(Event::Abort(id_));
  }
  if (occ_) {
    // An OCC handle holds no locks: its sets drop with the handle, and
    // only a failed top-level commit, whose OccCommit ran, released
    // anything. The span counts the sets as a commit attempt does.
    std::lock_guard<std::mutex> lock(mutex_);
    h.keys += writes_.size() + occ_reads_.size();
  } else {
    std::vector<LockManager::KeyHold> keys = TakeKeys();
    h.keys += keys.size();
    if (flat_child) {
      TopLevel()->status_.fetch_or(kDoomed);
      HandKeysToParent(std::move(keys));
    } else {
      manager_->locks().OnAbort(LockOwner(), keys);
    }
    h.released = !flat_child;
  }
  return Finish(false, std::move(cause), h);
}

Status Transaction::Finish(bool committed, Status result, const Handoff& h) {
  MetricsRegistry& metrics = manager_->metrics();
  if (metrics.enabled()) {
    const uint64_t end_ns = MonotonicNowNs();
    if (h.released) {
      metrics.Record(committed ? kHistCommitReleaseNs : kHistAbortReleaseNs,
                     end_ns - h.request_ns);
    }
    if (parent_ == nullptr) metrics.Record(kHistTxnNs, end_ns - begin_ns_);
    // A commit's span reads OK even when the flush then failed; an
    // abort's names the failure that caused it, if any.
    Status::Code code = Status::Code::kOk;
    if (!committed) code = result.ok() ? Status::Code::kAborted : result.code();
    FinishSpan(end_ns, h.keys, code);
  }
  EngineTraceRecorder* rec = TraceRecorder();
  if (rec != nullptr) {
    rec->Emit(committed ? Event::ReportCommit(id_, h.aggregate)
                        : Event::ReportAbort(id_));
  }
  EngineStats& stats = manager_->stats();
  stats.Add(committed ? kStatTxnsCommitted : kStatTxnsAborted);
  // The abort Cancel() announced has now happened: lift the doom so the
  // id space is clean. A retried subtree runs under fresh child ids, so
  // even a doom cleared late could never match the new attempt; clearing
  // here keeps the registry from accumulating dead roots.
  if (!committed) manager_->locks().ClearDoom(id_);
  if (parent_ == nullptr) {
    stats.Add(committed ? kStatTopLevelCommitted : kStatTopLevelAborted);
    if (manager_->options().cc_mode == CcMode::kSerial) {
      manager_->ReleaseSerialGate();
    }
  } else {
    if (committed && rec != nullptr) parent_->AddToAggregate(h.aggregate);
    parent_->status_.fetch_sub(1);
  }
  return result;
}

bool Transaction::OccLookupLocked(const std::string& key,
                                  std::optional<int64_t>* value) {
  auto wit = FindKey(writes_, key);
  if (wit != writes_.end() && wit->key == key) {
    *value = wit->value;
    return true;
  }
  auto rit = FindKey(occ_reads_, key);
  if (rit != occ_reads_.end() && rit->key == key) {
    *value = rit->observed;
    return true;
  }
  return false;
}

Result<std::optional<int64_t>> Transaction::OccObserve(
    const std::string& key) {
  // Own buffers first: a handle's repeat reads are served locally, so the
  // read set holds at most one entry per key and reads are repeatable.
  std::optional<int64_t> v;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (OccLookupLocked(key, &v)) return v;
  }
  // Ancestors' buffers: a child reads through the parent chain the way a
  // locking child reads through inherited versions. One mutex at a time
  // and never our own under an ancestor's — the child-merge path nests
  // strictly child->ancestor, so holding two here could deadlock it.
  bool from_ancestor = false;
  for (Transaction* t = parent_; t != nullptr && !from_ancestor;
       t = t->parent_) {
    std::lock_guard<std::mutex> lock(t->mutex_);
    from_ancestor = t->OccLookupLocked(key, &v);
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
    OccInsertRead(occ_reads_, std::move(e));
  }
  return v;
}

Status Transaction::OccMergeIntoParent(Handoff* h) {
  std::vector<WalWrite> writes;
  std::vector<LockManager::OccReadEntry> reads;
  std::vector<OccOp> ops;
  Value my_aggregate = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writes.swap(writes_);
    reads.swap(occ_reads_);
    ops.swap(occ_ops_);
    my_aggregate = aggregate_;
  }
  h->keys = writes.size() + reads.size();
  // parent_->mutex_ is held across validate AND merge: sibling merges
  // serialize here, so two children that both observed a key and both
  // buffered conflicting writes cannot slip past each other's
  // validation. Resolution above the parent locks one ancestor at a
  // time, strictly child->ancestor — merges at different depths take
  // mutexes in depth order and cannot deadlock.
  std::lock_guard<std::mutex> plock(parent_->mutex_);
  for (LockManager::OccReadEntry& e : reads) {
    std::optional<int64_t> v;
    bool hit = parent_->OccLookupLocked(e.key, &v);
    for (Transaction* t = parent_->parent_; t != nullptr && !hit;
         t = t->parent_) {
      std::lock_guard<std::mutex> alock(t->mutex_);
      hit = t->OccLookupLocked(e.key, &v);
    }
    if (!hit) {
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
  // Merge. Surviving store-sourced reads insert unless an identical word
  // entry already exists; the image folds in child-wins; traced ops
  // append after the parent's own (exactly the order a serial execution
  // of the tree would produce them in).
  for (LockManager::OccReadEntry& e : reads) {
    if (!e.from_store) continue;  // dropped above (or never had a word)
    bool dup = false;
    for (auto it = FindKey(parent_->occ_reads_, e.key);
         it != parent_->occ_reads_.end() && it->key == e.key; ++it) {
      if (it->key_state == e.key_state && it->word == e.word) {
        dup = true;
        break;
      }
    }
    if (!dup) OccInsertRead(parent_->occ_reads_, std::move(e));
  }
  FoldImage(writes, parent_->writes_);
  for (OccOp& op : ops) parent_->occ_ops_.push_back(std::move(op));
  // Fold the aggregate inline (AddToAggregate would retake plock).
  parent_->aggregate_ = static_cast<Value>(
      static_cast<uint64_t>(parent_->aggregate_) +
      static_cast<uint64_t>(my_aggregate));
  return Status::OK();
}

Status Transaction::OccInstall(Handoff* h) {
  // The only point an OCC tree touches shared state.
  std::vector<WalWrite> writes;
  std::vector<LockManager::OccReadEntry> reads;
  std::vector<OccOp> ops;  // the trace payload
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writes.swap(writes_);
    reads.swap(occ_reads_);
    ops.swap(occ_ops_);
  }
  EngineTraceRecorder* rec = manager_->locks().trace_recorder();
  TraceBlock block;
  if (rec != nullptr) {
    // Size the block: one access group per op, REQUEST_COMMIT, COMMIT,
    // and one INFORM_COMMIT_AT per distinct key. The stable sort keeps
    // each key's ops in the order the tree ran them.
    std::stable_sort(
        ops.begin(), ops.end(),
        [](const OccOp& a, const OccOp& b) { return a.key < b.key; });
    block.size = 2;
    for (size_t i = 0; i < ops.size(); ++i) {
      block.size += EngineTraceRecorder::kAccessGroupEvents;
      if (i == 0 || ops[i].key != ops[i - 1].key) ++block.size;
    }
  }
  h->keys = writes.size() + reads.size();
  h->released = true;
  if (h->keys != 0) {
    // OccCommit appends the image itself, between validation and
    // install (the write-set words are still MICRO-locked there), and
    // reserves the trace block at its serialization point.
    RETURN_IF_ERROR(manager_->locks().OccCommit(
        writes, reads, id_[0],
        manager_->wal() != nullptr ? &h->ticket : nullptr,
        rec != nullptr ? &block : nullptr));
  } else if (rec != nullptr) {
    // Nothing to validate or install: any point of the order serves.
    block.first = rec->Reserve(block.size);
  }
  if (rec != nullptr) EmitOccCommit(ops, block.first, h->aggregate);
  manager_->stats().Add(kStatOccCommits);
  return Status::OK();
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
