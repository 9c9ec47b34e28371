#include "core/lock_manager.h"

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <utility>

#include "core/failpoints.h"
#include "core/id_small_set.h"
#include "serial/data_type.h"
#include "util/cleanup.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

// Lock-word bit semantics (layout in lock_manager.h):
//
//   INFLATED — the key is in the mutex regime; fast paths bail on
//       sight and ks.m alone protects the holder structures.
//   MICRO — the fast-regime spin lock; while a key is uninflated,
//       holder structures and the base are touched only by the MICRO
//       owner. MICRO and INFLATED are mutually exclusive: setting
//       INFLATED requires ks.m plus a clear MICRO bit, and nothing sets
//       MICRO on an inflated word.
//   PRESENT — whether the value cache (KeyState::hot.value) holds a
//       value or a deletion/absence; maintained together with the cache.
//   seq — bumped on every holder-set insertion (both regimes) and
//       on every fast-regime structural change, so an unchanged seq
//       proves the Moss no-conflict condition still holds, and an
//       unchanged *word* additionally proves the value cache is current
//       (the seqlock read lane).
constexpr uint64_t BumpSeq(uint64_t w) { return LockWordBumpSeq(w); }

// Fast paths give up after this many failed tries for the MICRO bit;
// sustained micro contention is a conflict signal, and the slow path's
// escalation is the designed response.
constexpr int kFastSpinBudget = 64;

}  // namespace

// One lock-table entry. Holder sets and the version map are sorted small
// vectors (holder counts are tiny in practice). `word` is the atomic
// lock word described above; `fast_value` caches, while the key is
// uninflated, the value a conflict-free reader observes (deepest
// writer's version, else base), so the seqlock read lane never touches
// the plain structures.
struct LockManager::KeyState {
  KeyState(std::string k, bool born_inflated)
      : key(std::move(k)),
        hot{{born_inflated ? kWordInflated : 0}} {}

  const std::string key;  // for trace emission from slow-path grants
  LockWordPair hot;       // lock word + seqlock value cache
  std::mutex m;
  std::condition_variable cv;
  IdSet read_holders;
  // Write holders with their version slots: holder set and version map
  // are always the same transactions, so one sorted vector serves both.
  VersionMap write_holders;
  std::optional<int64_t> base;
  // Threads parked on cv, maintained under m (incremented only around
  // the cv wait). Releasers skip the wakeup entirely when it is 0; no
  // wakeup is lost because a waiter holds m from wake to re-park, so a
  // releaser either sees it parked or sees the post-release state it
  // re-checks against. waiters > 0 also blocks deflation: an uninflated
  // key never has a parked waiter.
  uint32_t waiters = 0;
  // Contention profile, maintained under m at WaitForGrant exit (every
  // exit path holds m). Fast-word grants never wait, so the key mutex
  // owns these counters in both regimes. CollectHotKeys ranks keys by
  // wait_ns on export.
  uint64_t wait_count = 0;
  uint64_t wait_ns = 0;
};

namespace {

// Acquire the MICRO bit on an uninflated word, spinning without bound.
// Caller holds ks.m, which excludes new inflations, so the wait is only
// for in-flight fast sections (short, never blocked on a lock). Returns
// the pre-acquisition word (MICRO clear).
uint64_t AcquireMicroLocked(LockManager::KeyState& ks) {
  uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
  for (;;) {
    if (w & kWordMicro) {
      std::this_thread::yield();
      w = ks.hot.word.load(std::memory_order_relaxed);
      continue;
    }
    if (ks.hot.word.compare_exchange_weak(w, w | kWordMicro,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return w;
    }
  }
}

// Bounded-spin MICRO acquisition for the fast lanes (no ks.m held). On
// success *pre receives the pre-CAS word (INFLATED and MICRO clear).
bool TryAcquireMicro(LockManager::KeyState& ks, uint64_t* pre) {
  for (int spin = 0; spin < kFastSpinBudget; ++spin) {
    uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
    if (w & kWordInflated) return false;
    if (w & kWordMicro) {
      std::this_thread::yield();
      continue;
    }
    if (ks.hot.word.compare_exchange_weak(w, w | kWordMicro,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      *pre = w;
      return true;
    }
  }
  return false;
}

// Micro-bit scope for inspection paths (snapshots, base access) that
// must see a stable uninflated key without escalating it. Caller holds
// ks.m; on an inflated key ks.m alone already owns the state and no bit
// is taken. `word()` exposes the held word for mutating sections, which
// must call `set_word` with the value to publish on release.
class WordSection {
 public:
  explicit WordSection(LockManager::KeyState& ks) : ks_(ks) {
    w_ = ks.hot.word.load(std::memory_order_relaxed);
    if ((w_ & kWordInflated) == 0) {
      w_ = AcquireMicroLocked(ks_);
      locked_ = true;
    }
  }
  ~WordSection() {
    if (locked_) ks_.hot.word.store(w_, std::memory_order_release);
  }
  WordSection(const WordSection&) = delete;
  WordSection& operator=(const WordSection&) = delete;

  bool micro_held() const { return locked_; }
  uint64_t word() const { return w_; }
  void set_word(uint64_t w) { w_ = w; }

 private:
  LockManager::KeyState& ks_;
  uint64_t w_ = 0;
  bool locked_ = false;
};

}  // namespace

LockManager::LockManager(const EngineOptions& options, EngineStats* stats,
                         MetricsRegistry* metrics)
    : options_(options),
      stats_(stats),
      metrics_(metrics),
      policy_(MakeConflictPolicy(options)),
      // Clamped: GetKeyState and ReleaseBatch index by hash % size.
      shards_(std::max<size_t>(options.lock_table_shards, 1)) {}

LockManager::~LockManager() = default;

LockManager::KeyState& LockManager::GetKeyState(const std::string& key) {
  Shard& shard = shards_[std::hash<std::string>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.m);
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) {
    it = shard.keys
             .emplace(key, std::make_unique<KeyState>(
                               key, !options_.lock_word_enabled))
             .first;
  }
  return *it->second;
}

std::optional<int64_t> LockManager::CurrentValue(const KeyState& ks) {
  const VersionMap::Entry* deepest = nullptr;
  for (const VersionMap::Entry& e : ks.write_holders) {
    if (deepest == nullptr || e.id.Depth() > deepest->id.Depth()) {
      deepest = &e;
    }
  }
  if (deepest != nullptr) return deepest->value;
  return ks.base;
}

namespace {

// Re-derive the value cache from the authoritative structures; caller
// owns the MICRO bit. Returns `w` with the PRESENT bit set accordingly.
uint64_t RefreshValueCache(LockManager::KeyState& ks,
                           std::optional<int64_t> value, uint64_t w) {
  ks.hot.value.store(value.value_or(0), std::memory_order_relaxed);
  return value.has_value() ? (w | kWordPresent) : (w & ~kWordPresent);
}

}  // namespace

void LockManager::EnsureInflatedLocked(KeyState& ks) {
  if (ks.hot.word.load(std::memory_order_relaxed) & kWordInflated) return;
  // Drain in-flight fast sections by taking the micro bit, then publish
  // the escalated word with MICRO clear: the acquire CAS pairs with the
  // last fast section's release store (so the plain structures are ours
  // under ks.m from here), and the release store pairs with every later
  // fast-path load that sees INFLATED and bails. The seq is preserved —
  // handles granted in the fast regime stay seq-valid across inflation.
  const uint64_t w = AcquireMicroLocked(ks);
  ks.hot.word.store(w | kWordInflated, std::memory_order_release);
  stats_->Add(kStatLockWordInflations);
}

void LockManager::MaybeDeflateLocked(KeyState& ks) {
  if (!FastLanesEnabled()) return;
  const uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
  if ((w & kWordInflated) == 0) return;
  if (!ks.read_holders.empty() || !ks.write_holders.empty() ||
      ks.waiters != 0) {
    return;
  }
  // Quiesced: hand the key back to the fast lanes. While INFLATED is set
  // no fast path can own the MICRO bit, so under ks.m the word is ours to
  // rewrite. The seq bump invalidates any handle that predates the
  // inflation (its owner is gone — a live holder would have blocked the
  // deflation — but a stale exact-word match must stay impossible).
  ks.hot.value.store(ks.base.value_or(0), std::memory_order_relaxed);
  uint64_t nw = BumpSeq(w) & kWordSeqMask;
  if (ks.base.has_value()) nw |= kWordPresent;
  ks.hot.word.store(nw, std::memory_order_release);
  stats_->Add(kStatLockWordDeflations);
}

std::vector<TransactionId> LockManager::Conflicts(const KeyState& ks,
                                                  const TransactionId& txn,
                                                  bool exclusive) {
  std::vector<TransactionId> out;
  for (const VersionMap::Entry& e : ks.write_holders) {
    if (!e.id.IsAncestorOf(txn)) out.push_back(e.id);
  }
  if (exclusive) {
    for (const TransactionId& r : ks.read_holders) {
      // A transaction holding both lock modes is one conflicter, not two
      // — duplicates would inflate every wait-graph edge set it appears
      // in and the AddWait cycle checks over them.
      if (!r.IsAncestorOf(txn) && !ks.write_holders.Contains(r)) {
        out.push_back(r);
      }
    }
  }
  return out;
}

std::vector<TransactionId> LockManager::ConflictsForTest(
    const std::string& key, const TransactionId& txn, bool exclusive) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  return Conflicts(ks, txn, exclusive);
}

void LockManager::DoomSubtree(const TransactionId& root) {
  std::vector<KeyState*> to_wake;
  {
    std::lock_guard<std::mutex> lock(doom_mutex_);
    if (std::find(doomed_roots_.begin(), doomed_roots_.end(), root) ==
        doomed_roots_.end()) {
      doomed_roots_.push_back(root);
      doomed_count_.store(doomed_roots_.size(), std::memory_order_relaxed);
    }
    for (const ParkedWaiter& w : parked_waiters_) {
      if (root.IsAncestorOf(w.txn) &&
          std::find(to_wake.begin(), to_wake.end(), w.ks) == to_wake.end()) {
        to_wake.push_back(w.ks);
      }
    }
  }
  // Mutex-pass + notify with no doom or key mutex held: passing through
  // the key mutex orders the delivery after the (still-registered)
  // waiter's check-then-wait critical section, so it is either already
  // parked (the notify reaches it) or will re-check the doomed flag
  // before parking. KeyStates are stable for the manager's lifetime, so
  // a waiter unparking concurrently only makes a notify spurious.
  for (KeyState* ks : to_wake) {
    { std::lock_guard<std::mutex> key_lock(ks->m); }
    ks->cv.notify_all();
  }
}

void LockManager::ClearDoom(const TransactionId& root) {
  if (doomed_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(doom_mutex_);
  doomed_roots_.erase(
      std::remove(doomed_roots_.begin(), doomed_roots_.end(), root),
      doomed_roots_.end());
  doomed_count_.store(doomed_roots_.size(), std::memory_order_relaxed);
}

bool LockManager::IsDoomedSlow(const TransactionId& txn) const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  for (const TransactionId& root : doomed_roots_) {
    if (root.IsAncestorOf(txn)) return true;
  }
  return false;
}

size_t LockManager::DoomedRootCount() const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  return doomed_roots_.size();
}

size_t LockManager::ParkedWaiterCount() const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  return parked_waiters_.size();
}

bool LockManager::ParkWaiter(const TransactionId& txn, KeyState* ks) {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  if (doomed_count_.load(std::memory_order_relaxed) != 0) {
    for (const TransactionId& root : doomed_roots_) {
      if (root.IsAncestorOf(txn)) return true;
    }
  }
  parked_waiters_.push_back(ParkedWaiter{txn, ks});
  return false;
}

void LockManager::UnparkWaiter(const TransactionId& txn,
                               const KeyState* ks) {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  for (size_t i = 0; i < parked_waiters_.size(); ++i) {
    if (parked_waiters_[i].ks == ks && parked_waiters_[i].txn == txn) {
      parked_waiters_[i] = std::move(parked_waiters_.back());
      parked_waiters_.pop_back();
      return;
    }
  }
}

Status LockManager::WaitForGrant(KeyState& ks,
                                 std::unique_lock<std::mutex>& lk,
                                 const TransactionId& txn, bool exclusive) {
  const auto deadline =
      std::chrono::steady_clock::now() + options_.lock_timeout;
  bool waited = false;
  bool registered = false;
  bool parked = false;
  // Every exit — grant, deadlock, timeout, cancellation, injected fault —
  // must clear the policy's wait registration and the park-table entry.
  // A return that skips OnWaitEnd leaves a stale edge behind, and stale
  // edges make unrelated transactions see phantom cycles (and spuriously
  // deadlock) forever after.
  auto unregister = MakeCleanup([&] {
    if (registered) policy_->OnWaitEnd(txn);
    if (parked) UnparkWaiter(txn, &ks);
  });
  // Terminal-status precedence is pinned: doomed > granted > timed out,
  // checked in that order at every classification site (the loop top,
  // the pre-park refusal, the deadline branch), so every wake resolves
  // to exactly one outcome and one counter whichever notification lands
  // first.
  // Wait-latency accounting, armed only once this request actually
  // parks (wait_start_ns below) so the no-conflict grant path never
  // reads the clock. Every exit — grant, deadlock, timeout,
  // cancellation, injected fault — holds ks.m, so the per-key counters
  // need no extra locking; the thread-local counters feed the sampled
  // span of the transaction driving this (synchronous) call.
  uint64_t wait_start_ns = 0;
  auto record_wait = MakeCleanup([&] {
    if (!waited) return;
    const uint64_t elapsed = MonotonicNowNs() - wait_start_ns;
    ++ks.wait_count;
    ks.wait_ns += elapsed;
    ThreadWaitCounters& acct = ThreadWaitAccounting();
    acct.ns += elapsed;
    ++acct.count;
    if (metrics_ != nullptr) metrics_->Record(kHistLockWaitNs, elapsed);
  });
  for (;;) {
    // The slow path owns the key from here: inflation is asserted before
    // any holder structure is read (a no-op after the first pass: a
    // parked waiter blocks deflation, and ks.m is held from every wake
    // to here).
    EnsureInflatedLocked(ks);
    // Orphan check on every pass: an ancestor abort dooms this subtree
    // mid-wait, and the doom's wakeup lands here — return Cancelled
    // instead of re-parking for the rest of the lock timeout. (Checked
    // again atomically with park registration below; this covers the
    // already-parked wakeups, where the park-table entry guarantees the
    // doom notified our cv.)
    if (IsDoomed(txn)) {
      if (waited) stats_->Add(kStatWaitsCancelled);
      return Status::Cancelled(
          StrCat(txn, " cancelled while waiting (subtree doomed by "
                      "ancestor abort)"));
    }
    std::vector<TransactionId> conflicts = Conflicts(ks, txn, exclusive);
    if (conflicts.empty()) return Status::OK();
    const ConflictPolicy::Decision d = policy_->OnConflict(txn, conflicts);
    if (d.action == ConflictPolicy::Decision::Action::kAbort) {
      registered = false;  // a rejecting policy never leaves an entry
      // A prevention-rule death (wait-die / no-wait) has its own counter,
      // distinct from detected cycles. Either way the requester retries
      // under a fresh id.
      stats_->Add(d.prevention ? kStatPreventionAborts : kStatDeadlocks);
      return d.status;
    }
    registered = d.registered;
    if (!waited) {
      waited = true;
      wait_start_ns = MonotonicNowNs();
      stats_->Add(kStatLockWaits);
    }
    if (!parked) {
      // First park on this key: enter the cancellation park table. The
      // registration re-checks the doomed roots under the same mutex, so
      // a concurrent DoomSubtree either sees this entry (and notifies
      // our cv through a ks.m mutex-pass) or we see its root here and
      // never park — the one ordering the loop-top check cannot close.
      if (ParkWaiter(txn, &ks)) {
        stats_->Add(kStatWaitsCancelled);
        return Status::Cancelled(
            StrCat(txn, " cancelled before parking (subtree doomed by "
                        "ancestor abort)"));
      }
      parked = true;
    }
    // A failpoint may truncate this wait: the waiter comes back early and
    // re-evaluates, exactly the spurious-wakeup schedule a condition
    // variable is allowed (but rarely chooses) to produce.
    auto this_deadline = deadline;
    if (FailPoints::MaybeSpuriousWakeup(FailPoints::kWaitWakeup)) {
      this_deadline = std::min(
          deadline, std::chrono::steady_clock::now() +
                        std::chrono::microseconds(50));
    }
    ++ks.waiters;
    const bool timed_out =
        ks.cv.wait_until(lk, this_deadline) == std::cv_status::timeout;
    --ks.waiters;
    // Stretches the wake-to-classify window; in the wild the race below
    // is microseconds wide, with the delay armed a regression test can
    // land a doom inside it deterministically.
    FailPoints::MaybeDelay(FailPoints::kWaitWakeup);
    if (timed_out && std::chrono::steady_clock::now() >= deadline) {
      // The deadline tripped, but wait_until timing out says nothing
      // about WHY we should return: a grant or a subtree doom may have
      // landed just as the timer expired (their state changes are
      // published under mutexes we do not hold while parked).
      // Classifying by the cv result alone misreports those wakes as
      // Timeout — the caller then retries a transaction that was in fact
      // cancelled, and the outcome lands on the wrong counter. Re-check
      // the definitive state in the pinned precedence order (doomed >
      // granted > timed out).
      if (IsDoomed(txn)) {
        stats_->Add(kStatWaitsCancelled);
        return Status::Cancelled(
            StrCat(txn, " cancelled while waiting (subtree doomed by "
                        "ancestor abort)"));
      }
      if (Conflicts(ks, txn, exclusive).empty()) return Status::OK();
      stats_->Add(kStatLockTimeouts);
      return Status::TimedOut(
          StrCat(txn, " timed out waiting for lock on key"));
    }
    RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWaitWakeup));
  }
}

bool LockManager::TryFastAcquire(KeyState& ks, const TransactionId& txn,
                                 bool exclusive, const Mutator* mutator,
                                 HeldLock* held,
                                 Result<std::optional<int64_t>>* result) {
  // Bail to the slow path whenever the word cannot speak for the whole
  // grant decision: a doomed subtree anywhere (WaitForGrant must get the
  // chance to return Cancelled before granting) or an armed grant
  // failpoint (injections fire from the mutex-protected site, and a
  // delay must not run under a spin lock).
  if (doomed_count_.load(std::memory_order_relaxed) != 0) return false;
  if (FailPoints::Armed(FailPoints::kLockGrant)) return false;
  uint64_t w;
  if (!TryAcquireMicro(ks, &w)) return false;
  // Moss compatibility over the real holder sets (tiny sorted vectors).
  // Any conflict escalates: a conflicter is a would-be waiter, and
  // waiting lives on the mutex path.
  bool conflict = false;
  for (const VersionMap::Entry& e : ks.write_holders) {
    if (!e.id.IsAncestorOf(txn)) {
      conflict = true;
      break;
    }
  }
  if (!conflict && exclusive) {
    for (const TransactionId& r : ks.read_holders) {
      if (!r.IsAncestorOf(txn)) {
        conflict = true;
        break;
      }
    }
  }
  if (conflict) {
    ks.hot.word.store(w, std::memory_order_release);
    return false;
  }
  uint64_t nw = w;
  std::optional<int64_t> out;
  if (!exclusive) {
    if (ks.read_holders.Insert(txn)) nw = BumpSeq(nw);
    out = (w & kWordPresent)
              ? std::optional<int64_t>(
                    ks.hot.value.load(std::memory_order_relaxed))
              : std::nullopt;
    if (held != nullptr) {
      *held = HeldLock{&ks, &ks.hot, nw, /*read=*/true,
                       /*write=*/ks.write_holders.Contains(txn)};
    }
    ks.hot.word.store(nw, std::memory_order_release);
    stats_->Bump(kStatFastReadGrants);
  } else {
    // All write holders are ancestors of txn, so txn is (or becomes) the
    // deepest writer: its new version IS the current value.
    const std::optional<int64_t> current = CurrentValue(ks);
    out = (*mutator)(current);
    if (ks.write_holders.Put(txn, out)) nw = BumpSeq(nw);
    nw = RefreshValueCache(ks, out, nw);
    if (held != nullptr) {
      *held = HeldLock{&ks, &ks.hot, nw, /*read=*/ks.read_holders.Contains(txn),
                       /*write=*/true};
    }
    ks.hot.word.store(nw, std::memory_order_release);
    stats_->Bump(kStatFastWriteGrants);
  }
  *result = out;
  return true;
}

Result<std::optional<int64_t>> LockManager::AcquireRead(
    const TransactionId& txn, const std::string& key,
    const AccessTraceInfo* trace, HeldLock* held) {
  KeyState& ks = GetKeyState(key);
  if (FastLanesEnabled()) {
    Result<std::optional<int64_t>> result = std::optional<int64_t>{};
    if (TryFastAcquire(ks, txn, /*exclusive=*/false, nullptr, held,
                       &result)) {
      return result;
    }
  }
  return AcquireReadOn(ks, txn, trace, held);
}

Result<std::optional<int64_t>> LockManager::AcquireReadOn(
    KeyState& ks, const TransactionId& txn, const AccessTraceInfo* trace,
    HeldLock* held) {
  std::unique_lock<std::mutex> lk(ks.m);
  RETURN_IF_ERROR(WaitForGrant(ks, lk, txn, /*exclusive=*/false));
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kLockGrant));
  FailPoints::MaybeDelay(FailPoints::kLockGrant);
  if (ks.read_holders.Insert(txn)) {
    ks.hot.word.store(BumpSeq(ks.hot.word.load(std::memory_order_relaxed)),
                  std::memory_order_relaxed);
  }
  stats_->Add2(kStatLockGrants, kStatReads);
  const std::optional<int64_t> value = CurrentValue(ks);
  if (held != nullptr) {
    *held = HeldLock{&ks, &ks.hot,
                     ks.hot.word.load(std::memory_order_relaxed),
                     /*read=*/true,
                     /*write=*/ks.write_holders.Contains(txn)};
  }
  if (recorder_ != nullptr && trace != nullptr) {
    // Emitted under the key mutex: the recorded per-object order is the
    // grant order the lock manager enforced.
    recorder_->EmitAccess(ks.key, *trace, value.value_or(kAbsentValue));
  }
  return value;
}

Result<std::optional<int64_t>> LockManager::AcquireWrite(
    const TransactionId& txn, const std::string& key,
    const Mutator& mutator, const AccessTraceInfo* trace, HeldLock* held) {
  KeyState& ks = GetKeyState(key);
  if (FastLanesEnabled()) {
    Result<std::optional<int64_t>> result = std::optional<int64_t>{};
    if (TryFastAcquire(ks, txn, /*exclusive=*/true, &mutator, held,
                       &result)) {
      return result;
    }
  }
  return AcquireWriteOn(ks, txn, mutator, trace, held);
}

Result<std::optional<int64_t>> LockManager::AcquireWriteOn(
    KeyState& ks, const TransactionId& txn, const Mutator& mutator,
    const AccessTraceInfo* trace, HeldLock* held) {
  std::unique_lock<std::mutex> lk(ks.m);
  RETURN_IF_ERROR(WaitForGrant(ks, lk, txn, /*exclusive=*/true));
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kLockGrant));
  FailPoints::MaybeDelay(FailPoints::kLockGrant);
  const std::optional<int64_t> current = CurrentValue(ks);
  const std::optional<int64_t> next = mutator(current);
  if (ks.write_holders.Put(txn, next)) {
    ks.hot.word.store(BumpSeq(ks.hot.word.load(std::memory_order_relaxed)),
                  std::memory_order_relaxed);
  }
  stats_->Add2(kStatLockGrants, kStatWrites);
  if (held != nullptr) {
    *held = HeldLock{&ks, &ks.hot,
                     ks.hot.word.load(std::memory_order_relaxed),
                     /*read=*/ks.read_holders.Contains(txn),
                     /*write=*/true};
  }
  if (recorder_ != nullptr && trace != nullptr) {
    recorder_->EmitAccess(ks.key, *trace, next.value_or(kAbsentValue));
  }
  return next;
}

bool LockManager::TryReacquireRead(HeldLock& held, const TransactionId& txn,
                                   const AccessTraceInfo* trace,
                                   Result<std::optional<int64_t>>* result) {
  if (!held.read && !held.write) return false;
  KeyState& ks = *held.key;
  std::unique_lock<std::mutex> lk(ks.m);
  EnsureInflatedLocked(ks);
  if ((ks.hot.word.load(std::memory_order_relaxed) & kWordSeqMask) !=
      (held.word & kWordSeqMask)) {
    return false;
  }
  // Seq unchanged since our grant: no holder has been added, so every
  // write holder is still an ancestor of txn — the read is conflict-free.
  if (!held.read) {
    // Re-read under a write-only hold still registers the read lock,
    // exactly as the full path would.
    if (ks.read_holders.Insert(txn)) {
      ks.hot.word.store(BumpSeq(ks.hot.word.load(std::memory_order_relaxed)),
                    std::memory_order_relaxed);
    }
    held.read = true;
  }
  held.word = ks.hot.word.load(std::memory_order_relaxed);
  stats_->Add2(kStatLockGrants, kStatReads);
  const std::optional<int64_t> value = CurrentValue(ks);
  if (recorder_ != nullptr && trace != nullptr) {
    recorder_->EmitAccess(ks.key, *trace, value.value_or(kAbsentValue));
  }
  *result = value;
  return true;
}

bool LockManager::TryReacquireWrite(HeldLock& held, const TransactionId& txn,
                                    const Mutator& mutator,
                                    const AccessTraceInfo* trace,
                                    Result<std::optional<int64_t>>* result) {
  if (!held.write) return false;
  KeyState& ks = *held.key;
  std::unique_lock<std::mutex> lk(ks.m);
  EnsureInflatedLocked(ks);
  if ((ks.hot.word.load(std::memory_order_relaxed) & kWordSeqMask) !=
      (held.word & kWordSeqMask)) {
    return false;
  }
  // Seq unchanged since our write grant: txn is still the deepest
  // holder and nobody new joined — the write is conflict-free.
  const std::optional<int64_t> current = CurrentValue(ks);
  const std::optional<int64_t> next = mutator(current);
  (void)ks.write_holders.Put(txn, next);  // held: assign, never insert
  held.word = ks.hot.word.load(std::memory_order_relaxed);
  stats_->Add2(kStatLockGrants, kStatWrites);
  if (recorder_ != nullptr && trace != nullptr) {
    recorder_->EmitAccess(ks.key, *trace, next.value_or(kAbsentValue));
  }
  *result = next;
  return true;
}

Result<std::optional<int64_t>> LockManager::ReacquireReadCold(
    HeldLock& held, const TransactionId& txn, const AccessTraceInfo* trace) {
  if (FastLanesEnabled()) {
    KeyState& ks = *held.key;
    // The inline seqlock lane (header) already missed. Stale or
    // write-only handle on a (possibly still) uninflated key: retry as a
    // fast cold grant — a sibling reader moving the seq must not
    // escalate read-read sharing to the mutex path.
    Result<std::optional<int64_t>> result = std::optional<int64_t>{};
    if (TryFastAcquire(ks, txn, /*exclusive=*/false, nullptr, &held,
                       &result)) {
      return result;
    }
  }
  Result<std::optional<int64_t>> result = std::optional<int64_t>{};
  if (TryReacquireRead(held, txn, trace, &result)) return result;
  return AcquireReadOn(*held.key, txn, trace, &held);
}

Result<std::optional<int64_t>> LockManager::ReacquireWrite(
    HeldLock& held, const TransactionId& txn, const Mutator& mutator,
    const AccessTraceInfo* trace) {
  if (FastLanesEnabled()) {
    KeyState& ks = *held.key;
    // Held-write lane: one CAS from the exact granted word to word|MICRO
    // proves the holder sets are untouched and txn is still the deepest
    // writer; mutate its slot and the value cache in place. The word
    // only changes if the write flips presence (a new value under the
    // same holders keeps every sibling handle, including this one,
    // exactly valid).
    if (held.write && (held.word & (kWordInflated | kWordMicro)) == 0) {
      uint64_t expected = held.word;
      if (ks.hot.word.compare_exchange_strong(expected, held.word | kWordMicro,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        const std::optional<int64_t> current =
            (held.word & kWordPresent)
                ? std::optional<int64_t>(
                      ks.hot.value.load(std::memory_order_relaxed))
                : std::nullopt;
        const std::optional<int64_t> next = mutator(current);
        (void)ks.write_holders.Put(txn, next);  // held: assign, not insert
        const uint64_t nw = RefreshValueCache(ks, next, held.word);
        held.word = nw;
        ks.hot.word.store(nw, std::memory_order_release);
        stats_->Bump(kStatFastWriteReacquires);
        return next;
      }
    }
    Result<std::optional<int64_t>> result = std::optional<int64_t>{};
    if (TryFastAcquire(ks, txn, /*exclusive=*/true, &mutator, &held,
                       &result)) {
      return result;
    }
  }
  Result<std::optional<int64_t>> result = std::optional<int64_t>{};
  if (TryReacquireWrite(held, txn, mutator, trace, &result)) return result;
  return AcquireWriteOn(*held.key, txn, mutator, trace, &held);
}

// Batch-local bookkeeping: counters accumulated while key mutexes (or
// micro bits) are held, wakeup intents deduped by KeyState, all flushed
// once after the last key mutex drops.
struct LockManager::ReleaseScratch {
  uint64_t inherited = 0;        // commit: lock handoffs (or releases)
  uint64_t discarded = 0;        // abort: versions purged
  uint64_t notify_requests = 0;  // raw intents, before coalescing
  std::vector<KeyState*> changed;  // deduped pending wakeups

  // Clear for a new batch, keeping vector capacity (the scratch is
  // thread-local and reused across batches).
  void Reset() {
    inherited = discarded = notify_requests = 0;
    changed.clear();
  }

  // A holder-set change on `ks` wants its waiters woken. Dual-mode
  // (read+write) holders request twice per key; the dedupe coalesces
  // them to one notify.
  void PendWakeup(KeyState* ks) {
    ++notify_requests;
    if (std::find(changed.begin(), changed.end(), ks) == changed.end()) {
      changed.push_back(ks);
    }
  }
};

void LockManager::CommitKeyLocked(KeyState& ks, const TransactionId& txn,
                                  const TransactionId& parent,
                                  ReleaseScratch& scratch) {
  // Stretch the inherit window while holders pile up on ks.cv — the
  // commit-side race surface the storm tests lean on.
  FailPoints::MaybeDelay(FailPoints::kCommitInherit);
  bool changed = false;
  // Each released mode requests a wakeup, but only if some thread is
  // actually parked on this key — the waiter-count handshake (see
  // KeyState::waiters) makes the skip lossless. A dual-mode holder's two
  // requests are coalesced to one notify in phase 3.
  if (parent.IsRoot()) {
    // Top-level commit: release the locks, install the version as base.
    if (auto version = ks.write_holders.TryTake(txn)) {
      ks.base = *version;
      ++scratch.inherited;
      if (ks.waiters > 0) scratch.PendWakeup(&ks);
      changed = true;
    }
    if (ks.read_holders.Erase(txn)) {
      ++scratch.inherited;
      if (ks.waiters > 0) scratch.PendWakeup(&ks);
      changed = true;
    }
  } else {
    // Subtransaction commit: the parent takes the child's place — and
    // inherits its version — in one sorted-vector pass per mode. A
    // kReplaced outcome makes the parent a new holder, which bumps the
    // seq (fast-lane fence).
    for (const ReplaceOutcome outcome :
         {ks.write_holders.ReplaceWithAncestor(txn, parent),
          ks.read_holders.ReplaceWithAncestor(txn, parent)}) {
      if (outcome == ReplaceOutcome::kAbsent) continue;
      if (outcome == ReplaceOutcome::kReplaced) {
        ks.hot.word.store(
            BumpSeq(ks.hot.word.load(std::memory_order_relaxed)),
            std::memory_order_relaxed);
      }
      ++scratch.inherited;
      if (ks.waiters > 0) scratch.PendWakeup(&ks);
      changed = true;
    }
  }
  if (changed && recorder_ != nullptr) {
    // Emitted under ks.m at the instant of the state change, so the
    // per-object event order is the enforced order (header comment).
    recorder_->Emit(Event::InformCommitAt(recorder_->ObjectFor(ks.key), txn));
  }
}

void LockManager::AbortKeyLocked(KeyState& ks, const TransactionId& txn,
                                 ReleaseScratch& scratch) {
  // Stretch the purge window (see CommitKeyLocked).
  FailPoints::MaybeDelay(FailPoints::kAbortPurge);
  // Discard entries of txn and (defensively) any stray descendants.
  const auto in_subtree = [&](const TransactionId& id) {
    return txn.IsAncestorOf(id);
  };
  const size_t writes = ks.write_holders.EraseIf(in_subtree);
  const size_t reads = ks.read_holders.EraseIf(in_subtree);
  scratch.discarded += writes;  // each write holder owned one version slot
  if (ks.waiters > 0) {
    if (writes > 0) scratch.PendWakeup(&ks);
    if (reads > 0) scratch.PendWakeup(&ks);
  }
  if (recorder_ != nullptr) {
    // Informed even when no lock was held (the model's generic
    // scheduler may inform any object of any abort).
    recorder_->Emit(Event::InformAbortAt(recorder_->ObjectFor(ks.key), txn));
  }
}

bool LockManager::TryFastRelease(KeyState& ks, const TransactionId& txn,
                                 const TransactionId* parent,
                                 ReleaseScratch& scratch) {
  // Armed release failpoints must keep firing from the mutex-protected
  // bodies (and must never sleep under the spin bit).
  if (FailPoints::Armed(parent != nullptr ? FailPoints::kCommitInherit
                                          : FailPoints::kAbortPurge)) {
    return false;
  }
  uint64_t w;
  if (!TryAcquireMicro(ks, &w)) return false;
  // Uninflated ⇒ no parked waiters (nothing to wake) and no recorder
  // (nothing to emit): the release is pure structure surgery plus the
  // scratch's counter intents.
  bool changed = false;
  if (parent != nullptr) {
    if (parent->IsRoot()) {
      if (auto version = ks.write_holders.TryTake(txn)) {
        ks.base = *version;
        ++scratch.inherited;
        changed = true;
      }
      if (ks.read_holders.Erase(txn)) {
        ++scratch.inherited;
        changed = true;
      }
    } else {
      for (const ReplaceOutcome outcome :
           {ks.write_holders.ReplaceWithAncestor(txn, *parent),
            ks.read_holders.ReplaceWithAncestor(txn, *parent)}) {
        if (outcome == ReplaceOutcome::kAbsent) continue;
        ++scratch.inherited;
        changed = true;
      }
    }
  } else {
    const auto in_subtree = [&](const TransactionId& id) {
      return txn.IsAncestorOf(id);
    };
    const size_t writes = ks.write_holders.EraseIf(in_subtree);
    const size_t reads = ks.read_holders.EraseIf(in_subtree);
    scratch.discarded += writes;
    changed = writes + reads > 0;
  }
  uint64_t nw = w;
  if (changed) {
    // Any structural change bumps the seq here (removals included, unlike
    // the inflated path): the seqlock lane keys its value cache to the
    // exact word, and an abort purge can move the current value.
    nw = RefreshValueCache(ks, CurrentValue(ks), BumpSeq(w));
  }
  ks.hot.word.store(nw, std::memory_order_release);
  return true;
}

template <typename KeyOf, typename HeldOf>
void LockManager::ReleaseBatch(const TransactionId& txn,
                               const TransactionId* parent, size_t n,
                               const KeyOf& key_of, const HeldOf& held_of) {
  if (n == 0) return;

  // Batch buffers are thread-local: a release runs to completion on its
  // calling thread and never reenters the release path, so reusing the
  // buffers' capacity keeps repeated small batches allocation-free.
  thread_local std::vector<KeyState*> states;
  thread_local std::vector<std::pair<size_t, size_t>> uncached;
  thread_local ReleaseScratch scratch;
  states.assign(n, nullptr);
  uncached.clear();  // (shard, key index)
  scratch.Reset();

  // Phase 1: resolve every KeyState. Cached handles go direct — no
  // shard hash at all on the fast path; the remainder are bucketed by
  // shard and resolved under one shard-mutex hold per shard instead of
  // one lock/unlock cycle per key.
  for (size_t i = 0; i < n; ++i) {
    const HeldLock* held = held_of(i);
    if (held != nullptr && held->key != nullptr) {
      states[i] = held->key;
    } else {
      uncached.emplace_back(
          std::hash<std::string>{}(key_of(i)) % shards_.size(), i);
    }
  }
  if (!uncached.empty()) {
    std::sort(uncached.begin(), uncached.end());
    for (size_t j = 0; j < uncached.size();) {
      Shard& shard = shards_[uncached[j].first];
      std::lock_guard<std::mutex> lock(shard.m);
      for (const size_t s = uncached[j].first;
           j < uncached.size() && uncached[j].first == s; ++j) {
        const std::string& key = key_of(uncached[j].second);
        auto it = shard.keys.find(key);
        if (it == shard.keys.end()) {
          it = shard.keys
                   .emplace(key, std::make_unique<KeyState>(
                                     key, !options_.lock_word_enabled))
                   .first;
        }
        states[uncached[j].second] = it->second.get();
      }
    }
  }

  // Phase 2: per key — uninflated keys resolve entirely under the MICRO
  // bit (no key mutex, no wakeups to pend); inflated (or contended)
  // keys fall to that key's mutex: inherit or purge, trace event,
  // wakeup/count intents into the scratch. No notifies. A key this
  // release quiesces deflates back to the fast regime.
  const bool fast = FastLanesEnabled();
  for (size_t i = 0; i < n; ++i) {
    KeyState& ks = *states[i];
    if (fast && TryFastRelease(ks, txn, parent, scratch)) continue;
    std::lock_guard<std::mutex> lock(ks.m);
    EnsureInflatedLocked(ks);
    if (parent != nullptr) {
      CommitKeyLocked(ks, txn, *parent, scratch);
    } else {
      AbortKeyLocked(ks, txn, scratch);
    }
    MaybeDeflateLocked(ks);
  }

  // Phase 3: every key mutex is dropped. One striped-counter bump per
  // stat, then the coalesced wakeups — woken waiters grab a free mutex.
  if (scratch.inherited > 0) {
    stats_->Add(kStatLocksInherited, scratch.inherited);
  }
  if (scratch.discarded > 0) {
    stats_->Add(kStatVersionsDiscarded, scratch.discarded);
  }
  if (!scratch.changed.empty()) {
    stats_->Add(kStatWakeupsIssued, scratch.changed.size());
    const uint64_t coalesced =
        scratch.notify_requests - scratch.changed.size();
    if (coalesced > 0) stats_->Add(kStatWakeupsCoalesced, coalesced);
    for (KeyState* ks : scratch.changed) ks->cv.notify_all();
  }
  // (The group-commit release hook lives with the committer, not here:
  // Transaction's top-level commit calls WriteAheadLog::
  // NoteCommitReleased(ticket) after OnCommit returns, because only the
  // committer knows which WAL seq this release retires.)
}

namespace {
// held_of accessor for the string overloads: no cached handles.
constexpr auto kNoHeld = [](size_t) -> const LockManager::HeldLock* {
  return nullptr;
};
}  // namespace

void LockManager::OnCommit(const TransactionId& txn,
                           const TransactionId& parent,
                           const std::vector<std::string>& keys) {
  ReleaseBatch(
      txn, &parent, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i]; }, kNoHeld);
}

void LockManager::OnCommit(const TransactionId& txn,
                           const TransactionId& parent,
                           const std::vector<KeyHold>& keys) {
  ReleaseBatch(
      txn, &parent, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i].key; },
      [&](size_t i) { return &keys[i].held; });
}

void LockManager::OnAbort(const TransactionId& txn,
                          const std::vector<std::string>& keys) {
  ReleaseBatch(
      txn, nullptr, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i]; }, kNoHeld);
}

void LockManager::OnAbort(const TransactionId& txn,
                          const std::vector<KeyHold>& keys) {
  ReleaseBatch(
      txn, nullptr, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i].key; },
      [&](size_t i) { return &keys[i].held; });
}

std::vector<HotKey> LockManager::CollectHotKeys(size_t k) {
  std::vector<HotKey> out;
  if (k == 0) return out;
  // KeyStates are stable for the manager's lifetime, so collect the
  // pointers per shard first and read each key's counters under its own
  // mutex afterwards — no shard mutex is ever held across a key mutex.
  // The wait counters are written only under ks.m (fast-word grants
  // never wait), so no holder enumeration and no micro bit is needed.
  std::vector<KeyState*> states;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.m);
    for (const auto& [key, ks] : shard.keys) states.push_back(ks.get());
  }
  for (KeyState* ks : states) {
    std::lock_guard<std::mutex> key_lock(ks->m);
    if (ks->wait_count == 0) continue;
    out.push_back(HotKey{ks->key, ks->wait_count, ks->wait_ns});
  }
  std::sort(out.begin(), out.end(), [](const HotKey& a, const HotKey& b) {
    if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
    return a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

Result<std::optional<int64_t>> LockManager::OccReadKey(const std::string& key,
                                                       OccReadEntry* entry) {
  KeyState& ks = GetKeyState(key);
  for (;;) {
    uint64_t w1 = ks.hot.word.load(std::memory_order_acquire);
    if (w1 & kWordInflated) {
      // A traced OCC commit (replayed under locks) may have left the key
      // escalated; in the inflated regime the seq is not a validation
      // version (holder removals and top-level installs don't bump it),
      // so either hand the key back to the word regime or fail the read.
      {
        std::lock_guard<std::mutex> lock(ks.m);
        MaybeDeflateLocked(ks);
      }
      w1 = ks.hot.word.load(std::memory_order_acquire);
      if (w1 & kWordInflated) {
        stats_->Add(kStatOccValidationAborts);
        return Status::Aborted(
            StrCat("optimistic read of a locked (inflated) key: ", key));
      }
      continue;
    }
    if (w1 & kWordMicro) {
      std::this_thread::yield();
      continue;
    }
    // Seqlock read: value cache between two word loads. An exactly-equal
    // word proves the cache was stable (and MICRO/INFLATED clear) across
    // both loads, so the observed value is the committed base.
    const int64_t cached = ks.hot.value.load(std::memory_order_acquire);
    if (ks.hot.word.load(std::memory_order_acquire) != w1) continue;
    entry->key_state = &ks;
    entry->word = w1;
    entry->observed = (w1 & kWordPresent) ? std::optional<int64_t>(cached)
                                          : std::nullopt;
    entry->from_store = true;
    return entry->observed;
  }
}

namespace {

// OccCommit's write-lock spin budget. Far more generous than
// kFastSpinBudget: a committer that backed out here pays a full
// transaction retry, not a mutex fallback, and the holders it waits on
// are other commit sections (short, never blocked on a lock).
constexpr int kOccCommitSpinBudget = 4096;

}  // namespace

Status LockManager::OccCommit(const std::vector<OccWriteEntry>& writes,
                              const std::vector<OccReadEntry>& reads,
                              uint64_t wal_shard_hint,
                              WalTicket* wal_ticket) {
  // (1) Lock phase: take the MICRO bit on every write key in sorted key
  // order. Sorted exclusive acquisition makes concurrent committers
  // deadlock-free: a committer only ever waits for keys greater than all
  // it holds, so any wait cycle would need a descending edge.
  struct LockedWrite {
    KeyState* ks;
    uint64_t pre;  // pre-CAS word (MICRO clear)
  };
  std::vector<LockedWrite> locked;
  locked.reserve(writes.size());
  auto fail = [&](std::string msg) {
    // Back out: restore the pre-lock words untouched (no seq bump — the
    // aborted commit made no observable change).
    for (const LockedWrite& lw : locked) {
      lw.ks->hot.word.store(lw.pre, std::memory_order_release);
    }
    stats_->Add(kStatOccValidationAborts);
    return Status::Aborted(std::move(msg));
  };
  for (const OccWriteEntry& w : writes) {
    KeyState& ks = GetKeyState(w.key);
    bool have = false;
    uint64_t pre = 0;
    for (int spin = 0; spin < kOccCommitSpinBudget && !have; ++spin) {
      uint64_t cur = ks.hot.word.load(std::memory_order_relaxed);
      if (cur & kWordInflated) {
        // Deflate if quiescent. Taking ks.m while holding earlier MICRO
        // bits is safe: mutex sections only ever spin on their OWN key's
        // micro bit, and an inflated key's micro bit is always clear, so
        // this wait is on bounded mutex sections, never on a cycle
        // through a bit we hold.
        std::lock_guard<std::mutex> lock(ks.m);
        MaybeDeflateLocked(ks);
        cur = ks.hot.word.load(std::memory_order_relaxed);
        if (cur & kWordInflated) {
          return fail(StrCat("OCC write set conflicts with a locked "
                             "(inflated) key: ",
                             w.key));
        }
      }
      if (cur & kWordMicro) {
        std::this_thread::yield();
        continue;
      }
      if (ks.hot.word.compare_exchange_weak(cur, cur | kWordMicro,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
        pre = cur;
        have = true;
      }
    }
    if (!have) {
      return fail(StrCat("OCC write lock spin budget exhausted on key: ",
                         w.key));
    }
    locked.push_back({&ks, pre});
  }
  // (2) Validate: every store-sourced read must see an EXACTLY unchanged
  // word. For a key we write-locked ourselves the pre-lock word is
  // compared (our own MICRO bit must not fail us). Exact-word equality is
  // the whole argument: every committed change to an uninflated key bumps
  // the seq, and a regime change flips INFLATED, so equality proves the
  // observed value is still the committed value (DESIGN §4.9).
  for (const OccReadEntry& r : reads) {
    if (r.key_state == nullptr) continue;  // buffer-sourced: merge-validated
    uint64_t cur = 0;
    bool ours = false;
    for (const LockedWrite& lw : locked) {
      if (lw.ks == r.key_state) {
        cur = lw.pre;
        ours = true;
        break;
      }
    }
    if (!ours) cur = r.key_state->hot.word.load(std::memory_order_acquire);
    if (cur != r.word) {
      return fail(StrCat("OCC validation failed: key changed since read: ",
                         r.key));
    }
  }
  // (2.5) Durability point: append the commit image while the write set
  // is still MICRO-locked — a later writer of any of these keys commits
  // only after our release stores, so its record seq is strictly greater
  // (the per-key ordering invariant of core/wal.h). Append failure backs
  // out exactly like a validation failure (pre-lock words restored,
  // nothing installed) but surfaces as IoError and is NOT a validation
  // abort: the commit was serializable, the log was not writable.
  if (wal_ != nullptr && wal_ticket != nullptr && !writes.empty()) {
    Result<WalTicket> t = wal_->AppendImage(wal_shard_hint, writes,
                                            /*release_follows=*/true);
    if (!t.ok()) {
      for (const LockedWrite& lw : locked) {
        lw.ks->hot.word.store(lw.pre, std::memory_order_release);
      }
      return t.status();
    }
    *wal_ticket = *t;
  }
  // (3) Install: each write becomes the committed base; the release
  // store publishes the refreshed value cache with a bumped seq and a
  // cleared MICRO bit in one shot, so later optimistic readers and
  // committers observe the change. Read-only commits never reach here
  // with locks held (empty write set: pure validation, zero stores).
  for (size_t i = 0; i < writes.size(); ++i) {
    KeyState& ks = *locked[i].ks;
    ks.base = writes[i].value;
    const uint64_t nw =
        RefreshValueCache(ks, writes[i].value, BumpSeq(locked[i].pre));
    ks.hot.word.store(nw, std::memory_order_release);
  }
  // The install stores ARE this commit's release fan-out: tell any flush
  // leader holding a group open that this committer is done, and retire
  // the seq from its shard's unreleased set (checkpoint truncation
  // floor — see WriteAheadLog::Checkpoint).
  if (wal_ != nullptr && wal_ticket != nullptr && wal_ticket->seq != 0) {
    wal_->NoteCommitReleased(*wal_ticket);
  }
  return Status::OK();
}

void LockManager::SetBase(const std::string& key,
                          std::optional<int64_t> value) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  ks.base = value;
  if (section.micro_held()) {
    // The base feeds the value cache when no writer holds the key; bump
    // the seq so any (preexisting) handle revalidates.
    section.set_word(
        RefreshValueCache(ks, CurrentValue(ks), BumpSeq(section.word())));
  }
}

void LockManager::SnapshotBase(
    const std::function<void(const std::string&, int64_t)>& emit) {
  // Same two-pass shape as CollectHotKeys: KeyStates are stable for the
  // manager's lifetime, so collect the pointers per shard first and read
  // each base under its own key mutex afterwards — no shard mutex is
  // ever held across a key mutex, and commits proceed between keys
  // (this is the checkpoint's FUZZY scan; WriteAheadLog::Checkpoint
  // repairs whatever it races past from the log).
  std::vector<KeyState*> states;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.m);
    for (const auto& [key, ks] : shard.keys) states.push_back(ks.get());
  }
  for (KeyState* ks : states) {
    std::lock_guard<std::mutex> lock(ks->m);
    // On an uninflated key ks.m alone does NOT exclude fast-word
    // writers; the micro bit is held for the read (without escalating).
    WordSection section(*ks);
    if (ks->base.has_value()) emit(ks->key, *ks->base);
  }
}

std::optional<int64_t> LockManager::ReadBase(const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  return ks.base;
}

LockManager::KeySnapshotForTest LockManager::SnapshotKeyForTest(
    const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  // On an uninflated key ks.m alone does NOT exclude fast-word holders;
  // the micro bit is held for the copy (without escalating the key).
  WordSection section(ks);
  KeySnapshotForTest out;
  out.read_holders.assign(ks.read_holders.begin(), ks.read_holders.end());
  for (const VersionMap::Entry& e : ks.write_holders) {
    out.write_holders.push_back(e.id);
    out.versions.emplace_back(e.id, e.value);
  }
  out.base = ks.base;
  out.holder_epoch = section.word() & kWordSeqMask;
  out.inflated = (section.word() & kWordInflated) != 0;
  return out;
}

}  // namespace nestedtx
