#include "core/lock_manager.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <new>
#include <set>
#include <thread>
#include <unordered_map>
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
//       sight and the key's stripe mutex alone protects the holder
//       structures.
//   MICRO — the fast-regime spin lock; while a key is uninflated,
//       holder structures and the base are touched only by the MICRO
//       owner. MICRO and INFLATED are mutually exclusive: setting
//       INFLATED requires the stripe mutex plus a clear MICRO bit, and
//       nothing sets MICRO on an inflated word.
//   PRESENT — whether the value cache (KeyState::hot.value) holds a
//       value or a deletion/absence; maintained together with the cache.
//   seq — bumped on every fast-regime structural change (fast grants
//       and releases, SetBase, OccCommit's install) and on deflation,
//       never under the stripe mutex on an inflated key. An unchanged
//       *word* proves the holder sets are unchanged (the exact-word
//       repeat lanes) and nothing was installed (OCC validation).
constexpr uint64_t BumpSeq(uint64_t w) { return LockWordBumpSeq(w); }

// Fast lanes stop spinning after this many failed tries for the MICRO
// bit and wait for it behind the key's stripe mutex instead
// (AcquireMicroBehindStripe): a busy bit is contention on the word, not a
// Moss conflict, and never inflates the key.
constexpr int kFastSpinBudget = 64;

}  // namespace

// One lock-table entry: the paper's M(X) state (holder sets, version
// map, base) plus the key and its lock word. Holder sets and the version
// map are sorted small vectors (holder counts are tiny in practice) over
// pooled holder blocks that go back when the last holder leaves
// (core/id_small_set.h), so an entry nobody holds owns no heap memory.
// `hot` is the atomic lock word described above and, while the key is
// uninflated, the cached value a conflict-free reader observes (deepest
// writer's version, else base), so the seqlock read lane never touches
// the plain structures. The slow path's mutex, condition variable and
// wait profile live in the key's Stripe, not here. Two cache lines: the
// first holds everything a lookup and a fast grant read before the
// holder sets; the second holds the 16-byte holder-set headers and the
// base, which every grant and release writes. Entries live in the Arena
// below, which never moves or frees one before the manager dies.
struct alignas(64) LockManager::KeyState {
  KeyState(std::string k, size_t h, bool born_inflated)
      : hash(h),
        key(std::move(k)),
        hot{{born_inflated ? kWordInflated : 0}} {}

  const size_t hash;      // std::hash of key: probe start, compare, stripe
  const std::string key;  // the lock table's only copy; also for traces
  LockWordPair hot;       // lock word + seqlock value cache
  // Threads waiting for this key, spinning on release_epoch or parked on
  // the stripe's cv, maintained under the stripe mutex (incremented only
  // around one spin or one cv wait). Releasers skip the epoch bump and
  // the wakeup entirely when it is 0; no wakeup is lost because a waiter
  // holds the stripe mutex from its conflict check until it is counted
  // here and has read the epoch or parked, so a releaser either sees it
  // counted (and bumps, and notifies) or precedes the check. waiters > 0
  // also blocks deflation, so every release of a waited-on key runs the
  // mutex path: an uninflated key never has a waiter.
  uint32_t waiters = 0;
  // Bumped under the stripe mutex by every release that changes a holder
  // mode while waiters > 0; a spinning waiter polls it with the mutex
  // dropped. Fills the first line's tail.
  std::atomic<uint32_t> release_epoch{0};
  IdSet read_holders;
  // Write holders with their version slots: holder set and version map
  // are always the same transactions, so one sorted vector serves both.
  VersionMap write_holders;
  std::optional<int64_t> base;

  // The rules of M(X), one copy each. The caller owns the key under
  // either guard, the MICRO bit of an uninflated word or the stripe mutex
  // of an inflated one; each regime adds only its own side effects
  // (lock_manager.h, "One copy of each M(X) rule").

  // The value txn observes: deepest write holder's version, else base.
  std::optional<int64_t> CurrentValue() const;
  // Moss's compatibility test: whether a request by txn conflicts with a
  // holder (a read with a non-ancestor writer, a write with any
  // non-ancestor holder). With `out` (empty on entry), every conflicting
  // holder is appended, each once; without, the scan stops at the first.
  bool Conflicts(const TransactionId& txn, bool exclusive,
                 std::vector<TransactionId>* out = nullptr) const;
  // Grant a request Conflicts admits (`mutator` null means read): insert
  // txn and return the value it observes, for a write its new version.
  // `*added` reports a new holder entry.
  std::optional<int64_t> ApplyGrant(const TransactionId& txn,
                                    const Mutator* mutator, bool* added);
  // The handle of txn's locks on this key, stamped with `word`, right
  // after a grant of mode `exclusive` (so only the other mode is searched).
  HeldLock Held(const TransactionId& txn, uint64_t word, bool exclusive) {
    return HeldLock{this, &hot, word,
                    !exclusive || read_holders.Contains(txn),
                    exclusive || write_holders.Contains(txn)};
  }
  // INFORM_COMMIT_AT (parent != nullptr: the parent inherits txn's locks
  // and version; a top-level commit installs the version as base) or
  // INFORM_ABORT_AT (txn's subtree's entries are purged). Counts the
  // inherited locks or purged versions into `scratch` and returns how
  // many holder modes (write, read) changed.
  uint64_t ApplyRelease(const TransactionId& txn, const TransactionId* parent,
                        ReleaseScratch& scratch);
};

static_assert(sizeof(LockManager::KeyState) <= 128 &&
                  alignof(LockManager::KeyState) == 64,
              "a lock-table entry is at most two cache lines, line-aligned");

namespace {

// Acquire the MICRO bit on an uninflated word, spinning without bound.
// Caller holds the key's stripe mutex, which excludes new inflations of
// the key, so the wait is only for in-flight fast sections (short, never
// blocked on a lock). Returns the pre-acquisition word (MICRO clear).
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

// The fast lanes' wait for the MICRO bit once their spin budget is spent.
// Behind the key's stripe mutex, which excludes new inflations, the wait
// is unbounded, and the stripe's other spent lanes sleep on the mutex
// instead of spinning. The mutex is dropped once the bit is held: a
// lane's section, like every fast section, needs only the bit. False when
// the key inflated first. Out of line: an uncontended lane never waits.
[[gnu::noinline]] bool AcquireMicroBehindStripe(LockManager::KeyState& ks,
                                                std::mutex& stripe,
                                                uint64_t* pre) {
  std::lock_guard<std::mutex> lock(stripe);
  if (ks.hot.word.load(std::memory_order_relaxed) & kWordInflated) {
    return false;
  }
  *pre = AcquireMicroLocked(ks);
  return true;
}

// MICRO acquisition for the fast lanes (`stripe` is the key's stripe
// mutex, not held). On success *pre receives the pre-CAS word (INFLATED
// and MICRO clear). False only when the key is inflated: a spin budget
// spent on a busy bit falls back to AcquireMicroBehindStripe.
bool TryAcquireMicro(LockManager::KeyState& ks, std::mutex& stripe,
                     uint64_t* pre) {
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
  return AcquireMicroBehindStripe(ks, stripe, pre);
}

// Micro-bit scope for inspection paths (snapshots, base access) that
// must see a stable uninflated key without escalating it. Caller holds
// the key's stripe mutex; on an inflated key that mutex alone already
// owns the state and no bit is taken. `word()` exposes the held word for
// mutating sections, which must call `set_word` with the value to
// publish on release.
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

// Lock-table shards. The count splits only inserts (a hit takes no
// shard mutex), so it is a constant: the low hash bits pick the shard,
// the bits above them the probe start.
constexpr size_t kShardBits = 6;
constexpr size_t kLockTableShards = size_t{1} << kShardBits;
// First table size per shard; a table doubles before it is half full.
constexpr size_t kInitialSlots = 16;

// Slow-path stripes, a constant like the shard count: 1024 line-aligned
// stripes cost 192 KiB per manager. The bits above the shard index pick
// a key's stripe.
constexpr size_t kStripes = 1024;
constexpr size_t StripeIndex(size_t hash) {
  return (hash >> kShardBits) & (kStripes - 1);
}

// Entries per arena slab: 64 KiB of two-line entries.
constexpr size_t kSlabEntries = 512;

}  // namespace

// The slow path's parking lot (after Bacon et al.'s thin locks): every
// key whose hash picks this stripe shares its mutex and condition
// variable. The stripe mutex is "the key mutex" of every argument in
// lock_manager.h. Sharing one adds no lock-order edge, because no code
// holds two: Grant, ReleaseBatch (one key per iteration), DoomSubtree's
// mutex-pass, SnapshotBase and the inspection paths each take one stripe
// at a time, and what runs under one (the wait graph, the doom registry,
// the recorder, failpoints, the checkpoint's emit) never takes another
// stripe. Mutators are the engine's own Put/Add/Delete arithmetic and
// never re-enter the lock manager. Sharing the condition variable adds
// only spurious wakeups, which WaitForGrant already absorbs: it
// re-checks doom, conflicts and its deadline on every wake.
struct alignas(64) LockManager::Stripe {
  struct WaitProfile {
    uint64_t count = 0;
    uint64_t ns = 0;
  };

  std::mutex m;
  std::condition_variable cv;
  // Contention profile of each of this stripe's keys that ever waited,
  // written under m at WaitForGrant's exit (every exit holds m).
  // Fast-word grants never wait. CollectHotKeys ranks keys by ns.
  std::unordered_map<const KeyState*, WaitProfile> profile;
};

// The lock table's entries in insertion order, in 64-byte-aligned slabs
// of kSlabEntries. An entry is never moved or freed before the manager
// dies, so handles, parked waiters and wait profiles keep raw KeyState
// pointers. Emplace runs under a shard mutex (lock order shard -> arena);
// All takes the arena mutex alone.
class LockManager::Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (size_t i = 0; i < size_; ++i) At(i)->~KeyState();
    for (KeyState* slab : slabs_) {
      ::operator delete(slab, std::align_val_t{alignof(KeyState)});
    }
  }

  KeyState* Emplace(const std::string& key, size_t hash, bool born_inflated) {
    std::lock_guard<std::mutex> lock(m_);
    if (size_ == slabs_.size() * kSlabEntries) {
      slabs_.push_back(static_cast<KeyState*>(
          ::operator new(kSlabEntries * sizeof(KeyState),
                         std::align_val_t{alignof(KeyState)})));
    }
    KeyState* ks = new (At(size_)) KeyState(key, hash, born_inflated);
    ++size_;
    return ks;
  }

  // Every entry, in insertion order (export-time scans).
  std::vector<KeyState*> All() const {
    std::lock_guard<std::mutex> lock(m_);
    std::vector<KeyState*> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) out.push_back(At(i));
    return out;
  }

 private:
  KeyState* At(size_t i) const {
    return slabs_[i / kSlabEntries] + i % kSlabEntries;
  }

  mutable std::mutex m_;
  std::vector<KeyState*> slabs_;
  size_t size_ = 0;  // entries constructed, filling the slabs in order
};

// Cache-line aligned, so inserts into one shard (its mutex) never
// invalidate the line holding another shard's table pointer.
struct alignas(64) LockManager::Shard {
  // One published table: a power-of-two array of KeyState pointers,
  // probed linearly from the hash bits above the shard index. A slot
  // changes once, from null to its KeyState.
  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<KeyState*>[]>(capacity)) {}

    size_t Start(size_t hash) const { return (hash >> kShardBits) & mask; }

    // The key's KeyState, or null when this table does not hold it.
    KeyState* Find(size_t hash, const std::string& key) const {
      for (size_t i = Start(hash);; i = (i + 1) & mask) {
        KeyState* ks = slots[i].load(std::memory_order_acquire);
        if (ks == nullptr || (ks->hash == hash && ks->key == key)) return ks;
      }
    }

    // First empty slot on the hash's probe path (caller holds m).
    size_t FreeSlot(size_t hash) const {
      size_t i = Start(hash);
      while (slots[i].load(std::memory_order_relaxed) != nullptr) {
        i = (i + 1) & mask;
      }
      return i;
    }

    const size_t mask;
    const std::unique_ptr<std::atomic<KeyState*>[]> slots;
  };

  Shard() { table.store(&tables.emplace_back(kInitialSlots)); }

  // The current table: release-stored under m, acquire-loaded by hits.
  std::atomic<const Table*> table;
  // Serializes inserts and growth; hits never take it.
  std::mutex m;
  // Under m: the number of keys this shard holds, and every table it has
  // published, the current one last. Outgrown tables stay until the
  // manager is destroyed, since a reader may still be probing one.
  size_t size = 0;
  std::deque<Table> tables;
};

LockManager::LockManager(const EngineOptions& options, EngineStats* stats,
                         MetricsRegistry* metrics)
    : options_(options),
      stats_(stats),
      metrics_(metrics),
      policy_(MakeConflictPolicy(options)),
      shards_(std::make_unique<Shard[]>(kLockTableShards)),
      stripes_(std::make_unique<Stripe[]>(kStripes)),
      arena_(std::make_unique<Arena>()) {}

LockManager::~LockManager() = default;

LockManager::KeyState& LockManager::GetKeyState(const std::string& key) {
  const size_t hash = std::hash<std::string>{}(key);
  Shard& shard = shards_[hash & (kLockTableShards - 1)];
  KeyState* ks = shard.table.load(std::memory_order_acquire)->Find(hash, key);
  return ks != nullptr ? *ks : InsertKeyState(shard, hash, key);
}

LockManager::KeyState& LockManager::InsertKeyState(Shard& shard,
                                                   size_t hash,
                                                   const std::string& key) {
  std::lock_guard<std::mutex> lock(shard.m);
  const Shard::Table* t = &shard.tables.back();
  if (KeyState* ks = t->Find(hash, key)) return *ks;
  if (2 * (shard.size + 1) > t->mask + 1) {
    // Grow: rehash the outgrown table's slots, which hold every entry of
    // the shard, into a doubled table while it is private, then publish.
    Shard::Table& grown = shard.tables.emplace_back(2 * (t->mask + 1));
    for (size_t i = 0; i <= t->mask; ++i) {
      if (KeyState* old = t->slots[i].load(std::memory_order_relaxed)) {
        grown.slots[grown.FreeSlot(old->hash)].store(
            old, std::memory_order_relaxed);
      }
    }
    shard.table.store(&grown, std::memory_order_release);
    t = &grown;
  }
  KeyState* ks = arena_->Emplace(key, hash, !options_.lock_word_enabled);
  t->slots[t->FreeSlot(hash)].store(ks, std::memory_order_release);
  ++shard.size;
  return *ks;
}

LockManager::Stripe& LockManager::StripeOf(const KeyState& ks) const {
  return stripes_[StripeIndex(ks.hash)];
}

size_t LockManager::StripeForTest(const std::string& key) const {
  return StripeIndex(std::hash<std::string>{}(key));
}

inline std::optional<int64_t> LockManager::KeyState::CurrentValue() const {
  const VersionMap::Entry* deepest = nullptr;
  for (const VersionMap::Entry& e : write_holders) {
    if (deepest == nullptr || e.id.Depth() > deepest->id.Depth()) {
      deepest = &e;
    }
  }
  if (deepest != nullptr) return deepest->value;
  return base;
}

// `inline`: without it GCC calls the scan out of line from the fast
// grant, a cost that lane measurably paid (EXPERIMENTS E29).
inline bool LockManager::KeyState::Conflicts(
    const TransactionId& txn, bool exclusive,
    std::vector<TransactionId>* out) const {
  for (const VersionMap::Entry& e : write_holders) {
    if (e.id.IsAncestorOf(txn)) continue;
    if (out == nullptr) return true;
    out->push_back(e.id);
  }
  if (exclusive) {
    for (const TransactionId& r : read_holders) {
      // A transaction holding both lock modes is one conflicter, not two
      // — duplicates would inflate every wait-graph edge set it appears
      // in and the AddWait cycle checks over them.
      if (r.IsAncestorOf(txn) || write_holders.Contains(r)) continue;
      if (out == nullptr) return true;
      out->push_back(r);
    }
  }
  return out != nullptr && !out->empty();
}

std::optional<int64_t> LockManager::KeyState::ApplyGrant(
    const TransactionId& txn, const Mutator* mutator, bool* added) {
  if (mutator == nullptr) {
    *added = read_holders.Insert(txn);
    return CurrentValue();
  }
  // All write holders are ancestors of txn, so txn is (or becomes) the
  // deepest writer: its new version IS the current value.
  const std::optional<int64_t> value = (*mutator)(CurrentValue());
  *added = write_holders.Put(txn, value);
  return value;
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
  // under the stripe mutex from here), and the release store pairs with
  // every later fast-path load that sees INFLATED and bails.
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
  // no fast path can own the MICRO bit, so under the stripe mutex the
  // word is ours to rewrite. The seq bump invalidates any handle that
  // predates the inflation (its owner is gone — a live holder would have
  // blocked the deflation — but a stale exact-word match must stay
  // impossible). With no holder left, the cache is the base.
  ks.hot.word.store(RefreshValueCache(ks, ks.base, BumpSeq(w) & kWordSeqMask),
                    std::memory_order_release);
  stats_->Add(kStatLockWordDeflations);
}

std::vector<TransactionId> LockManager::ConflictsForTest(
    const std::string& key, const TransactionId& txn, bool exclusive) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(StripeOf(ks).m);
  WordSection section(ks);
  std::vector<TransactionId> out;
  ks.Conflicts(txn, exclusive, &out);
  return out;
}

void LockManager::DoomSubtree(const TransactionId& root) {
  std::vector<Stripe*> to_wake;
  {
    std::lock_guard<std::mutex> lock(doom_mutex_);
    if (std::find(doomed_roots_.begin(), doomed_roots_.end(), root) ==
        doomed_roots_.end()) {
      doomed_roots_.push_back(root);
      doomed_count_.store(doomed_roots_.size(), std::memory_order_relaxed);
    }
    for (const ParkedWaiter& w : parked_waiters_) {
      if (!root.IsAncestorOf(w.txn)) continue;
      Stripe* stripe = &StripeOf(*w.ks);
      if (std::find(to_wake.begin(), to_wake.end(), stripe) == to_wake.end()) {
        to_wake.push_back(stripe);
      }
    }
  }
  // Mutex-pass + notify with no doom or stripe mutex held: passing
  // through the waiter's stripe mutex orders the delivery after the
  // (still-registered) waiter's check-then-wait critical section, which
  // ran under that same mutex, so it is either already parked (the
  // notify reaches it), spinning (it re-checks the doomed flag when the
  // spin ends, at most kWaitSpinNs later) or will re-check the doomed
  // flag before parking.
  // Stripes and KeyStates are stable for the manager's lifetime, so a
  // waiter unparking concurrently only makes a notify spurious.
  for (Stripe* stripe : to_wake) {
    { std::lock_guard<std::mutex> stripe_lock(stripe->m); }
    stripe->cv.notify_all();
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

namespace {

// One spin of a lock wait: with the stripe mutex `lk` held on entry and
// on return, read the key's release epoch, drop the mutex and poll the
// epoch, yielding the core to the holder, until a release moves it or
// the clock reaches `until_ns`. True when the budget ran out first. The
// caller counts itself in ks.waiters around the call, so every release
// of the key runs the mutex path and bumps the epoch.
bool SpinOnReleaseEpoch(LockManager::KeyState& ks,
                        std::unique_lock<std::mutex>& lk, uint64_t until_ns) {
  const uint32_t epoch = ks.release_epoch.load(std::memory_order_relaxed);
  lk.unlock();
  bool spent = false;
  while (ks.release_epoch.load(std::memory_order_relaxed) == epoch &&
         !(spent = MonotonicNowNs() >= until_ns)) {
    std::this_thread::yield();
  }
  lk.lock();
  return spent;
}

}  // namespace

Status LockManager::WaitForGrant(KeyState& ks,
                                 std::unique_lock<std::mutex>& lk,
                                 const TransactionId& txn, bool exclusive) {
  Stripe& stripe = StripeOf(ks);
  bool waited = false;
  bool registered = false;
  bool parked = false;
  bool slept = false;  // this wait spent its spin budget and used the cv
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
  // Wait-latency accounting, the lock_timeout deadline and the spin
  // budget, all taken from one clock read when this request first waits,
  // so the no-conflict grant path never reads the clock. Every exit —
  // grant, deadlock, timeout, cancellation, injected fault — holds the
  // stripe mutex, so the stripe's profile needs no extra locking; the
  // thread-local counters feed the sampled span of the transaction
  // driving this (synchronous) call.
  uint64_t wait_start_ns = 0;
  uint64_t spin_end_ns = 0;
  std::chrono::steady_clock::time_point deadline;
  auto record_wait = MakeCleanup([&] {
    if (!waited) return;
    const uint64_t elapsed = MonotonicNowNs() - wait_start_ns;
    Stripe::WaitProfile& profile = stripe.profile[&ks];
    ++profile.count;
    profile.ns += elapsed;
    ThreadWaitCounters& acct = ThreadWaitAccounting();
    acct.ns += elapsed;
    ++acct.count;
    if (metrics_ != nullptr) metrics_->Record(kHistLockWaitNs, elapsed);
  });
  // The blockers of the last pass, and the set the policy holds this
  // wait's registration against; both buffers are reused across passes.
  std::vector<TransactionId> conflicts;
  std::vector<TransactionId> blockers;
  for (;;) {
    // The slow path owns the key from here: inflation is asserted before
    // any holder structure is read (a no-op after the first pass: a
    // counted waiter blocks deflation, and the stripe mutex is held from
    // every wake to here).
    EnsureInflatedLocked(ks);
    // Orphan check on every pass: an ancestor abort dooms this subtree
    // mid-wait, and the doom's wakeup lands here — return Cancelled
    // instead of re-parking for the rest of the lock timeout. (Checked
    // again atomically with park registration below; this covers the
    // already-parked wakeups, where the park-table entry guarantees the
    // doom notified our stripe's cv.)
    if (IsDoomed(txn)) {
      if (waited) stats_->Add(kStatWaitsCancelled);
      return Status::Cancelled(
          StrCat(txn, " cancelled while waiting (subtree doomed by "
                      "ancestor abort)"));
    }
    conflicts.clear();
    if (!ks.Conflicts(txn, exclusive, &conflicts)) return Status::OK();
    // A re-check that finds the blockers it is registered against keeps
    // its registration: the set was cycle-checked when it was added, every
    // later edge set was checked against it, so the graph is still acyclic
    // and re-adding the same edges could close no cycle. Any other set
    // (and every pass of a policy that registers nothing) asks the policy.
    if (!registered || conflicts != blockers) {
      const ConflictPolicy::Decision d = policy_->OnConflict(txn, conflicts);
      if (d.action == ConflictPolicy::Decision::Action::kAbort) {
        registered = false;  // a rejecting policy never leaves an entry
        // A prevention-rule death (wait-die / no-wait) has its own
        // counter, distinct from detected cycles. Either way the
        // requester retries under a fresh id.
        stats_->Add(d.prevention ? kStatPreventionAborts : kStatDeadlocks);
        return d.status;
      }
      registered = d.registered;
      if (registered) blockers.swap(conflicts);
    }
    if (!waited) {
      waited = true;
      wait_start_ns = MonotonicNowNs();
      deadline = std::chrono::steady_clock::time_point(
                     std::chrono::nanoseconds(wait_start_ns)) +
                 options_.lock_timeout;
      const std::chrono::nanoseconds spin = std::min<std::chrono::nanoseconds>(
          std::chrono::nanoseconds(kWaitSpinNs), options_.lock_timeout);
      spin_end_ns = wait_start_ns + spin.count();
      stats_->Add(kStatLockWaits);
    }
    if (!parked) {
      // First wait on this key: enter the cancellation park table. The
      // registration re-checks the doomed roots under the same mutex, so
      // a concurrent DoomSubtree either sees this entry (and notifies
      // our stripe's cv through a stripe-mutex pass, which reaches us
      // parked; a spin ends on its own) or we see its root here and never
      // wait — the one ordering the loop-top check cannot close.
      if (ParkWaiter(txn, &ks)) {
        stats_->Add(kStatWaitsCancelled);
        return Status::Cancelled(
            StrCat(txn, " cancelled before parking (subtree doomed by "
                        "ancestor abort)"));
      }
      parked = true;
    }
    // The first kWaitSpinNs of a wait (at most lock_timeout) spin on the
    // key's release epoch; a spin's end is a wake like the cv's. No
    // release is lost between the conflict check above and the epoch
    // read: the stripe mutex is held throughout, and a release after the
    // read sees this waiter counted and bumps the epoch. A doom does not
    // end the spin; the loop top sees it at most kWaitSpinNs late.
    bool timed_out;
    ++ks.waiters;
    if (MonotonicNowNs() < spin_end_ns) {
      timed_out = SpinOnReleaseEpoch(ks, lk, spin_end_ns);
    } else {
      if (!slept) {
        slept = true;
        stats_->Add(kStatLockWaitParks);
      }
      // A failpoint may truncate this wait: the waiter comes back early
      // and re-evaluates, exactly the spurious-wakeup schedule a
      // condition variable is allowed (but rarely chooses) to produce.
      auto this_deadline = deadline;
      if (FailPoints::MaybeSpuriousWakeup(FailPoints::kWaitWakeup)) {
        this_deadline = std::min(
            deadline, std::chrono::steady_clock::now() +
                          std::chrono::microseconds(50));
      }
      // The stripe's cv is shared with its other keys, so a wake may be
      // meant for one of them; the loop re-checks everything either way.
      timed_out =
          stripe.cv.wait_until(lk, this_deadline) == std::cv_status::timeout;
    }
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
      if (!ks.Conflicts(txn, exclusive)) return Status::OK();
      stats_->Add(kStatLockTimeouts);
      return Status::TimedOut(
          StrCat(txn, " timed out waiting for lock on key"));
    }
    RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWaitWakeup));
  }
}

bool LockManager::TryFastAcquire(KeyState& ks, const TransactionId& txn,
                                 const Mutator* mutator, HeldLock* held,
                                 Result<std::optional<int64_t>>* result) {
  // Bail to the slow path whenever the word cannot speak for the whole
  // grant decision: a doomed subtree anywhere (WaitForGrant must get the
  // chance to return Cancelled before granting) or an armed grant
  // failpoint (injections fire from the mutex-protected site, and a
  // delay must not run under a spin lock).
  if (doomed_count_.load(std::memory_order_relaxed) != 0) return false;
  if (FailPoints::Armed(FailPoints::kLockGrant)) return false;
  uint64_t w;
  if (!TryAcquireMicro(ks, StripeOf(ks).m, &w)) return false;
  // Any conflict escalates: a conflicter is a would-be waiter, and
  // waiting lives on the mutex path.
  if (ks.Conflicts(txn, mutator != nullptr)) {
    ks.hot.word.store(w, std::memory_order_release);
    return false;
  }
  bool added = false;
  const std::optional<int64_t> value = ks.ApplyGrant(txn, mutator, &added);
  uint64_t nw = added ? BumpSeq(w) : w;
  // A write's new version is the value every conflict-free reader now
  // observes; a read leaves the cache as it was.
  if (mutator != nullptr) nw = RefreshValueCache(ks, value, nw);
  if (held != nullptr) *held = ks.Held(txn, nw, mutator != nullptr);
  ks.hot.word.store(nw, std::memory_order_release);
  stats_->Bump(mutator != nullptr ? kStatFastWriteGrants : kStatFastReadGrants);
  *result = value;
  return true;
}

Result<std::optional<int64_t>> LockManager::AcquireRead(
    const TransactionId& txn, const std::string& key,
    const AccessTraceInfo* trace, HeldLock* held) {
  return Grant(GetKeyState(key), txn, nullptr, trace, held);
}

Result<std::optional<int64_t>> LockManager::AcquireWrite(
    const TransactionId& txn, const std::string& key,
    const Mutator& mutator, const AccessTraceInfo* trace, HeldLock* held) {
  return Grant(GetKeyState(key), txn, &mutator, trace, held);
}

Result<std::optional<int64_t>> LockManager::Grant(
    KeyState& ks, const TransactionId& txn, const Mutator* mutator,
    const AccessTraceInfo* trace, HeldLock* held) {
  if (FastLanesEnabled()) {
    // A stale or write-only handle on a (possibly still) uninflated key
    // retries as a fast cold grant too: a sibling reader moving the seq
    // must not escalate read-read sharing to the mutex path.
    Result<std::optional<int64_t>> result = std::optional<int64_t>{};
    if (TryFastAcquire(ks, txn, mutator, held, &result)) return result;
  }
  std::unique_lock<std::mutex> lk(StripeOf(ks).m);
  RETURN_IF_ERROR(WaitForGrant(ks, lk, txn, mutator != nullptr));
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kLockGrant));
  FailPoints::MaybeDelay(FailPoints::kLockGrant);
  // The key is inflated now, so the insert owes no seq bump: INFLATED
  // alone keeps every handle off the exact-word lanes.
  bool added = false;
  const std::optional<int64_t> value = ks.ApplyGrant(txn, mutator, &added);
  stats_->Add2(kStatLockGrants, mutator != nullptr ? kStatWrites : kStatReads);
  if (held != nullptr) {
    *held = ks.Held(txn, ks.hot.word.load(std::memory_order_relaxed),
                    mutator != nullptr);
  }
  if (recorder_ != nullptr && trace != nullptr) {
    // Emitted under the stripe mutex: the recorded per-object order is
    // the grant order the lock manager enforced.
    recorder_->EmitAccess(ks.key, *trace, value.value_or(kAbsentValue));
  }
  return value;
}

bool LockManager::TryFastWriteLane(HeldLock& held, const TransactionId& txn,
                                   const Mutator& mutator,
                                   std::optional<int64_t>* out) {
  // One CAS from the exact granted word to word|MICRO proves the holder
  // sets are untouched and txn is still the deepest writer; mutate its
  // slot and the value cache in place. The word only changes if the write
  // flips presence (a new value under the same holders keeps every
  // sibling handle, including this one, exactly valid).
  if (!FastLanesEnabled() || !held.write ||
      (held.word & (kWordInflated | kWordMicro)) != 0) {
    return false;
  }
  KeyState& ks = *held.key;
  uint64_t expected = held.word;
  if (!ks.hot.word.compare_exchange_strong(expected, held.word | kWordMicro,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    return false;
  }
  *out = mutator((held.word & kWordPresent)
                     ? std::optional<int64_t>(
                           ks.hot.value.load(std::memory_order_relaxed))
                     : std::nullopt);
  (void)ks.write_holders.Put(txn, *out);  // held: assign, not insert
  held.word = RefreshValueCache(ks, *out, held.word);
  ks.hot.word.store(held.word, std::memory_order_release);
  stats_->Bump(kStatFastWriteReacquires);
  return true;
}

// Batch-local bookkeeping: counters accumulated while stripe mutexes (or
// micro bits) are held, wakeup intents deduped by KeyState and by stripe,
// all flushed once after the last stripe mutex drops.
struct LockManager::ReleaseScratch {
  uint64_t inherited = 0;        // commit: lock handoffs (or releases)
  uint64_t discarded = 0;        // abort: versions purged
  uint64_t notify_requests = 0;  // raw intents, before coalescing
  std::vector<KeyState*> changed;  // deduped keys with waiters to wake
  std::vector<Stripe*> stripes;    // their stripes, deduped: one notify each

  // Clear for a new batch, keeping vector capacity (the scratch is
  // thread-local and reused across batches).
  void Reset() {
    inherited = discarded = notify_requests = 0;
    changed.clear();
    stripes.clear();
  }

  // Holder-set changes on `ks` want its waiters woken, one request per
  // changed mode. Dual-mode (read+write) holders request twice per key;
  // the dedupe coalesces them to one woken key, and keys sharing a
  // stripe to one notify of its cv.
  void PendWakeup(KeyState* ks, Stripe* stripe, uint64_t requests) {
    notify_requests += requests;
    if (std::find(changed.begin(), changed.end(), ks) != changed.end()) {
      return;
    }
    changed.push_back(ks);
    if (std::find(stripes.begin(), stripes.end(), stripe) == stripes.end()) {
      stripes.push_back(stripe);
    }
  }
};

uint64_t LockManager::KeyState::ApplyRelease(const TransactionId& txn,
                                             const TransactionId* parent,
                                             ReleaseScratch& scratch) {
  if (parent == nullptr) {
    // Abort: discard entries of txn and (defensively) any stray
    // descendants.
    const auto in_subtree = [&](const TransactionId& id) {
      return txn.IsAncestorOf(id);
    };
    const size_t writes = write_holders.EraseIf(in_subtree);
    scratch.discarded += writes;  // each write holder owned one version slot
    return (writes > 0) + (read_holders.EraseIf(in_subtree) > 0);
  }
  uint64_t modes = 0;
  if (parent->IsRoot()) {
    // Top-level commit: release the locks, install the version as base.
    if (auto version = write_holders.TryTake(txn)) {
      base = *version;
      ++modes;
    }
    modes += read_holders.Erase(txn);
  } else {
    // Subtransaction commit: the parent takes the child's place — and
    // inherits its version — in one sorted-vector pass per mode.
    for (const ReplaceOutcome outcome :
         {write_holders.ReplaceWithAncestor(txn, *parent),
          read_holders.ReplaceWithAncestor(txn, *parent)}) {
      modes += outcome != ReplaceOutcome::kAbsent;
    }
  }
  scratch.inherited += modes;
  return modes;
}

void LockManager::ReleaseKeyLocked(KeyState& ks, const TransactionId& txn,
                                   const TransactionId* parent,
                                   ReleaseScratch& scratch) {
  // Stretch the inherit or purge window while waiters pile up on the
  // stripe's cv — the release-side race surface the storm tests lean on.
  FailPoints::MaybeDelay(parent != nullptr ? FailPoints::kCommitInherit
                                           : FailPoints::kAbortPurge);
  const uint64_t modes = ks.ApplyRelease(txn, parent, scratch);
  // Wakeups only if some thread is actually waiting on this key — the
  // waiter-count handshake (see KeyState::waiters) makes the skip
  // lossless. The epoch bump ends a spinner's spin; the notify, issued
  // after the batch drops its stripe mutexes, wakes a parked waiter.
  if (modes > 0 && ks.waiters > 0) {
    ks.release_epoch.fetch_add(1, std::memory_order_relaxed);
    scratch.PendWakeup(&ks, &StripeOf(ks), modes);
  }
  // Emitted under the stripe mutex at the instant of the state change, so
  // the per-object event order is the enforced order (header comment).
  // An abort is informed even when no lock was held (the model's generic
  // scheduler may inform any object of any abort).
  if (recorder_ != nullptr && (modes > 0 || parent == nullptr)) {
    const ObjectId x = recorder_->ObjectFor(ks.key);
    recorder_->Emit(parent != nullptr ? Event::InformCommitAt(x, txn)
                                      : Event::InformAbortAt(x, txn));
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
  if (!TryAcquireMicro(ks, StripeOf(ks).m, &w)) return false;
  // Uninflated ⇒ no waiters (nothing to wake) and no recorder
  // (nothing to emit): the release is the rule plus the word's upkeep.
  uint64_t nw = w;
  if (ks.ApplyRelease(txn, parent, scratch) > 0) {
    // Any structural change bumps the seq here (removals included, unlike
    // the inflated path): the seqlock lane keys its value cache to the
    // exact word, and an abort purge can move the current value.
    nw = RefreshValueCache(ks, ks.CurrentValue(), BumpSeq(w));
  }
  ks.hot.word.store(nw, std::memory_order_release);
  return true;
}

template <typename KeyOf, typename HeldOf>
void LockManager::ReleaseBatch(const TransactionId& txn,
                               const TransactionId* parent, size_t n,
                               const KeyOf& key_of, const HeldOf& held_of) {
  if (n == 0) return;

  // The scratch is thread-local: a release runs to completion on its
  // calling thread and never reenters the release path, so reusing its
  // capacity keeps repeated small batches allocation-free.
  thread_local ReleaseScratch scratch;
  scratch.Reset();

  // Phase 1: per key — resolve the KeyState (a cached handle's pointer,
  // else the lock-free lookup) and release it. Uninflated keys resolve
  // entirely under the MICRO bit (no wakeups to pend; the stripe mutex
  // only to wait out a spent spin budget); inflated keys fall to that
  // key's stripe mutex: inherit or purge, trace event, wakeup/count
  // intents into the scratch. No notifies. A key this release quiesces
  // deflates back to the fast regime.
  const bool fast = FastLanesEnabled();
  for (size_t i = 0; i < n; ++i) {
    const HeldLock* held = held_of(i);
    KeyState& ks = (held != nullptr && held->key != nullptr)
                       ? *held->key
                       : GetKeyState(key_of(i));
    if (fast && TryFastRelease(ks, txn, parent, scratch)) continue;
    std::lock_guard<std::mutex> lock(StripeOf(ks).m);
    EnsureInflatedLocked(ks);
    ReleaseKeyLocked(ks, txn, parent, scratch);
    MaybeDeflateLocked(ks);
  }

  // Phase 2: every stripe mutex is dropped. One striped-counter bump per
  // stat, then the coalesced wakeups — woken waiters grab a free mutex.
  // wakeups_issued counts keys; each of their stripes is notified once.
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
    for (Stripe* stripe : scratch.stripes) stripe->cv.notify_all();
  }
  // (The WAL's release report lives with the committer, not here:
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
  // The profiles live in the stripes, written only under each stripe's
  // mutex (fast-word grants never wait): one mutex per stripe, none per
  // key, and no holder enumeration or micro bit. A key is const, so its
  // name is readable under any stripe.
  for (size_t i = 0; i < kStripes; ++i) {
    Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.m);
    for (const auto& [ks, profile] : stripe.profile) {
      out.push_back(HotKey{ks->key, profile.count, profile.ns});
    }
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
    const uint64_t w1 = ks.hot.word.load(std::memory_order_acquire);
    if (w1 & kWordInflated) {
      // In the inflated regime the seq is not a validation version
      // (nothing under the stripe mutex bumps it). Nothing inflates a key
      // in an OCC engine, so this only guards the word discipline.
      stats_->Add(kStatOccValidationAborts);
      return Status::Aborted(
          StrCat("optimistic read of a locked (inflated) key: ", key));
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

Status LockManager::OccCommit(const std::vector<WalWrite>& writes,
                              const std::vector<OccReadEntry>& reads,
                              uint64_t wal_shard_hint, WalTicket* wal_ticket,
                              TraceBlock* trace) {
  // (1) Lock phase: take the MICRO bit on every write key in sorted key
  // order. Sorted exclusive acquisition makes concurrent committers
  // deadlock-free: a committer only ever waits for keys greater than all
  // it holds, so any wait cycle would need a descending edge.
  struct WriteLock {
    KeyState* ks;
    uint64_t pre;  // pre-CAS word (MICRO clear)
  };
  std::vector<WriteLock> locked;
  locked.reserve(writes.size());
  // Back out: restore the pre-lock words untouched (no seq bump — the
  // aborted commit made no observable change).
  auto back_out = [&](Status why) {
    for (const WriteLock& lw : locked) {
      lw.ks->hot.word.store(lw.pre, std::memory_order_release);
    }
    return why;
  };
  auto fail = [&](std::string msg) {
    stats_->Add(kStatOccValidationAborts);
    return back_out(Status::Aborted(std::move(msg)));
  };
  for (const WalWrite& w : writes) {
    KeyState& ks = GetKeyState(w.key);
    bool have = false;
    uint64_t pre = 0;
    for (int spin = 0; spin < kOccCommitSpinBudget && !have; ++spin) {
      uint64_t cur = ks.hot.word.load(std::memory_order_relaxed);
      if (cur & kWordInflated) {
        return fail(StrCat("OCC write set conflicts with a locked "
                           "(inflated) key: ",
                           w.key));
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
  // Serialization point: a traced commit reserves its trace block here,
  // after the lock phase and before validation (Reserve is one fetch_add,
  // no recorder mutex under a MICRO bit). Say T reserves at s; a
  // conflicting writer W reserves on the side of s its commit is on:
  //   - W writes a key T read (not wrote) before W's install: W locks it
  //     after T's validation load (a locked or changed word fails
  //     validation), which follows s, and W reserves after its lock
  //     phase, so after s.
  //   - T read W's install: W reserved before installing, so before s.
  //   - W writes a key T writes: T holds its MICRO bit from before s to
  //     T's install. W either held the bit earlier and reserved before
  //     releasing it, so before s, or takes it after T's install and
  //     reserves after s.
  if (recorder_ != nullptr && trace != nullptr) {
    trace->first = recorder_->Reserve(trace->size);
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
    for (const WriteLock& lw : locked) {
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
  // nothing installed) but surfaces as the append's status (IoError, or
  // InvalidArgument for an oversize image) and is NOT a validation
  // abort: the commit was serializable, the log could not take it.
  if (wal_ != nullptr && wal_ticket != nullptr && !writes.empty()) {
    Result<WalTicket> t = wal_->AppendImage(wal_shard_hint, writes,
                                            /*release_follows=*/true);
    if (!t.ok()) return back_out(t.status());
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
  // The install stores ARE this commit's release fan-out: retire the seq
  // from its shard's unreleased set (checkpoint truncation floor — see
  // WriteAheadLog::Checkpoint).
  if (wal_ != nullptr && wal_ticket != nullptr && wal_ticket->seq != 0) {
    wal_->NoteCommitReleased(*wal_ticket);
  }
  return Status::OK();
}

void LockManager::SetBase(const std::string& key,
                          std::optional<int64_t> value) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(StripeOf(ks).m);
  WordSection section(ks);
  ks.base = value;
  if (section.micro_held()) {
    // The base feeds the value cache when no writer holds the key; bump
    // the seq so any (preexisting) handle revalidates.
    section.set_word(
        RefreshValueCache(ks, ks.CurrentValue(), BumpSeq(section.word())));
  }
}

void LockManager::SnapshotBase(
    const std::function<void(const std::string&, int64_t)>& emit) {
  // Each base is read under its own key's stripe mutex, so commits
  // proceed between keys (this is the checkpoint's FUZZY scan;
  // WriteAheadLog::Checkpoint repairs whatever it races past from the
  // log).
  for (KeyState* ks : arena_->All()) {
    std::lock_guard<std::mutex> lock(StripeOf(*ks).m);
    // On an uninflated key the stripe mutex alone does NOT exclude
    // fast-word writers; the micro bit is held for the read (without
    // escalating).
    WordSection section(*ks);
    if (ks->base.has_value()) emit(ks->key, *ks->base);
  }
}

std::optional<int64_t> LockManager::ReadBase(const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(StripeOf(ks).m);
  WordSection section(ks);
  return ks.base;
}

LockManager::KeySnapshotForTest LockManager::SnapshotKeyForTest(
    const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(StripeOf(ks).m);
  // On an uninflated key the stripe mutex alone does NOT exclude
  // fast-word holders; the micro bit is held for the copy (without
  // escalating the key).
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

size_t LockManager::HolderCapacityForTest(const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(StripeOf(ks).m);
  WordSection section(ks);
  return ks.read_holders.capacity() + ks.write_holders.capacity();
}

}  // namespace nestedtx
