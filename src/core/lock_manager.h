// Threaded Moss lock manager with version storage — the engine-side
// realization of the R/W Locking object M(X) of §5.1, one instance
// managing every key of the store.
//
// Per key it keeps read/write holder sets and a version map
// (owner transaction -> value), exactly the state of M(X); the committed
// ("base") value plays the role of map(T0). Lock compatibility is Moss's
// rule: a read needs every write holder to be an ancestor of the
// requester; a write needs every holder (read or write) to be an
// ancestor. On commit, a transaction's locks and version pass to its
// parent; on abort they are discarded.
//
// Blocking: a conflicting request's fate is the ConflictPolicy's call
// (EngineOptions::cc_protocol; see core/cc_policy.h): under detection it
// waits, registered in the policy's wait-for graph; under wait-die an
// older requester waits and a younger one dies; under no-wait every
// conflict dies. Deaths are retryable Status::Deadlock, and always happen
// on the inflated slow path — a policy abort is a conflict event, never a
// fast-path spin. A waiter first spins: for the first kWaitSpinNs of its
// wait it drops the key mutex and polls the key's release epoch, which
// every release that changes a holder mode bumps while the key has a
// waiter, then re-checks. A condition-variable round trip costs about as
// much as a whole uncontended transaction, and most holders release
// within the budget. After the budget it parks on the key's condition
// variable. A re-check that finds the blockers it registered against
// keeps its registration. Every wait is bounded by lock_timeout.
//
// Lock word (two-regime concurrency control, DESIGN.md §5): each key
// carries one atomic 64-bit word packing an INFLATED escalation bit, a
// MICRO spin-lock bit, a PRESENT value bit and a ~61-bit seq counter,
// plus an atomic value cache mirroring the value a conflict-free reader
// observes. While a key is *uninflated*, every access to its holder
// structures goes through the MICRO bit: uncontended acquisitions,
// read-read sharing and releases of quiescent keys cost one CAS plus a
// short critical section, and a same-holder repeat read is a pure
// seqlock validation (two relaxed-cost atomic loads around the value
// cache, no store at all). A fast lane that spends its bounded spin on a
// busy MICRO bit has met contention, not a conflict: it waits for the bit
// behind the key mutex instead, and the key stays uninflated. On any
// conflict, would-be-waiter arrival, or Moss event the word cannot
// express (waiting, doom, tracing, armed failpoints), the key *inflates*:
// a slow-path entrant sets INFLATED under the key mutex (its stripe's;
// see "Thin entries"), after which fast paths bail on sight and the key
// mutex alone protects the key — exactly the original design. A release
// that leaves a key with no holders and no waiters *deflates* it back to
// the fast regime. `lock_word_enabled = false` births every key inflated,
// recovering the pure-mutex manager.
//
// Thin entries (Bacon et al.'s thin locks): the slow path's mutex,
// condition variable and wait profile are not in the key's entry. Each
// manager has a fixed table of cache-line-aligned stripes, and a key's
// hash picks its stripe; throughout this file "the key mutex" is that
// stripe's mutex, which the keys of one stripe share. No code holds two
// key mutexes at once, so sharing adds no lock-order edge, and a shared
// condition variable adds only spurious wakeups, which the wait loop
// already re-checks. A key's own waiter count stays in its entry, so a
// release still skips the notify when nobody waits on that key. Holder
// storage leaves with the last holder: each holder set is a 16-byte
// header over a pooled holder block, which the set hands back the moment
// it empties, on every release path (fast under the MICRO bit or
// inflated under the key mutex). Blocks recycle through a per-thread
// cache, at most kCachedHolderBlocks per size class and the rest on the
// heap, so the next grant on an empty set reuses a block its core freed
// moments ago (core/id_small_set.h). A key nobody holds owns no heap
// memory.
//
// Hot-path fast lane: a successful acquire can hand back a HeldLock
// handle {key state, word snapshot, held modes}. An Access under it skips
// the key lookup, and two repeat lanes skip the grant too: the seqlock
// read lane and the held-write CAS lane. Both need the exact granted
// word, and an inflated word never qualifies (nothing under the key mutex
// moves the word, so that test alone keeps the lanes off the
// unmaintained value cache of an inflated key). The fast regime bumps the
// seq on every structural change, inflation sets INFLATED and deflation
// bumps the seq, so an exact match proves the holder sets are as granted;
// the value cache is then the value this owner observes (only a write
// holder, the owner or an ancestor, can rewrite it in place). Every miss
// takes the one grant path (Grant), which checks Moss's rule again.
//
// One copy of each M(X) rule: Moss's compatibility test (Conflicts), the
// grant (ApplyGrant) and INFORM_COMMIT_AT / INFORM_ABORT_AT (ApplyRelease)
// are functions on the KeyState, which run under either guard. Each
// regime adds only its own side effects. The word regime (TryFastAcquire,
// TryFastRelease) adds the seq bump, the value-cache refresh and one
// counter bump; the mutex regime (Grant, ReleaseKeyLocked) adds the wait,
// the failpoints, the wakeup intents and the trace events. The held-write
// lane's in-place rewrite of its owner's version is the only holder-set
// change outside those rules.
//
// Key lookup (disjoint-access parallelism, DESIGN.md §5): the lock table
// is a fixed set of shards, each an insert-only open-addressing array of
// std::atomic<KeyState*>, probed linearly from the key's full hash. The
// KeyState keeps that hash and the only copy of the key string. A hit is
// one acquire load of the shard's table pointer plus acquire loads while
// probing — no mutex, no store, no RMW — so transactions on disjoint keys
// share only lines that nobody writes. A miss takes the shard mutex,
// probes the current table again, constructs the KeyState in the
// manager's arena and publishes it with a release store into its slot.
// The arena lays entries out in insertion order in 64-byte-aligned slabs,
// two cache lines each. Growth rehashes the current table's slots, which
// hold every entry of the shard, into a doubled table and publishes that
// with a release store of the shard's table pointer. Why a reader needs
// no mutex:
//   - A slot changes exactly once, from null to a KeyState, and only
//     after that KeyState is fully built. The release store that
//     publishes it (into the slot, or of a grown table holding it) pairs
//     with the reader's acquire load, so a reader that sees a pointer
//     sees a complete KeyState.
//   - Entries are never removed, the arena never moves or frees one, and
//     every outgrown table is kept until the manager is destroyed, so a
//     reader still probing one reads live memory. An outgrown table is a
//     subset of the current one: a hit there is the same KeyState, and a
//     miss falls through to the locked path, which re-probes the current
//     table before inserting. No key ever gets two KeyStates.
//   - No table is ever more than half full, so every probe reaches an
//     empty slot and stops.
//
// Batched release path: OnCommit/OnAbort take a transaction's whole key
// inventory and run in two phases — (1) per key, resolve the KeyState (a
// cached handle's pointer directly, else the lock-free lookup above) and
// release it: uninflated keys are released entirely under the MICRO bit
// (no waiters can exist on an uninflated key, so there is nothing to
// wake; the key mutex is taken only to wait for a bit whose spin budget
// ran out); inflated keys apply the INFORM_COMMIT_AT / INFORM_ABORT_AT
// state change (inherit or purge) under that key's mutex and record
// which keys' holder sets changed; (2) with no key mutex held, bump the
// batch's counters once and call notify_all once per stripe of a changed
// key (duplicate notify requests — e.g. a dual-mode read+write holder, or
// two keys on one stripe — are coalesced first). Wakeups are requested
// only for keys with a waiter: each KeyState counts its waiters, spinning
// or parked, under its key mutex, and a waiter holds that mutex from its
// conflict check until it is counted and has read the key's release
// epoch or parked, so a releaser either sees it counted (and bumps the
// epoch and notifies) or the waiter's check sees the post-release state —
// the skip loses no wakeup.
//
// Trace-order safety of the batching (Theorem 34): the recorded
// per-object event order must be the order the lock manager enforced.
// With a recorder attached the fast lanes are disabled outright (keys
// inflate on first use), so every traced grant and release runs under
// its key's mutex. Phase 1 still emits each key's INFORM_*_AT event
// under that key's mutex, at the instant the holder sets change —
// exactly where the per-key loop emitted it — so for any single object
// the inform event is sequenced before any grant that observes the
// released lock (a later grant must reacquire the same mutex, and
// events are stamped with monotone global sequence numbers). Deferring
// the *wakeups* to phase 2 moves no events: a woken waiter emits its
// grant events only after re-taking the key mutex and re-checking
// conflicts, so the per-object order is unchanged; the deferral only
// shortens the notifier's critical section (the woken thread no longer
// immediately blocks on the mutex the notifier holds). Cross-object
// interleaving of inform events is whatever the schedule allows, as it
// already was for the per-key loop.
#ifndef NESTEDTX_CORE_LOCK_MANAGER_H_
#define NESTEDTX_CORE_LOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/cc_policy.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/stats.h"
#include "core/trace_recorder.h"
#include "core/wait_graph.h"
#include "core/wal.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

/// Lock-word bit layout (header-visible so the seqlock read lane can be
/// inlined into callers; see the class comment for the full protocol).
/// The top three bits are flags; the rest is the seq counter that
/// validates HeldLock handles (~61 bits never wrap in practice).
inline constexpr uint64_t kWordInflated = 1ull << 63;
inline constexpr uint64_t kWordMicro = 1ull << 62;
inline constexpr uint64_t kWordPresent = 1ull << 61;
inline constexpr uint64_t kWordSeqMask = kWordPresent - 1;

/// Advance the seq field, leaving the flag bits alone.
constexpr uint64_t LockWordBumpSeq(uint64_t w) {
  return (w & ~kWordSeqMask) | ((w + 1) & kWordSeqMask);
}

class LockManager {
 public:
  /// Opaque per-key lock-table entry (stable for the manager's lifetime).
  struct KeyState;

  /// The hot pair of a key: its lock word and the value cache the
  /// seqlock read lane validates against it (the value a conflict-free
  /// reader observes while the key is uninflated). Lives inside the
  /// KeyState; exposed here so handle-holding callers can run the read
  /// lane without the KeyState definition.
  struct LockWordPair {
    std::atomic<uint64_t> word;
    std::atomic<int64_t> value{0};
  };

  /// Handle to a lock this owner was granted on a key: which modes were
  /// held and a snapshot of the key's lock word at grant time. An exact
  /// word match admits the repeat lanes; a handle granted on an inflated
  /// key carries INFLATED and admits none. Valid for the lifetime of the
  /// LockManager; trivially copyable.
  struct HeldLock {
    KeyState* key = nullptr;
    LockWordPair* hot = nullptr;  // &key->hot, set by every grant
    uint64_t word = 0;
    bool read = false;   // owner was in the read-holder set
    bool write = false;  // owner was in the write-holder set
  };

  /// A lock wait spins on its key's release epoch for its first
  /// kWaitSpinNs (at most lock_timeout) before it parks on the stripe's
  /// condition variable (see "Blocking").
  static constexpr uint64_t kWaitSpinNs = 100'000;

  /// `metrics` may be null (tests and benches that construct the manager
  /// directly): all instrumentation is skipped, not just disabled.
  LockManager(const EngineOptions& options, EngineStats* stats,
              MetricsRegistry* metrics = nullptr);
  ~LockManager();

  /// Acquire a read lock on `key` for `txn` (blocking) and return the
  /// value `txn` observes: the deepest write holder's version, else the
  /// committed base, else nullopt (absent key). If tracing is enabled and
  /// `trace` is given, the access's event group is recorded atomically
  /// with the grant. On success `held` (if given) receives the fast-path
  /// handle for this key.
  Result<std::optional<int64_t>> AcquireRead(
      const TransactionId& txn, const std::string& key,
      const AccessTraceInfo* trace = nullptr, HeldLock* held = nullptr);

  /// Acquire a write lock on `key` for `txn` (blocking), apply `mutator`
  /// to the observed value, store the result as txn's version, and return
  /// it. `mutator` returning nullopt stores a deletion.
  using Mutator =
      std::function<std::optional<int64_t>(std::optional<int64_t>)>;
  Result<std::optional<int64_t>> AcquireWrite(
      const TransactionId& txn, const std::string& key,
      const Mutator& mutator, const AccessTraceInfo* trace = nullptr,
      HeldLock* held = nullptr);

  /// True when the mutex-free lanes may run at all: the lock word is on
  /// and no trace recorder demands mutex-ordered event emission. Lets
  /// callers skip fast-path setup work (e.g. the guard in front of
  /// Transaction's in-place repeat-read lane) when every attempt would
  /// fall through anyway.
  bool FastLanesEnabled() const {
    return options_.lock_word_enabled && recorder_ == nullptr;
  }

  /// The seqlock lane, THE repeat-read hot path: serve a repeat read from
  /// `held`'s value cache iff the word, re-read after the cache, is
  /// exactly as granted (see "Hot-path fast lane"). A concurrent ancestor
  /// writer that leaves the word unchanged (pure value rewrite) is legal
  /// in either order. Never blocks, stores or updates `held`. False on
  /// any mismatch (tracing on, lock word off, stale or escalated word),
  /// with `*out` untouched; callers fall back to Access. Exposed so
  /// Transaction can run it in place on its inventory entry.
  bool TryFastReadLane(const HeldLock& held, std::optional<int64_t>* out) {
    if (FastLanesEnabled() && held.read &&
        (held.word & (kWordInflated | kWordMicro)) == 0 &&
        held.hot != nullptr) {
      const uint64_t w1 = held.hot->word.load(std::memory_order_acquire);
      if (w1 == held.word) {
        const int64_t v = held.hot->value.load(std::memory_order_acquire);
        if (held.hot->word.load(std::memory_order_acquire) == w1) {
          stats_->Bump(kStatFastReadReacquires);
          if (w1 & kWordPresent) {
            *out = v;
          } else {
            out->reset();
          }
          return true;
        }
      }
    }
    return false;
  }

  /// One access through a caller's handle cache (a null `mutator`
  /// reads, as in Grant). A handle from an earlier grant to `txn` on this
  /// manager (its key is set) first tries its mode's repeat lane: the
  /// seqlock read lane or the held-write lane. A miss grants on the
  /// handle's key, and an empty handle grants on `key`. On success `held`
  /// is the current handle.
  Result<std::optional<int64_t>> Access(const TransactionId& txn,
                                        const std::string& key,
                                        const Mutator* mutator,
                                        const AccessTraceInfo* trace,
                                        HeldLock& held) {
    if (held.key == nullptr) {
      return Grant(GetKeyState(key), txn, mutator, trace, &held);
    }
    std::optional<int64_t> v;
    if (mutator == nullptr ? TryFastReadLane(held, &v)
                           : TryFastWriteLane(held, txn, *mutator, &v)) {
      return v;
    }
    return Grant(*held.key, txn, mutator, trace, &held);
  }

  /// A key a transaction touched, with its cached fast-path handle (the
  /// handle may be stale or empty; only its KeyState pointer is relied
  /// upon, to skip the key lookup on commit/abort).
  struct KeyHold {
    std::string key;
    HeldLock held;
  };

  /// Commit `txn`'s entries on `keys`: locks and version pass to `parent`.
  /// A top-level commit (parent == T0) releases the locks and installs the
  /// version as the committed base. Batched: see the header comment
  /// (per-key release, deferred coalesced wakeups). The string
  /// overload is a thin adapter onto the same implementation with no
  /// cached handles.
  void OnCommit(const TransactionId& txn, const TransactionId& parent,
                const std::vector<std::string>& keys);
  void OnCommit(const TransactionId& txn, const TransactionId& parent,
                const std::vector<KeyHold>& keys);

  /// Abort `txn`: its entries on `keys` (and any stray descendants')
  /// are discarded. Batched; the string overload is a thin adapter.
  void OnAbort(const TransactionId& txn,
               const std::vector<std::string>& keys);
  void OnAbort(const TransactionId& txn, const std::vector<KeyHold>& keys);

  // --- Optimistic concurrency control (CcProtocol::kOcc; DESIGN §4.9) ---
  // OCC transactions never touch the holder structures: reads validate
  // against the lock word (the seqlock lane's exact-word discipline) and
  // writes stay in a private buffer until OccCommit installs them.

  /// One validated read observation. `key_state`/`word` anchor the
  /// commit-time word check for store-sourced reads; a read served from
  /// an ancestor transaction's private buffer carries no word
  /// (from_store false, key_state null) and is validated structurally at
  /// child-merge time instead.
  struct OccReadEntry {
    std::string key;
    KeyState* key_state = nullptr;
    uint64_t word = 0;
    std::optional<int64_t> observed;
    bool from_store = false;
  };

  /// Optimistic read of `key`'s committed value: the seqlock read lane
  /// without any holder-set insert — two acquire loads around the value
  /// cache, zero shared-state writes on the hit path. Fills `entry` with
  /// the exact word OccCommit will validate. An INFLATED key fails with a
  /// retryable Status::Aborted counted under occ_validation_aborts: in
  /// the inflated regime nothing bumps the seq, so no inflated word can
  /// serve as a validation version (DESIGN §4.9). Nothing in an OCC
  /// engine inflates a key, so this is a guard, not a path. Requires
  /// lock_word_enabled.
  Result<std::optional<int64_t>> OccReadKey(const std::string& key,
                                            OccReadEntry* entry);

  /// Silo-style top-level OCC commit, traced or not. `writes` must be
  /// sorted by key and unique. Three steps: (1) lock every write key's
  /// MICRO bit in sorted key order (bounded spin; an INFLATED key aborts
  /// the commit); (2) validate every store-sourced read entry's word is
  /// EXACTLY unchanged — for a key in our own write set the pre-lock
  /// word is compared, so our own MICRO bit never fails us; (3) install
  /// each write as the committed base, refresh the value cache, and
  /// release with a seq bump so concurrent optimistic readers and later
  /// committers observe the change. Validation failure restores the
  /// pre-lock words untouched and returns a retryable Status::Aborted
  /// (counted under occ_validation_aborts), as does an exhausted spin
  /// budget. Read-only commits (empty write set) take no lock and
  /// perform no store at all.
  /// With a WAL attached (SetWal) and a non-null `wal_ticket`, the commit
  /// image is appended between validation and install — the write-set
  /// words are still MICRO-locked, so record seq order is per-key commit
  /// order (core/wal.h) — and the ticket to WaitDurable on is returned
  /// through `wal_ticket`. An append failure restores the pre-lock words
  /// (nothing installed) and returns the append's status (IoError, or
  /// InvalidArgument for an oversize image), NOT counted as a
  /// validation abort. `wal_shard_hint` is the top-level begin ordinal.
  /// With a trace recorder attached and a non-null `trace`, a block of
  /// trace->size sequence numbers is reserved between steps (1) and (2)
  /// — the commit's serialization point; the ordering argument is in
  /// the implementation — and returned in trace->first for the caller
  /// to fill once the commit has succeeded.
  Status OccCommit(const std::vector<WalWrite>& writes,
                   const std::vector<OccReadEntry>& reads,
                   uint64_t wal_shard_hint = 0,
                   WalTicket* wal_ticket = nullptr,
                   TraceBlock* trace = nullptr);

  /// Orphan cancellation (the paper's orphan notion made operational:
  /// descendants of an aborting ancestor get no Theorem 34 guarantee, so
  /// stop spending resources on them). Dooming a subtree root makes
  /// IsDoomed true for the whole subtree, and wakes every parked waiter
  /// in it so WaitForGrant returns Status::Cancelled instead of sleeping
  /// out the lock timeout. The registry holds roots, not members: a
  /// retried subtree gets fresh transaction ids, which no stale root can
  /// match. Idempotent; cleared by the root's abort (ClearDoom).
  void DoomSubtree(const TransactionId& root);
  void ClearDoom(const TransactionId& root);
  /// True iff `txn` is (a descendant of) a doomed root. One relaxed
  /// atomic load when nothing is doomed — safe on the per-op hot path.
  bool IsDoomed(const TransactionId& txn) const {
    return doomed_count_.load(std::memory_order_relaxed) != 0 &&
           IsDoomedSlow(txn);
  }
  /// Drain diagnostics: entries still in the doom registry / park table.
  /// A quiesced engine must report 0 for both (chaos tests assert it).
  size_t DoomedRootCount() const;
  size_t ParkedWaiterCount() const;

  /// Non-transactional access to the committed base (preload/verify).
  /// Runs under the micro bit on uninflated keys — preloading does not
  /// escalate a key out of the fast regime.
  void SetBase(const std::string& key, std::optional<int64_t> value);
  std::optional<int64_t> ReadBase(const std::string& key);

  /// Fuzzy whole-store scan of the committed base: emit(key, value) for
  /// every key present at the moment its key mutex was taken. NOT a
  /// consistent cut — commits proceed between keys — which is exactly
  /// the contract WriteAheadLog::Checkpoint wants (it repairs races
  /// from the log). Collects the entries first, then takes one key mutex
  /// at a time; never escalates a key out of the fast regime.
  void SnapshotBase(
      const std::function<void(const std::string&, int64_t)>& emit);

  /// The conflict-scheduling policy (EngineOptions::cc_protocol): who
  /// waits, who dies, and — under detection — the wait graph, all
  /// behind one interface.
  ConflictPolicy& policy() { return *policy_; }
  const ConflictPolicy& policy() const { return *policy_; }

  /// The detection policy's wait graph (test/diagnostic surface; valid
  /// only under CcProtocol::kDetect, the default — prevention policies
  /// have no graph).
  WaitGraph& wait_graph() { return *policy_->graph(); }

  /// Contention profiler: the `k` keys with the highest cumulative
  /// lock-wait time (ties broken by key), from the per-key profiles the
  /// wait path keeps in each key's stripe under the key mutex. Only keys
  /// that ever waited have one (fast-word grants never wait). Takes each
  /// stripe's mutex once and no per-key mutex — export-time cost, not
  /// hot-path cost.
  std::vector<HotKey> CollectHotKeys(size_t k);

  /// Test hook: the index of the stripe `key` maps to. Keys with equal
  /// indices share a key mutex and a condition variable.
  size_t StripeForTest(const std::string& key) const;

  /// Test hook: the conflict set Moss's test would hand the wait graph
  /// for this request (exposes the holder-dedupe contract). Enumerates
  /// holders through the same snapshot discipline as SnapshotKeyForTest —
  /// never assumes the key mutex alone protects an uninflated key.
  std::vector<TransactionId> ConflictsForTest(const std::string& key,
                                              const TransactionId& txn,
                                              bool exclusive);

  /// Full per-key state dump for equivalence tests: holder sets, version
  /// entries, committed base and holder epoch (the word's seq field),
  /// copied under the key mutex plus — on an uninflated key — the micro
  /// bit, so concurrent fast-word traffic cannot be observed mid-update.
  /// Does not escalate the key. Not for production use.
  struct KeySnapshotForTest {
    std::vector<TransactionId> read_holders;
    std::vector<TransactionId> write_holders;
    std::vector<std::pair<TransactionId, std::optional<int64_t>>> versions;
    std::optional<int64_t> base;
    uint64_t holder_epoch = 0;
    bool inflated = false;
  };
  KeySnapshotForTest SnapshotKeyForTest(const std::string& key);

  /// Test hook: the holder storage `key` owns, in elements of room across
  /// its read-holder set and its version map (0 once the last holder has
  /// left). Same snapshot discipline as SnapshotKeyForTest.
  size_t HolderCapacityForTest(const std::string& key);

  /// Attach a trace recorder (before any transaction runs; tracing
  /// disables the fast lanes so every grant and release emits under a
  /// key mutex, and OccCommit reserves its commit's block). The recorder
  /// must outlive the lock manager.
  void SetTraceRecorder(EngineTraceRecorder* recorder) {
    recorder_ = recorder;
  }
  EngineTraceRecorder* trace_recorder() { return recorder_; }

  /// Attach the engine's WAL (TransactionManager does this at
  /// construction; null = no durability). OccCommit then appends the
  /// commit image while the write set is still locked and reports its
  /// release (install stores) to the checkpoint truncation floor via
  /// WriteAheadLog::NoteCommitReleased(ticket); the locking path's
  /// release report lives with the committer in Transaction::Pass.
  /// The WAL must outlive the lock manager.
  void SetWal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() { return wal_; }

 private:
  // The key's lock-table entry, created on first touch. A hit takes no
  // mutex and makes no store (see "Key lookup" in the header comment).
  KeyState& GetKeyState(const std::string& key);

  // The one grant path behind AcquireRead/Write and every repeat-lane
  // miss of Access (`mutator` null means read): the one-CAS fast grant
  // when the lanes are on, else (a conflict, doom, armed failpoint,
  // inflated key or recorder) wait for the grant under the key mutex,
  // which inflates the key and checks Moss's rule, then apply the grant
  // and emit the access's trace group there.
  Result<std::optional<int64_t>> Grant(KeyState& ks, const TransactionId& txn,
                                       const Mutator* mutator,
                                       const AccessTraceInfo* trace,
                                       HeldLock* held);

  // Doom-registry scan behind IsDoomed's inline nothing-doomed exit.
  bool IsDoomedSlow(const TransactionId& txn) const;

  // Escalate: caller holds the key mutex. Acquires the micro bit
  // (draining any in-flight fast section) and publishes the INFLATED
  // word; no-op when already inflated. Every slow-path block that touches
  // holder structures calls this right after locking the key mutex.
  void EnsureInflatedLocked(KeyState& ks);

  // De-escalate: caller holds the key mutex. If the key is inflated, has no
  // holders and no parked waiters (and the fast lanes are enabled),
  // refresh the value cache from the base and clear INFLATED.
  void MaybeDeflateLocked(KeyState& ks);

  // The held-write CAS lane behind Access. Never blocks; false on any
  // mismatch, with `*out` untouched.
  bool TryFastWriteLane(HeldLock& held, const TransactionId& txn,
                        const Mutator& mutator, std::optional<int64_t>* out);

  // One-CAS grant attempt on an uninflated key: under the micro bit, the
  // grant rule of Grant's inflated path (Conflicts, then ApplyGrant) plus
  // the word's upkeep (seq bump, value-cache refresh). Returns false —
  // escalating nothing by itself — on an inflated word, on any conflict,
  // when any subtree is doomed, or when the grant failpoint is armed;
  // never for a busy word (a spent spin budget waits for the bit behind
  // the key mutex).
  bool TryFastAcquire(KeyState& ks, const TransactionId& txn,
                      const Mutator* mutator, HeldLock* held,
                      Result<std::optional<int64_t>>* result);

  // Micro-bit release of an uninflated key for ReleaseBatch phase 1
  // (commit when parent != nullptr, abort otherwise): ApplyRelease plus
  // the word's upkeep. False only on an inflated word or an armed release
  // failpoint; a busy word waits, as in TryFastAcquire. No wakeups and no
  // trace events are ever owed here: waiters imply inflation, tracing
  // disables the fast lanes.
  struct ReleaseScratch;
  bool TryFastRelease(KeyState& ks, const TransactionId& txn,
                      const TransactionId* parent, ReleaseScratch& scratch);

  // The single batched commit/abort implementation behind all four
  // OnCommit/OnAbort overloads. `parent` is null for an abort; `key_of(i)`
  // names the i-th key and `held_of(i)` returns its cached handle (or
  // nullptr). Templated over the accessors so the string overloads adapt
  // without materializing KeyHold copies. See the header comment for the
  // two phases.
  template <typename KeyOf, typename HeldOf>
  void ReleaseBatch(const TransactionId& txn, const TransactionId* parent,
                    size_t n, const KeyOf& key_of, const HeldOf& held_of);

  // The release body for an inflated key; caller holds the key mutex.
  // ApplyRelease (commit when parent != nullptr, else abort) plus the
  // mutex regime's side effects: the release failpoint's delay, that
  // INFORM event and the wakeup intents in `scratch` — no locking, no
  // notifying.
  void ReleaseKeyLocked(KeyState& ks, const TransactionId& txn,
                        const TransactionId* parent, ReleaseScratch& scratch);

  // Block until no conflicts (or error). Caller holds `lk` on the key
  // mutex and parks on its stripe's condition variable; the loop asserts
  // inflation before reading any holder structure.
  Status WaitForGrant(KeyState& ks, std::unique_lock<std::mutex>& lk,
                      const TransactionId& txn, bool exclusive);

  // Park-table handshake for cancellation wakeups. Registration checks
  // the doomed roots atomically (same mutex), so a doom either sees the
  // parked entry and notifies its key, or the parker sees the root and
  // never parks — no lost-cancellation window. Returns true when the
  // waiter is already doomed (and was NOT registered).
  bool ParkWaiter(const TransactionId& txn, KeyState* ks);
  void UnparkWaiter(const TransactionId& txn, const KeyState* ks);

  EngineOptions options_;
  EngineStats* stats_;
  MetricsRegistry* metrics_;  // may be null; see constructor
  std::unique_ptr<ConflictPolicy> policy_;
  EngineTraceRecorder* recorder_ = nullptr;
  WriteAheadLog* wal_ = nullptr;

  // The lock table: a fixed array of shards, each an insert-only
  // open-addressing table (see "Key lookup" in the header comment), the
  // fixed stripe table that holds every key mutex, condition variable
  // and wait profile (see "Thin entries"), and the arena that holds
  // every KeyState. Defined in the .cc with their sizes.
  struct Shard;
  struct Stripe;
  class Arena;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<Stripe[]> stripes_;
  std::unique_ptr<Arena> arena_;

  // The locked half of GetKeyState: re-probe under the shard mutex and,
  // on a second miss, construct and publish the key's KeyState.
  KeyState& InsertKeyState(Shard& shard, size_t hash, const std::string& key);
  // The key's stripe: its key mutex, condition variable and wait profile.
  Stripe& StripeOf(const KeyState& ks) const;

  // Orphan-cancellation state: the doomed subtree roots and the parked
  // waiters a doom must wake, both under one mutex (the atomicity is the
  // no-lost-cancellation argument — see ParkWaiter). doomed_count_
  // mirrors doomed_roots_.size() so IsDoomed is one relaxed load in the
  // common nothing-doomed case. Lock order: a waiter registers while
  // holding its key mutex (key mutex -> doom_mutex_); DoomSubtree never
  // holds doom_mutex_ while taking a key mutex.
  struct ParkedWaiter {
    TransactionId txn;
    KeyState* ks;
  };
  mutable std::mutex doom_mutex_;
  std::vector<TransactionId> doomed_roots_;
  std::vector<ParkedWaiter> parked_waiters_;
  std::atomic<size_t> doomed_count_{0};
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_LOCK_MANAGER_H_
