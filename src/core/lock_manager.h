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
// waits on the key's condition variable, registered in the policy's
// wait-for graph; under wait-die an older requester waits and a younger
// one dies; under no-wait every conflict dies. Deaths are retryable
// Status::Deadlock, and always happen on the inflated slow path — a
// policy abort is a conflict event, never a fast-path spin. Every wait
// is bounded by lock_timeout.
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
// cache, no store at all). On any conflict, would-be-waiter arrival, or
// Moss event the word cannot express (waiting, doom, tracing, armed
// failpoints), the key *inflates*: a mutex-protected
// slow-path entrant sets INFLATED under ks.m, after which fast paths
// bail on sight and ks.m alone protects the key — exactly the original
// design. A release that leaves a key with no holders and no waiters
// *deflates* it back to the fast regime. `lock_word_enabled = false`
// births every key inflated, recovering the pure-mutex manager.
//
// Hot-path fast lane: a successful acquire can hand back a HeldLock
// handle {key state, word snapshot, held modes}. Re-acquiring under a
// still-sufficient held lock (Reacquire*) skips the shard hash, the
// wait/conflict scan and the holder-set insert. Safety: the seq field is
// bumped on every holder-set *insertion* (and, in the fast regime, on
// every structural change); if the seq is unchanged since the handle's
// grant, no transaction has acquired the key since, so by Moss's rule
// the no-conflict condition that held at grant time still holds (holder
// removals can only shrink the conflict set, and an active transaction's
// own locks are never removed — ancestors outlive descendants). On a
// mismatch Reacquire* falls back to the full grant path on the same key
// state. The seqlock read lane needs the stronger exact-word match: an
// unchanged word also proves the value cache is the value this reader
// observes.
//
// The argument extends to handles inherited up the commit chain (a
// committing child hands its cached handles to its parent): on a seq
// match, every write holder was an ancestor of the handle's original
// owner O. A holder that is not also an ancestor of the reusing ancestor
// P would have to lie strictly between P and O; for the handle to have
// reached P, every transaction on that path has committed — which erased
// it from the holder sets. So the no-conflict condition holds for P too.
//
// Batched release path: OnCommit/OnAbort take a transaction's whole key
// inventory and run in three phases — (1) resolve every KeyState
// pointer, taking cached handles directly and resolving the remaining
// keys shard-by-shard under one shard-mutex hold each; (2) per key,
// uninflated keys are released entirely under the MICRO bit (no waiters
// can exist on an uninflated key, so there is nothing to wake and no
// mutex to take); inflated keys apply the INFORM_COMMIT_AT /
// INFORM_ABORT_AT state change (inherit or purge) under that key's
// mutex and record which keys' holder sets changed; (3) with no key
// mutex held, bump the batch's counters once and call cv.notify_all
// once per changed key (duplicate notify requests — e.g. a dual-mode
// read+write holder — are coalesced first). Wakeups are requested only
// for keys with a parked waiter: each KeyState counts waiters under its mutex,
// and since a waiter holds that mutex continuously from wake to
// re-park, a releaser either sees it parked (and notifies) or the
// waiter re-checks against the post-release state — the skip loses no
// wakeup.
//
// Trace-order safety of the batching (Theorem 34): the recorded
// per-object event order must be the order the lock manager enforced.
// With a recorder attached the fast lanes are disabled outright (keys
// inflate on first use), so every traced grant and release runs under
// its key's mutex. Phase 2 still emits each key's INFORM_*_AT event
// under that key's mutex, at the instant the holder sets change —
// exactly where the per-key loop emitted it — so for any single object
// the inform event is sequenced before any grant that observes the
// released lock (a later grant must reacquire the same mutex, and
// events are stamped with monotone global sequence numbers). Deferring
// the *wakeups* to phase 3 moves no events: a woken waiter emits its
// grant events only after re-taking the key mutex and re-checking
// conflicts, so the per-object order is unchanged; the deferral only
// shortens the notifier's critical section (the woken thread no longer
// immediately blocks on the mutex the notifier holds). Cross-object
// interleaving of inform events is whatever the schedule allows, as it
// already was for the per-key loop.
#ifndef NESTEDTX_CORE_LOCK_MANAGER_H_
#define NESTEDTX_CORE_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// word match admits the mutex-free seqlock read lane; a seq-field
  /// match admits the inflated-regime repeat lane. Valid for the
  /// lifetime of the LockManager; trivially copyable.
  struct HeldLock {
    KeyState* key = nullptr;
    LockWordPair* hot = nullptr;  // &key->hot, set by every grant
    uint64_t word = 0;
    bool read = false;   // owner was in the read-holder set
    bool write = false;  // owner was in the write-holder set
  };

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

  /// Re-acquire a read lock on the key of `held`, which must come from a
  /// prior successful acquire by the same `txn` on this manager. Takes the
  /// fast lane when the held lock is still sufficient, else the full
  /// grant path on the same key. Updates `held` in place.
  ///
  /// Inline seqlock lane — THE repeat-read hot path: an exact word match
  /// (which implies INFLATED and MICRO clear), re-validated after reading
  /// the value cache, proves the holder sets are untouched since our
  /// grant and the cache is the value we observe. No store, no lock, no
  /// structure walk — and, inlined here, no cross-TU call. A concurrent
  /// ancestor writer that leaves the word unchanged (pure value rewrite)
  /// is legal in either order; one that touches flags or seq forces the
  /// w2 mismatch.
  Result<std::optional<int64_t>> ReacquireRead(
      HeldLock& held, const TransactionId& txn,
      const AccessTraceInfo* trace = nullptr) {
    std::optional<int64_t> v;
    if (TryFastReadLane(held, &v)) return v;
    return ReacquireReadCold(held, txn, trace);
  }

  /// Whether the seqlock read lane can hit at all right now (lock word
  /// on, no recorder attached). Lets callers skip fast-path setup work
  /// (e.g. Transaction::TryGet's in-place handle lookup) when every
  /// attempt is doomed to fall through anyway.
  bool FastReadLanePossible() const {
    return options_.lock_word_enabled && recorder_ == nullptr;
  }

  /// The seqlock lane alone: serve a repeat read from `held`'s value
  /// cache iff the lock word is exactly as granted. Never blocks, never
  /// stores, never updates `held` (a hit proves the handle is current).
  /// False on any mismatch — tracing on, lock word off, stale or
  /// escalated word — with `*out` untouched; callers fall back to the
  /// full reacquire path. Exposed so Transaction::TryGet can run the
  /// lane in place on its cached handle without the handle copy-out /
  /// write-back glue of the general path.
  bool TryFastReadLane(const HeldLock& held, std::optional<int64_t>* out) {
    if (options_.lock_word_enabled && recorder_ == nullptr && held.read &&
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

  /// Write-lock counterpart of ReacquireRead.
  Result<std::optional<int64_t>> ReacquireWrite(
      HeldLock& held, const TransactionId& txn, const Mutator& mutator,
      const AccessTraceInfo* trace = nullptr);

  /// A key a transaction touched, with its cached fast-path handle (the
  /// handle may be stale or empty; only its KeyState pointer is relied
  /// upon, to skip the shard lookup on commit/abort).
  struct KeyHold {
    std::string key;
    HeldLock held;
  };

  /// Commit `txn`'s entries on `keys`: locks and version pass to `parent`.
  /// A top-level commit (parent == T0) releases the locks and installs the
  /// version as the committed base. Batched: see the header comment
  /// (shard-grouped resolution, deferred coalesced wakeups). The string
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

  /// One buffered write (nullopt = deletion).
  struct OccWriteEntry {
    std::string key;
    std::optional<int64_t> value;
  };

  /// Optimistic read of `key`'s committed value: the seqlock read lane
  /// without any holder-set insert — two acquire loads around the value
  /// cache, zero shared-state writes on the hit path. Fills `entry` with
  /// the exact word OccCommit will validate. An INFLATED key is deflated
  /// if quiescent (a traced replay commit may have left it escalated)
  /// and otherwise fails with a retryable Status::Aborted
  /// counted under occ_validation_aborts: in the inflated regime holder
  /// removals and top-level installs do NOT bump the seq, so no inflated
  /// word can serve as a validation version (DESIGN §4.9). Requires
  /// lock_word_enabled and no trace recorder (traced OCC commits replay
  /// through the mutex-ordered locking paths instead).
  Result<std::optional<int64_t>> OccReadKey(const std::string& key,
                                            OccReadEntry* entry);

  /// Silo-style top-level OCC commit. `writes` must be sorted by key and
  /// unique. Three steps: (1) lock every write key's MICRO bit in sorted
  /// key order (bounded spin; INFLATED keys are deflated if quiescent,
  /// else the commit aborts); (2) validate every store-sourced read
  /// entry's word is EXACTLY unchanged — for a key in our own write set
  /// the pre-lock word is compared, so our own MICRO bit never fails us;
  /// (3) install each write as the committed base, refresh the value
  /// cache, and release with a seq bump so concurrent optimistic readers
  /// and later committers observe the change. Validation failure
  /// restores the pre-lock words untouched and returns a retryable
  /// Status::Aborted (counted under occ_validation_aborts). Read-only
  /// commits (empty write set) take no lock and perform no store at all.
  /// With a WAL attached (SetWal) and a non-null `wal_ticket`, the commit
  /// image is appended between validation and install — the write-set
  /// words are still MICRO-locked, so record seq order is per-key commit
  /// order (core/wal.h) — and the ticket to WaitDurable on is returned
  /// through `wal_ticket`. An append failure restores the pre-lock words
  /// (nothing installed) and returns Status::IoError, NOT counted as a
  /// validation abort. `wal_shard_hint` is the top-level begin ordinal.
  Status OccCommit(const std::vector<OccWriteEntry>& writes,
                   const std::vector<OccReadEntry>& reads,
                   uint64_t wal_shard_hint = 0,
                   WalTicket* wal_ticket = nullptr);

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
  /// every key present at the moment its own mutex was taken. NOT a
  /// consistent cut — commits proceed between keys — which is exactly
  /// the contract WriteAheadLog::Checkpoint wants (it repairs races
  /// from the log). Same two-pass, no-nested-mutex discipline as
  /// CollectHotKeys; never escalates a key out of the fast regime.
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
  /// lock-wait time (ties broken by key), from per-key counters the wait
  /// path maintains under the key mutex. (Fast-word grants never wait and
  /// never touch these counters, so the key mutex still owns them in both
  /// regimes.) Scans the whole key table — export-time cost, not hot-path
  /// cost.
  std::vector<HotKey> CollectHotKeys(size_t k);

  /// Test hook: the conflict set Conflicts() would hand the wait graph
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

  /// Attach a trace recorder (before any transaction runs; tracing
  /// disables the fast lanes so every event is emitted under a key
  /// mutex). The recorder must outlive the lock manager.
  void SetTraceRecorder(EngineTraceRecorder* recorder) {
    recorder_ = recorder;
  }
  EngineTraceRecorder* trace_recorder() { return recorder_; }

  /// Attach the engine's WAL (TransactionManager does this at
  /// construction; null = no durability). OccCommit then appends the
  /// commit image while the write set is still locked and reports its
  /// release (install stores) to the group-commit leader via
  /// WriteAheadLog::NoteCommitReleased(ticket); the locking path's
  /// release report lives with the committer in Transaction::Commit.
  /// The WAL must outlive the lock manager.
  void SetWal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() { return wal_; }

 private:
  KeyState& GetKeyState(const std::string& key);

  // Cold tail of ReacquireRead (everything past the inline seqlock lane):
  // fast cold-grant retry, inflated-regime repeat lane, full grant path.
  Result<std::optional<int64_t>> ReacquireReadCold(
      HeldLock& held, const TransactionId& txn, const AccessTraceInfo* trace);

  // Doom-registry scan behind IsDoomed's inline nothing-doomed exit.
  bool IsDoomedSlow(const TransactionId& txn) const;

  // True when the mutex-free lanes may run at all: the option is on and
  // no trace recorder demands mutex-ordered event emission.
  bool FastLanesEnabled() const {
    return options_.lock_word_enabled && recorder_ == nullptr;
  }

  // Escalate: caller holds ks.m. Acquires the micro bit (draining any
  // in-flight fast section) and publishes the INFLATED word; no-op when
  // already inflated. Every slow-path block that touches holder
  // structures calls this right after locking ks.m.
  void EnsureInflatedLocked(KeyState& ks);

  // De-escalate: caller holds ks.m. If the key is inflated, has no
  // holders and no parked waiters (and the fast lanes are enabled),
  // refresh the value cache from the base and clear INFLATED.
  void MaybeDeflateLocked(KeyState& ks);

  // One-CAS grant attempt on an uninflated key: scan the holder sets for
  // Moss conflicts under the micro bit and insert the holder if clear.
  // Returns false — escalating nothing by itself — on inflated or
  // contended words, on any conflict, when any subtree is doomed, or
  // when the grant failpoint is armed. `mutator` is required iff
  // `exclusive`.
  bool TryFastAcquire(KeyState& ks, const TransactionId& txn,
                      bool exclusive, const Mutator* mutator,
                      HeldLock* held,
                      Result<std::optional<int64_t>>* result);

  // Micro-bit release of an uninflated key for ReleaseBatch phase 2
  // (commit when parent != nullptr, abort otherwise). No wakeups and no
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
  // three phases.
  template <typename KeyOf, typename HeldOf>
  void ReleaseBatch(const TransactionId& txn, const TransactionId* parent,
                    size_t n, const KeyOf& key_of, const HeldOf& held_of);

  // Per-key commit/abort bodies; caller holds ks.m on an inflated key.
  // They mutate holder sets/versions, emit the INFORM_*_AT trace event,
  // and record counter and wakeup intents in `scratch` — no locking, no
  // notifying.
  void CommitKeyLocked(KeyState& ks, const TransactionId& txn,
                       const TransactionId& parent, ReleaseScratch& scratch);
  void AbortKeyLocked(KeyState& ks, const TransactionId& txn,
                      ReleaseScratch& scratch);

  // Full grant paths on an already-resolved key state.
  Result<std::optional<int64_t>> AcquireReadOn(KeyState& ks,
                                               const TransactionId& txn,
                                               const AccessTraceInfo* trace,
                                               HeldLock* held);
  Result<std::optional<int64_t>> AcquireWriteOn(KeyState& ks,
                                                const TransactionId& txn,
                                                const Mutator& mutator,
                                                const AccessTraceInfo* trace,
                                                HeldLock* held);

  // Inflated-regime repeat lanes; return false (without side effects)
  // when the held lock is insufficient or the seq field moved.
  bool TryReacquireRead(HeldLock& held, const TransactionId& txn,
                        const AccessTraceInfo* trace,
                        Result<std::optional<int64_t>>* result);
  bool TryReacquireWrite(HeldLock& held, const TransactionId& txn,
                         const Mutator& mutator,
                         const AccessTraceInfo* trace,
                         Result<std::optional<int64_t>>* result);

  // The value txn observes: deepest write holder's version, else base.
  // Caller holds ks.m (inflated) or the micro bit (uninflated).
  static std::optional<int64_t> CurrentValue(const KeyState& ks);

  // Conflicting holders for the given request (caller holds ks.m on an
  // inflated key, or the micro bit).
  static std::vector<TransactionId> Conflicts(const KeyState& ks,
                                              const TransactionId& txn,
                                              bool exclusive);

  // Block until no conflicts (or error). Caller holds `lk` on ks.m; the
  // loop asserts inflation before reading any holder structure.
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

  struct Shard {
    std::mutex m;
    std::unordered_map<std::string, std::unique_ptr<KeyState>> keys;
  };
  std::vector<Shard> shards_;

  // Orphan-cancellation state: the doomed subtree roots and the parked
  // waiters a doom must wake, both under one mutex (the atomicity is the
  // no-lost-cancellation argument — see ParkWaiter). doomed_count_
  // mirrors doomed_roots_.size() so IsDoomed is one relaxed load in the
  // common nothing-doomed case. Lock order: a waiter registers while
  // holding its key mutex (ks.m -> doom_mutex_); DoomSubtree never holds
  // doom_mutex_ while taking a key mutex.
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
