// Engine counters. Always-on, so they must be cheap on the hot path:
// counters are striped across cache-line-aligned shards indexed by a
// per-thread slot, so concurrent workers never contend on (or bounce)
// a shared counter line. Readers aggregate with Snapshot().
#ifndef NESTEDTX_CORE_STATS_H_
#define NESTEDTX_CORE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace nestedtx {

/// The single source of truth for the counter set: X(enumerator, field).
/// The enum, the snapshot struct, Snapshot() aggregation, per-counter name
/// lookup and every export surface (ToString, MetricsRegistry::ExportText/
/// ExportJson) are all generated from this list, so adding a counter here
/// adds it everywhere at once — tests/observability_test.cc round-trips
/// each counter through every surface to keep it that way.
#define NESTEDTX_STAT_COUNTERS(X)                                         \
  X(kStatTxnsBegun, txns_begun)                                           \
  X(kStatTxnsCommitted, txns_committed)                                   \
  X(kStatTxnsAborted, txns_aborted)                                       \
  X(kStatTopLevelCommitted, top_level_committed)                          \
  X(kStatTopLevelAborted, top_level_aborted)                              \
  X(kStatReads, reads)                                                    \
  X(kStatWrites, writes)                                                  \
  X(kStatLockGrants, lock_grants)                                         \
  X(kStatLockWaits, lock_waits)                                           \
  X(kStatDeadlocks, deadlocks)                                            \
  X(kStatLockTimeouts, lock_timeouts)                                     \
  /* requesters killed by a prevention protocol (wait-die / no-wait);    \
     requesters that closed a detected cycle stay under deadlocks */    \
  X(kStatPreventionAborts, prevention_aborts)                             \
  X(kStatLocksInherited, locks_inherited)                                 \
  X(kStatVersionsDiscarded, versions_discarded)                           \
  /* cv notify_all calls made by the release path */                      \
  X(kStatWakeupsIssued, wakeups_issued)                                   \
  /* duplicate notify requests merged before issue */                     \
  X(kStatWakeupsCoalesced, wakeups_coalesced)                             \
  /* lock waits ended by orphan cancellation */                           \
  X(kStatWaitsCancelled, waits_cancelled)                                 \
  /* RetryExecutor re-runs after a failed attempt */                      \
  X(kStatRetriesAttempted, retries_attempted)                             \
  /* retry loops that gave up (budget/attempts) */                        \
  X(kStatRetriesExhausted, retries_exhausted)                             \
  /* top-level begins shed by the admission gate */                       \
  X(kStatAdmissionRejected, admission_rejected)                           \
  /* Lock-word fast-lane counters, split by access mode so Snapshot()    \
     can fold them into lock_grants/reads/writes: a fast lane bumps      \
     exactly ONE counter (one atomic RMW is most of such a lane's        \
     budget), and the aggregate view stays identical to the mutex        \
     path's accounting. */                                               \
  /* cold/upgrade grants served by the lock word (no key mutex) */       \
  X(kStatFastReadGrants, fast_read_grants)                               \
  X(kStatFastWriteGrants, fast_write_grants)                             \
  /* repeat grants served by the seqlock/CAS held-lock lanes */          \
  X(kStatFastReadReacquires, fast_read_reacquires)                       \
  X(kStatFastWriteReacquires, fast_write_reacquires)                     \
  /* keys escalated from the lock word to the mutex regime */             \
  X(kStatLockWordInflations, lock_word_inflations)                        \
  /* quiesced keys handed back to the lock-word regime */                 \
  X(kStatLockWordDeflations, lock_word_deflations)                        \
  /* OCC per-access counters, split like the fast-lane counters so       \
     Snapshot() folds them into reads/writes: an optimistic access      \
     bumps exactly ONE counter and aggregate accounting stays           \
     identical to the locking paths'. NOTE for new OCC counters: these  \
     are bumped via EngineStats::Bump, whose stripe-owner protocol      \
     (first claimant keeps the ~1ns load+store pair; a second thread    \
     slot degrades the stripe permanently to fetch_add) is documented   \
     on Bump() below — any counter added here must tolerate that        \
     bounded one-transition loss window, i.e. be a monitoring counter,  \
     never a correctness-bearing one. */                                \
  X(kStatOccReads, occ_reads)                                            \
  X(kStatOccWrites, occ_writes)                                          \
  /* top-level OCC commits that passed validation */                     \
  X(kStatOccCommits, occ_commits)                                        \
  /* commits (or child merges) rejected by read-set validation */        \
  X(kStatOccValidationAborts, occ_validation_aborts)                     \
  /* WAL counters (core/wal.h). Monitoring-grade like everything here. */ \
  /* commit images appended to a log shard */                             \
  X(kStatWalAppends, wal_appends)                                         \
  /* bytes appended (record framing included) */                          \
  X(kStatWalBytes, wal_bytes)                                             \
  /* fsync/fdatasync calls issued by flush leaders */                     \
  X(kStatWalFsyncs, wal_fsyncs)                                           \
  /* non-empty groups cut by a flush leader (>=1 record each) */          \
  X(kStatGroupCommitBatches, group_commit_batches)                        \
  /* commit records replayed by Database::Recover */                      \
  X(kStatWalRecoveryReplayed, wal_recovery_replayed)                      \
  /* torn-tail bytes truncated by Database::Recover */                    \
  X(kStatWalRecoveryTruncated, wal_recovery_truncated)                    \
  /* checkpoints completed (snapshot installed + prefix truncated) */     \
  X(kStatWalCheckpoints, wal_checkpoints)                                 \
  /* keys written into checkpoint snapshots */                            \
  X(kStatWalCheckpointKeys, wal_checkpoint_keys)                          \
  /* log bytes dropped by checkpoint truncation/rotation */               \
  X(kStatWalCheckpointTruncated, wal_checkpoint_truncated)                \
  /* keys loaded from a snapshot by Database::Recover */                  \
  X(kStatWalSnapshotKeysLoaded, wal_snapshot_keys_loaded)

/// Counter identifiers (indices into a stripe).
enum StatCounter : int {
#define NESTEDTX_STAT_ENUM(id, field) id,
  NESTEDTX_STAT_COUNTERS(NESTEDTX_STAT_ENUM)
#undef NESTEDTX_STAT_ENUM
      kStatNumCounters,
};

/// The counter's snake_case field name ("txns_begun", ...).
const char* StatCounterName(StatCounter c);

/// An aggregate of every counter (plain values). NOT a coherent
/// point-in-time cut: stripes are summed with relaxed loads while
/// writers keep incrementing, so counters read at slightly different
/// instants and cross-counter invariants (e.g. begun == committed +
/// aborted) may be transiently off by in-flight operations. Exact only
/// in quiescence; treat live reads as monitoring-grade.
struct StatsSnapshot {
#define NESTEDTX_STAT_FIELD(id, field) uint64_t field = 0;
  NESTEDTX_STAT_COUNTERS(NESTEDTX_STAT_FIELD)
#undef NESTEDTX_STAT_FIELD

  /// The field addressed by its counter id (the iteration surface the
  /// completeness tests and the metrics exporters use).
  uint64_t Value(StatCounter c) const;

  std::string ToString() const;
};

class EngineStats {
 public:
  /// Bump `c` by `n` on the calling thread's stripe (relaxed; never
  /// contends with other threads' increments).
  void Add(StatCounter c, uint64_t n = 1) {
    stripes_[ThreadSlot() & (kStripes - 1)].c[c].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Bump `c` by one with a plain load+store on the stripe instead of an
  /// atomic RMW where that is provably lossless. An uncontended
  /// fetch_add still costs a full locked op (~7ns here) — most of a
  /// seqlock lane's budget — while a relaxed load+store is ~1ns. The
  /// load+store pair is only exact with a single writer, so each stripe
  /// tracks its owning thread slot: the first Bump claims the stripe,
  /// the sole claimant keeps the cheap pair, and the moment a second
  /// slot arrives the stripe degrades permanently to fetch_add for
  /// every writer.
  ///
  /// Counter contract (this is the documented fix for the old
  /// unconditional load+store, which under stripe sharing both dropped
  /// increments continuously AND could publish a stale value over
  /// another thread's later increments — a non-monotone regression in
  /// exported Prometheus counters): a stripe degrades at most ONCE in
  /// its lifetime, and only the owner's single in-flight load+store
  /// pair can overlap that transition. Total error is therefore bounded
  /// by the increments landing inside one such pair per stripe — after
  /// the transition every write is an atomic RMW, so counters are exact
  /// and monotone from then on. Single-threaded runs (and any run where
  /// no two thread slots collide mod kStripes) never degrade and stay
  /// exact throughout. observability_test proves both properties under
  /// TSan.
  void Bump(StatCounter c) {
    const uint32_t slot = ThreadSlot();
    Stripe& s = stripes_[slot & (kStripes - 1)];
    uint32_t owner = s.owner.load(std::memory_order_relaxed);
    if (owner != slot) {
      if (owner == kStripeUnowned &&
          s.owner.compare_exchange_strong(owner, slot,
                                          std::memory_order_relaxed)) {
        // Claimed: fall through to the single-writer pair.
      } else {
        // Second writer (or already shared): degrade the stripe for
        // good and take the exact path.
        if (owner != kStripeShared) {
          s.owner.store(kStripeShared, std::memory_order_relaxed);
        }
        s.c[c].fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    std::atomic<uint64_t>& cell = s.c[c];
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  /// Bump two counters by one with a single stripe lookup (the common
  /// grant+read / grant+write pairing on the access path).
  void Add2(StatCounter a, StatCounter b) {
    Stripe& s = stripes_[ThreadSlot() & (kStripes - 1)];
    s.c[a].fetch_add(1, std::memory_order_relaxed);
    s.c[b].fetch_add(1, std::memory_order_relaxed);
  }

  /// Aggregate all stripes, then fold the mode-split fast-lane counters
  /// into lock_grants/reads/writes (see the X-list comment): consumers
  /// see the same totals whichever lane served an access.
  StatsSnapshot Snapshot() const;

  std::string ToString() const { return Snapshot().ToString(); }

  void Reset();

 private:
  static constexpr size_t kStripes = 8;  // power of two

  /// Stripe ownership states for Bump's single-writer fast pair. A
  /// stripe moves kStripeUnowned -> (claiming slot) -> kStripeShared,
  /// monotonically: once shared, never cheap again.
  static constexpr uint32_t kStripeUnowned = ~0u;
  static constexpr uint32_t kStripeShared = ~0u - 1;

  struct alignas(64) Stripe {
    std::atomic<uint64_t> c[kStatNumCounters]{};
    std::atomic<uint32_t> owner{kStripeUnowned};
  };

  // Process-wide monotone thread slot; a thread keeps its slot for life,
  // so its increments always land on the same stripe.
  static uint32_t ThreadSlot();

  Stripe stripes_[kStripes];
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_STATS_H_
