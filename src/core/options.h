// Engine configuration (RocksDB-style Options struct).
#ifndef NESTEDTX_CORE_OPTIONS_H_
#define NESTEDTX_CORE_OPTIONS_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace nestedtx {

/// How the WAL flusher makes a group durable (see core/wal.h).
enum class WalFsyncMode {
  /// write() only — OS crash loses the page cache; process crash does not.
  /// The cheapest mode and the right one when the threat model is the
  /// process (kill -9), not the machine.
  kNone,
  /// fdatasync(): data blocks forced to media, file metadata (mtime)
  /// allowed to lag. The usual database choice.
  kFdatasync,
  /// fsync(): data and metadata both forced. The conservative bound.
  kFsync,
};

const char* WalFsyncModeName(WalFsyncMode mode);

/// Concurrency-control mode. kMossRW is the paper's algorithm; the others
/// are the baselines the paper itself names (see DESIGN.md).
enum class CcMode {
  /// Moss nested read/write locking (§5.1): read locks shared, write locks
  /// exclusive, conflicts judged against ancestors, locks inherited by the
  /// parent on commit, discarded on abort.
  kMossRW,
  /// Exclusive nested locking ([LM]): every access takes a write lock.
  /// Exactly what Moss's algorithm degenerates to with no read accesses.
  kExclusive,
  /// Flat two-phase locking: locks are taken directly in the name of the
  /// top-level transaction; subtransaction structure is ignored, so a
  /// subtransaction abort dooms the whole transaction (System R without
  /// savepoints — the motivation contrast in the paper's introduction).
  kFlat2PL,
  /// Serial execution: one top-level transaction at a time (the serial
  /// scheduler's discipline; the correctness yardstick and the
  /// lower-bound baseline).
  kSerial,
};

const char* CcModeName(CcMode mode);

/// How lock conflicts are scheduled — the pluggable CC-protocol seam.
/// The paper's Theorem 34 is protocol-agnostic at the trace level: any
/// discipline whose grants respect Moss's compatibility rule yields a
/// serially correct schedule, so the engine is free to swap the conflict
/// scheduler underneath and re-certify on recorded traces. The protocols
/// differ only in WHAT HAPPENS to a conflicting requester (wait, wait
/// conditionally, or die); the grant rule itself never changes.
enum class CcProtocol {
  /// Deadlock detection (the default, and the engine's historical
  /// behaviour): conflicting requesters wait; a wait-for graph detects
  /// cycles, and the requester whose registration would close one dies
  /// with Status::Deadlock (in a nested world only that subtree
  /// retries). The wait graph and detector are private to this protocol.
  kDetect,
  /// Wait-die prevention: an OLDER requester waits, a YOUNGER one dies
  /// immediately with Status::Deadlock (retried under a fresh, younger
  /// timestamp). Age is the packed TransactionId's lexicographic order —
  /// path[0] is the top-level begin ordinal, so cross-tree age is begin
  /// order and a parent is older than its descendants. Waits then only
  /// ever run young→old, which is acyclic: no deadlock can form and no
  /// detector is needed.
  kWaitDie,
  /// No-wait prevention: any conflict is an immediate Status::Deadlock
  /// back to the retry layer. Nothing ever blocks on a lock, so there is
  /// nothing to detect; throughput is bought with retry churn.
  kNoWait,
  /// Silo-style optimistic concurrency control: transactions run without
  /// acquiring any locks, buffering a private read set (key -> observed
  /// lock-word seq) and write set, and commit via a three-step protocol —
  /// lock the write set in sorted key order through the one-word CAS
  /// lane, validate every read-set word is unchanged (an inflated or
  /// changed word means conflict -> retryable Status::Aborted, counted
  /// under occ_validation_aborts), then install writes and bump seqs.
  /// Nested semantics mirror the paper's lock inheritance: a committing
  /// subtransaction merges its read/write sets into its parent (partial
  /// abort discards only the child's sets); only top-level commit
  /// validates against the shared store. Requires lock_word_enabled.
  kOcc,
};

const char* CcProtocolName(CcProtocol protocol);

struct EngineOptions {
  CcMode cc_mode = CcMode::kMossRW;
  /// Conflict-scheduling protocol (see CcProtocol).
  CcProtocol cc_protocol = CcProtocol::kDetect;
  /// Upper bound on any single lock wait: the safety net under every
  /// protocol (a wait that outlives it fails with Status::TimedOut).
  std::chrono::milliseconds lock_timeout{2000};
  /// Number of lock-table shards (power of two; 0 is treated as 1).
  size_t lock_table_shards = 64;
  /// Admission control on gated top-level execution (Database::
  /// RunTransaction and RetryExecutor::Run — raw Begin() is never gated):
  /// at most this many top-level transactions are admitted concurrently;
  /// 0 disables the gate. A retrying transaction keeps its slot across
  /// attempts, so retry storms re-run admitted work instead of piling new
  /// arrivals onto an already saturated engine.
  uint32_t admission_max_inflight = 0;
  /// Arrivals allowed to queue at a full gate; beyond this, new arrivals
  /// are shed immediately with Status::Overloaded (load-shedding keeps
  /// the queue — and tail latency — bounded when the engine is saturated).
  uint32_t admission_max_queued = 0;
  /// Master switch for the observability layer's latency histograms and
  /// per-key contention profiling. When false the instrumentation costs
  /// one predictable branch per choke point (no clock reads, no
  /// recording); when true, each lock wait, release batch, retry backoff
  /// and top-level transaction records into a striped log2 histogram
  /// (see core/metrics.h). Always-on by design, like EngineStats.
  bool metrics_enabled = true;
  /// Per-transaction span sampling: every N-th transaction (top-level or
  /// nested) gets a TxnSpan record in the bounded span ring. 0 disables
  /// span collection entirely; 1 samples every transaction. Sampling
  /// bounds both the per-txn stamping cost and the ring's churn.
  uint32_t span_sample_one_in = 0;
  /// Capacity of the span ring (bounded memory: older spans are
  /// overwritten once the ring wraps; SpanLog::total_recorded() minus
  /// the ring size tells an exporter how many were dropped).
  uint32_t span_ring_capacity = 1024;
  /// How many hot keys (by cumulative wait-ns) the contention profiler
  /// reports from ExportText()/ExportJson().
  uint32_t hot_key_top_k = 10;
  /// Per-key atomic lock word (see DESIGN.md §5): uncontended grants,
  /// read-read sharing and same-holder repeat accesses resolve with one
  /// CAS (or one load) instead of the key mutex, escalating to the mutex
  /// regime on conflict and deflating back when the key quiesces. When
  /// false every key is born escalated — the pre-lock-word mutex-only
  /// behavior, kept as an A/B ablation baseline. Tracing disables the
  /// fast lanes at runtime regardless of this flag (trace emission
  /// requires the mutex-ordered grant path).
  bool lock_word_enabled = true;
  /// --- Durability (write-ahead log; see core/wal.h, DESIGN.md §5) ---
  /// Master switch. When false (the default) no WAL is constructed and
  /// the commit path pays one predictable branch per write; when true,
  /// every top-level commit appends its merged write image to a per-shard
  /// append-only log before its locks are released, and returns only
  /// after the record is flushed per `wal_fsync_mode`.
  bool wal_enabled = false;
  /// Directory for the shard files (`wal-<shard>.log`), created if
  /// missing. An empty string with wal_enabled=true disables the WAL
  /// (normalized at engine construction, like the lock-word knob).
  std::string wal_dir;
  /// Number of log shards. Committers hash to a shard by top-level begin
  /// ordinal; more shards mean more fsync streams but less append
  /// contention.
  uint32_t wal_shards = 4;
  /// Group-commit window: a flush leader waits up to this long for
  /// in-flight committers (appended, still releasing locks) to join the
  /// group before it cuts the batch. 0 flushes immediately — every
  /// durable commit then pays its own fsync unless one was already in
  /// flight. The window is an upper bound: the leader cuts early the
  /// moment no committer is between append and release.
  uint32_t wal_group_commit_us = 200;
  /// How the flusher makes a cut group durable (see WalFsyncMode).
  WalFsyncMode wal_fsync_mode = WalFsyncMode::kFdatasync;
  /// Automatic checkpointing: when > 0, a flush leader that has appended
  /// this many log bytes since the last checkpoint kicks the engine's
  /// background checkpoint thread, which snapshots the base store and
  /// truncates the log prefix the snapshot covers (see core/wal.h and
  /// DESIGN.md §6). 0 (the default) means checkpoints happen only when
  /// Database::Checkpoint() is called explicitly.
  uint64_t wal_checkpoint_every_bytes = 0;
  /// Adaptive group commit: the flush leader derives its hold time from
  /// an EWMA of observed fsync latency instead of always sleeping the
  /// full window — a fast device stops over-holding groups, a slow one
  /// still amortizes. `wal_group_commit_us` stays the hard upper bound.
  bool wal_adaptive_group_commit = false;
  /// Recovery parallelism: number of threads scanning shard files
  /// (CRC + decode) during Recover, capped at the shard count. 0 means
  /// one thread per shard up to the hardware concurrency. Replay itself
  /// stays a single seq-ordered merge pass regardless.
  uint32_t wal_recovery_threads = 0;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_OPTIONS_H_
