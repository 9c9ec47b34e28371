// Write-ahead log with per-shard files and leader-based group commit.
//
// The paper's commit structure dictates the log format: subtransaction
// outcomes fold into the parent (lock inheritance in the locking family,
// buffer merges under OCC), so only TOP-LEVEL commit is externally
// meaningful — and therefore only top-level commit images are logged.
// One record per durable top-level commit, carrying the transaction's
// merged write image (puts and deletes); aborted subtrees never reach
// the log at all.
//
// Ordering invariant (what makes replay correct): a committer appends
// its image while it still holds every write lock it is about to
// release (the locking family appends before ReleaseBatch touches the
// holder sets; OCC appends between validation and install, write-set
// words still locked). A later writer of any key K can only acquire K
// after this commit releases it, hence appends strictly after it — so
// ascending record sequence number IS per-key commit order, and
// last-writer-wins replay reconstructs exactly the committed store.
//
// Group commit needs no window and no flusher thread. Append() runs
// before the two-phase ReleaseBatch, WaitDurable() after it. A waiter
// whose record is not yet durable and that finds no flush in flight on
// its shard becomes the flush leader and writes at once; records
// appended while that write+sync is in flight are cut as one group by
// the next leader, so the write itself is the batching window. A waiter
// that finds a flush in flight spins briefly on the shard's atomic
// `flushed_seq`/`flushing` mirror before it parks on the condition
// variable: in `none` mode a flush is one microsecond-long write(),
// while a condition-variable round trip costs tens of microseconds.
// When the flush-latency EWMA exceeds the spin bound (the fsync modes)
// it parks at once.
//
// Cross-shard consistent cut (what makes an ack safe with >1 shard): a
// commit's effects install before WaitDurable, so a later commit on
// ANOTHER shard may have read them and must not become durable first —
// or a crash would replay the dependent commit without its dependency.
// WaitDurable(S) therefore returns OK only when EVERY shard is durable
// through S (Silo-style epoch durability with seq as the epoch). Each
// shard publishes `pending_floor`, the lowest seq buffered or in flight
// on it (0 = nothing pending), written only under its mutex. An append
// to an idle shard first stores a lower bound for its seq (`next_seq_`
// + 1), then takes its seq with the `fetch_add`, then stores the exact
// seq once the record is buffered; a completed flush stores the floor of
// what was buffered behind its group; a broken shard pins its lost
// floor (1 when unknown) and never clears it. The announce store, the
// seq `fetch_add` and the waiter's loads are seq_cst, which makes the
// check one load per shard: take any record s < S on shard X. Its
// `fetch_add` precedes S's in `next_seq_`'s modification order, its
// announce (or the earlier append that made X non-idle) precedes its
// `fetch_add`, and S's `fetch_add` happens before the waiter's load, so
// the load reads X's floor from that announce or from a later store.
// Every such value is <= s until a flush that wrote s stores a floor
// above it, so a load of 0 or of a floor above S proves every record
// <= S on X is durable. Otherwise the waiter spins briefly (X's own
// committer is usually mid-flush) and only then takes X's mutex, where
// it rides X's flush or flushes X itself; a broken X whose lost floor
// is <= S reports kDurabilityLost there. The acked prefix of the seq
// order is then always transaction-consistent.
//
// Crash model: a shard whose flush fails goes sticky-broken. Appends to
// it return Status::IoError — a clean abort before install, retryable.
// WaitDurable returns Status::kDurabilityLost for any commit whose seq
// is at or above the broken shard's lost floor (the lowest seq the
// failed flush dropped): those effects are installed in memory but can
// never be part of a durable consistent cut, and the caller must NOT
// retry (the work is already applied). Recovery scans each shard file,
// verifies CRC framing, truncates the first torn record and everything
// after it (a crashed process can only tear the tail — records are
// buffered whole and the buffer is written in order), then replays only
// the contiguous global-seq prefix: a gap in the merged seq sequence
// marks a group that was lost in a crash, and every record above the
// gap — on any shard — is dropped and physically truncated (it may
// depend on the lost commit). Appending then resumes above the cut.
//
// Checkpointing (what bounds the log): Checkpoint() captures the base
// store as of a durable cut C. Before the scan it captures the replay
// floor F0 = min(next seq, lowest unreleased seq - 1), reading each
// shard's unreleased set under its mutex. Every record <= F0 finished
// installing before the scan started (a released commit has installed;
// Preload installs before it appends). The scan is fuzzy — it walks the
// key shards while commits keep installing — and C is read AFTER the
// scan finishes, so the scan can never contain the effect of a record
// with seq > C (installs happen strictly after seq assignment). Per-key
// commit order is seq order, so for each key the scan holds the effect
// of the last record <= F0 or of a later record <= C. The fix-up
// therefore replays only the log suffix (F0, C], in seq order, onto the
// scanned image: a key written in that range ends at its last write <=
// C, and any other key was already right. The fix-up reads shard files
// with the shard mutex dropped: under the mutex it only waits out a
// flush and records the file size, below which the file is append-only
// (checkpoint serialization excludes rotation); it CRC-checks every
// frame but decodes only records in (F0, C]. Truncation never drops a
// record a later fix-up needs: the truncation floor F is min(C,
// lowest-unreleased-seq - 1), read after C, so the next checkpoint's F0
// is >= F. The snapshot then goes to disk CRC-framed (tmp + fsync +
// rename), a two-generation `CHECKPOINT` manifest is installed
// atomically, and each shard's log drops its prefix <= F by rotation:
// the bulk, from the first record above F up to the recorded size, is
// copied (and synced, in the fsync modes) with the mutex dropped; only
// the bytes appended since are copied under it, before the rename and
// the reopen. Every crash point in that ordering recovers: before the
// manifest rename the old manifest still governs; after it the new
// snapshot is fsynced; the log prefix only shrinks after both.
//
// Recovery with a snapshot: load the newest manifest generation (CRC
// failure falls back to the previous one), apply the snapshot, then
// replay only records with seq > C0. Shard files are read through the
// same bounded walk the checkpoint fix-up uses, one scanner thread per
// shard up to the hardware threads (CRC + decode dominate): records <=
// C0 are CRC- and order-checked but not decoded, the rest feed a k-way
// seq merge. A gap at or below a manifest cut means the log
// prefix was truncated against a snapshot we failed to read; that is
// unrecoverable corruption and Recover refuses with IoError rather
// than silently dropping acked commits.
//
// File formats, little-endian. Per shard (`wal-<shard>.log`):
//
//   +--------- 8 bytes ---------+
//   | magic "NTXWAL01"          |   once, at offset 0
//   +---------------------------+
//   | u32 payload_len           |-+ record, repeated
//   | u32 crc32(payload)        | |
//   | payload:                  | |
//   |   u64 seq                 | |  global commit sequence number
//   |   u32 nwrites             | |
//   |   nwrites x {             | |
//   |     u32 klen, key bytes   | |
//   |     u8  has_value         | |  0 = delete (tombstone)
//   |     i64 value (if 1)      | |
//   |   }                       |-+
//   +---------------------------+
//
// Snapshot (`ckpt-<C>.snap`): magic "NTXCKPT1", then CRC frames with
// the same [u32 len][u32 crc][payload] framing: a header frame
// {u64 cut, u64 nkeys}, entry frames {u32 count, count x {u32 klen,
// key bytes, i64 value}}, and a footer frame {u64 footer_magic} whose
// presence (plus the entry count matching nkeys) proves the file is
// complete. Manifest (`CHECKPOINT`): magic "NTXMAN01" and one frame
// {u32 ngen, ngen x {u64 cut, u32 namelen, name}}, newest generation
// first, installed by tmp + fsync + rename.
#ifndef NESTEDTX_CORE_WAL_H_
#define NESTEDTX_CORE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/options.h"
#include "core/stats.h"
#include "util/status.h"

namespace nestedtx {

/// CRC32 of every log, snapshot and manifest frame: the reflected
/// 0xEDB88320 polynomial (zlib's), computed eight bytes at a time.
uint32_t WalCrc32(const char* data, size_t n);

/// One entry of a commit image: a put (value set) or a delete (nullopt
/// tombstone). A transaction's image is a vector of these sorted by key,
/// the form both AppendImage and LockManager::OccCommit take.
struct WalWrite {
  std::string key;
  std::optional<int64_t> value;
};

/// Handle a committer holds between Append and WaitDurable. seq == 0
/// means "nothing appended" (read-only commit, or WAL disabled) and
/// WaitDurable returns OK immediately.
struct WalTicket {
  uint32_t shard = 0;
  uint64_t seq = 0;
};

class WriteAheadLog {
 public:
  /// Opens (creating if needed) `wal_shards` shard files under
  /// `options.wal_dir`. An open failure is sticky: every subsequent
  /// Append/Recover returns it. `stats` / `metrics` may be null (tests).
  WriteAheadLog(const EngineOptions& options, EngineStats* stats,
                MetricsRegistry* metrics);
  /// Flushes every shard (best effort) and closes the files, so a clean
  /// shutdown loses nothing even in kNone fsync mode.
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// The sticky open status (OK when the shard files are usable).
  Status OpenStatus() const;

  /// Append one top-level commit image. `shard_hint` (the top-level
  /// begin ordinal) picks the shard; `writes` may be in any order. Must
  /// be called while the commit still holds its write locks (see the
  /// ordering invariant above). With `release_follows` the committer
  /// promises a NoteCommitReleased(ticket) will follow once its install
  /// and release fan-out finish; checkpoints never truncate such a
  /// record before then. Returns the ticket to later WaitDurable on,
  /// IoError when the shard is broken, or InvalidArgument when the
  /// record would exceed the length recovery reads back — in both cases
  /// nothing was installed and the caller can abort cleanly.
  Result<WalTicket> AppendImage(uint64_t shard_hint,
                                const std::vector<WalWrite>& writes,
                                bool release_follows = true);

  /// Block until the ticket's record — and, with multiple shards, every
  /// record with a smaller seq on ANY shard — is durable per the fsync
  /// mode (the cross-shard consistent cut above). A waiter that finds no
  /// flush in flight leads one at once; everyone else rides it or joins
  /// the next group. Another shard costs one load of its pending floor when
  /// nothing <= the ticket's seq is pending there, and its mutex only
  /// when something still is after a brief spin. Returns
  /// kDurabilityLost (never plain IoError) when a broken shard makes the
  /// cut unreachable: the caller's effects are installed but must not be
  /// retried.
  Status WaitDurable(const WalTicket& ticket);

  /// The committer that appended `ticket` has now installed its effects
  /// and finished releasing its locks: a checkpoint may truncate its
  /// record once durable. Never blocks. Call exactly once per appended
  /// ticket with release_follows (tickets with seq == 0 are ignored).
  void NoteCommitReleased(const WalTicket& ticket);

  /// Flush every shard's buffered records now (clean-shutdown path; also
  /// what tests call to make assertions about file contents).
  Status FlushAll();

  /// A full scan of the committed base store: the engine calls
  /// `emit(key, value)` once per present key. The scan may be fuzzy
  /// with respect to concurrent commits — Checkpoint repairs the
  /// difference from the log itself (see the checkpoint notes above).
  using BaseScan = std::function<void(
      const std::function<void(const std::string&, int64_t)>& emit)>;

  /// What a completed checkpoint did (for tests and the bench).
  struct CheckpointInfo {
    uint64_t cut = 0;              // C: the snapshot covers seqs <= C
    uint64_t snapshot_keys = 0;    // keys written into the snapshot
    uint64_t truncated_bytes = 0;  // log bytes dropped by rotation
    uint64_t fixup_replayed = 0;   // log records replayed onto the scan
    bool skipped = false;          // nothing new since the last one
  };

  /// Write a snapshot of the base store (obtained through `scan`) as of
  /// a durable cut C, install it in the `CHECKPOINT` manifest (keeping
  /// the previous generation as a fallback), and rotate every shard's
  /// log to drop the prefix the snapshot covers. Runs concurrently with
  /// commits; serialized against itself. On any failure the log is left
  /// whole and the previous manifest still governs — a failed
  /// checkpoint never costs durability. DurabilityLost if a broken
  /// shard makes the cut unreachable.
  Status Checkpoint(const BaseScan& scan, CheckpointInfo* info = nullptr);

  /// Install the automatic-checkpoint kick: when
  /// `wal_checkpoint_every_bytes` > 0 and a flush leader observes that
  /// many bytes appended since the last checkpoint, it calls `trigger`
  /// (which must not block — typically it nudges a background thread
  /// that calls Checkpoint). Set once at engine construction, before
  /// any append.
  void SetCheckpointTrigger(std::function<void()> trigger);

  /// What Recover loaded and replayed (for tests and the bench).
  struct RecoveryInfo {
    uint64_t snapshot_cut = 0;   // C0 of the snapshot used (0 = none)
    uint64_t snapshot_keys = 0;  // keys applied from the snapshot
    uint64_t replayed = 0;       // log records applied (seq > C0)
    uint64_t cut = 0;            // final durable cut
  };

  /// Rebuild the durable consistent cut: load the newest valid snapshot
  /// (falling back one generation on CRC failure), apply it, then scan
  /// all shard files with per-shard threads, truncate torn tails, drop
  /// (and truncate) every record above the first gap in the merged
  /// global seq sequence — see the cross-shard cut above — and call
  /// `apply(key, value)` for each write of each surviving record with
  /// seq > snapshot cut, in ascending seq order (nullopt = delete).
  /// Requires a fresh log — no appends issued yet. Idempotent:
  /// replaying the same log twice converges to the same store
  /// (last-writer-wins). On return the log appends after the cut.
  /// IoError if no snapshot generation is readable while the log prefix
  /// is already truncated (see the header notes): that state cannot be
  /// reconstructed and must not be silently dropped.
  Status Recover(
      const std::function<void(const std::string& key,
                               std::optional<int64_t> value)>& apply,
      RecoveryInfo* info = nullptr);

  /// Number of shards (for tests and the bench).
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Test hook: force `shard` into the sticky-broken state with the
  /// given lost floor (0 = "broke before recording any lost seq") so
  /// the poisoning rules can be pinned without racing a real IO error.
  void BreakShardForTest(uint32_t shard, uint64_t lost_floor, Status why);

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    int fd = -1;
    std::string path;
    std::string buffer;            // encoded records awaiting flush
    uint64_t buffered_seq = 0;     // highest seq in buffer (or flushed)
    uint64_t buffer_min_seq = 0;   // lowest seq in buffer (0 = empty)
    bool broken = false;           // sticky after any write/sync failure
    Status broken_status;
    /// Seqs appended with release_follows whose NoteCommitReleased has
    /// not arrived yet: their installs may still be in flight, so a
    /// checkpoint must not truncate them (the fix-up pass needs them).
    std::vector<uint64_t> unreleased;
    // Written only under `mu`, read without it by waiters. On their own
    // cache line so those loads do not bounce the line holding `mu`.
    /// Lowest seq buffered or in flight here (0 = nothing pending). A
    /// broken shard holds its lost floor — the lowest seq the failed
    /// flush dropped, 1 when unknown — forever. See "Cross-shard
    /// consistent cut" above for the store protocol.
    alignas(64) std::atomic<uint64_t> pending_floor{0};
    std::atomic<uint64_t> flushed_seq{0};  // highest seq durable on disk
    std::atomic<bool> flushing{false};  // a leader is cutting/writing
  };

  /// One manifest generation: a snapshot file and the cut it covers.
  struct ManifestEntry {
    uint64_t cut = 0;
    std::string file;
  };

  Result<WalTicket> AppendRecord(uint64_t shard_hint,
                                 const std::string& body,
                                 bool release_follows);
  /// Cut and write the shard's buffered group. Called with `lk` held and
  /// sh.flushing set by the caller; drops the lock for the IO itself.
  Status FlushLocked(Shard& sh, std::unique_lock<std::mutex>& lk);
  /// Lead one flush of `sh`: set `flushing`, FlushLocked, clear it and
  /// wake the riders. Called with `lk` held and no flush in flight. A
  /// failure is also left in the shard's broken state.
  Status LeadFlushLocked(Shard& sh, std::unique_lock<std::mutex>& lk);
  /// Locked fallback of the cross-shard cut: block until every record
  /// of `sh` with seq <= bound is durable, flushing the shard ourselves
  /// if no leader is on it. kDurabilityLost if the shard broke losing
  /// one.
  Status EnsureShardDurableThrough(Shard& sh, uint64_t bound);
  /// Mark `sh` sticky-broken with `lost_floor` (0 = unknown, stored as
  /// 1 so every ack that depends on the shard poisons). Caller holds
  /// sh.mu.
  static void BreakLocked(Shard& sh, uint64_t lost_floor, Status why);
  /// True when the flush-latency EWMA says a flush fits in `spin_ns`, so
  /// a waiter may spin that long before parking.
  bool FlushFitsSpin(uint64_t spin_ns) const;
  /// The unlocked write+sync of one cut group (failpoint injection,
  /// chunked writes, fsync mode, stats/metrics).
  Status WriteAndSync(Shard& sh, const std::string& group);
  /// Write `data` to `path` atomically: tmp file, full write, fsync
  /// (unless kNone), rename over `path`, directory fsync. With
  /// `inject_short_write` the kWalCheckpoint torn-snapshot failpoint
  /// may cut the write short (the torn file stays at the tmp name).
  Status WriteFileAtomic(const std::string& path, const std::string& data,
                         bool inject_short_write);
  /// Parse the `CHECKPOINT` manifest into manifest_ (missing file is an
  /// empty manifest, not an error). Caller holds checkpoint_mutex_.
  Status LoadManifestLocked();
  /// Write manifest_ back out atomically. Caller holds checkpoint_mutex_.
  Status StoreManifestLocked();
  /// Load snapshot `entry` and call `apply` per key; validates magic,
  /// framing, CRC, entry count and footer.
  Status LoadSnapshot(const ManifestEntry& entry,
                      const std::function<void(const std::string&,
                                               std::optional<int64_t>)>& apply,
                      uint64_t* keys_loaded);
  /// Rewrite `sh`'s file without its bytes before `keep_from`: the bulk
  /// up to `size` (recorded under sh.mu by the fix-up walk) is copied
  /// with the mutex dropped, the bytes appended since under it, before
  /// the rename and the reopen. A broken shard is left whole. Caller
  /// holds checkpoint_mutex_, which keeps the file append-only below
  /// `size`.
  Status RotateShard(Shard& sh, size_t keep_from, size_t size,
                     uint64_t* dropped_bytes);

  EngineOptions options_;
  EngineStats* stats_;
  MetricsRegistry* metrics_;
  Status open_status_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global commit sequence; assigned under the shard mutex so each
  /// shard file is internally seq-ascending (tail truncation then never
  /// drops a record that a surviving later record depends on), with a
  /// seq_cst fetch_add (the cross-shard cut's ordering argument).
  std::atomic<uint64_t> next_seq_{0};
  /// Set by the first append; Recover requires it clear.
  std::atomic<bool> appended_{false};
  /// EWMA of observed flush latency (ns), fed by WriteAndSync; waiters
  /// decide from it whether to spin or park.
  std::atomic<uint64_t> fsync_ewma_ns_{0};
  /// Log bytes appended since the last completed checkpoint — the
  /// automatic-trigger odometer.
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  /// True while a Checkpoint() runs (keeps the trigger from re-kicking).
  std::atomic<bool> checkpoint_running_{false};
  /// Non-blocking kick installed by SetCheckpointTrigger (never changes
  /// after the first append).
  std::function<void()> checkpoint_trigger_;
  /// Serializes Checkpoint() and Recover() bodies (so the files a
  /// checkpoint reads unlocked neither rotate nor shrink under it) and
  /// guards the manifest state.
  std::mutex checkpoint_mutex_;
  bool manifest_loaded_ = false;
  /// A manifest file existed but failed validation: Recover refuses
  /// (the log prefix may be truncated against snapshots we cannot
  /// name); Checkpoint rebuilds the manifest from scratch (its new
  /// snapshot is self-contained).
  bool manifest_corrupt_ = false;
  /// Manifest generations, newest first (at most two are kept).
  std::vector<ManifestEntry> manifest_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_WAL_H_
