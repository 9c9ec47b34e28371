// Observability layer: latency histograms, the span log, the contention
// profiler's export types, and the registry that ties them to one export
// surface.
//
// Design constraints, in order:
//   1. The hot path pays nothing it can avoid. Recording is a striped
//      relaxed fetch_add trio (count, sum, one log2 bucket) on a
//      cache-line-aligned per-thread-slot stripe — the same discipline as
//      EngineStats — and every choke point guards its clock reads behind
//      one `enabled()` branch, so compiled-in-but-disabled costs a
//      predicted branch.
//   2. Reads never block writers. Snapshot() sums stripes with relaxed
//      loads while recording continues; like StatsSnapshot, a snapshot is
//      monitoring-grade (exact only in quiescence).
//   3. Bounded memory. Histograms are fixed arrays; spans live in a
//      fixed ring (core/span.h); the hot-key table is derived from the
//      lock table itself (two uint64 per key, scanned only on export).
//
// Buckets are log2: bucket b holds values v with bit_width(v) == b, i.e.
// bucket 0 = {0}, bucket b = [2^(b-1), 2^b - 1]. Nanosecond latencies up
// to ~584 years fit in the 65 buckets.
#ifndef NESTEDTX_CORE_METRICS_H_
#define NESTEDTX_CORE_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/span.h"
#include "core/stats.h"

namespace nestedtx {

/// Nanoseconds on the process-wide monotonic clock (arbitrary epoch;
/// only differences and ordering are meaningful).
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The engine's latency histograms (one per choke point). Mirrors the
/// StatCounter X-macro discipline: the enum, name lookup and every
/// export surface derive from this list.
#define NESTEDTX_HISTOGRAMS(X)                                         \
  /* WaitForGrant entry..exit, recorded only when the wait parked */   \
  X(kHistLockWaitNs, lock_wait_ns)                                     \
  /* OnCommit release-batch duration (lock inherit / base install) */  \
  X(kHistCommitReleaseNs, commit_release_ns)                           \
  /* OnAbort release-batch duration (version purge) */                 \
  X(kHistAbortReleaseNs, abort_release_ns)                             \
  /* RetryExecutor backoff sleeps (actual, not planned) */             \
  X(kHistRetryBackoffNs, retry_backoff_ns)                             \
  /* top-level transaction begin..outcome, commits and aborts alike */ \
  X(kHistTxnNs, txn_ns)                                                \
  /* WAL flush leader: write+sync of one cut group (core/wal.h) */     \
  X(kHistWalFsyncNs, wal_fsync_ns)

enum HistogramId : int {
#define NESTEDTX_HIST_ENUM(id, name) id,
  NESTEDTX_HISTOGRAMS(NESTEDTX_HIST_ENUM)
#undef NESTEDTX_HIST_ENUM
      kHistNumHistograms,
};

/// The histogram's canonical name ("lock_wait_ns", ...).
const char* HistogramName(HistogramId h);

/// Point-in-time aggregate of one histogram (plain values).
struct HistogramSnapshot {
  static constexpr int kNumBuckets = 65;  // bit_width(uint64) + 1

  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t buckets[kNumBuckets] = {};

  /// Inclusive upper edge of bucket `b` (0, 1, 3, 7, ..., 2^63-1, max).
  static uint64_t BucketUpperBound(int b);

  /// Conservative quantile estimate: the upper edge of the bucket
  /// containing the q-th ordered sample (q in [0, 1]). 0 when empty.
  uint64_t Percentile(double q) const;

  /// Upper edge of the highest occupied bucket (0 when empty).
  uint64_t ApproxMaxNs() const;

  double MeanNs() const { return count == 0 ? 0.0 : double(sum_ns) / double(count); }
};

/// Striped lock-free log2 latency histogram. Record() is wait-free and
/// contention-free across threads; Snapshot() aggregates with relaxed
/// loads and never blocks a recorder.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    Stripe& s = stripes_[ThreadSlot() & (kStripes - 1)];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(ns, std::memory_order_relaxed);
    s.buckets[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket holding value `ns` (bit_width; bucket 0 = {0}).
  static int BucketIndex(uint64_t ns) {
    return ns == 0 ? 0 : std::bit_width(ns);
  }

 private:
  static constexpr size_t kStripes = 8;  // power of two

  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[HistogramSnapshot::kNumBuckets]{};
  };

  Stripe stripes_[kStripes];
};

/// One entry of the contention profiler's hot-key table: a key ranked by
/// cumulative lock-wait time (the lock manager maintains the per-key
/// counters on its wait path and derives the table on export).
struct HotKey {
  std::string key;
  uint64_t waits = 0;    // lock waits that parked on this key
  uint64_t wait_ns = 0;  // cumulative parked time
};

/// Per-thread lock-wait accounting, written by LockManager::WaitForGrant
/// and read as before/after deltas by the span-carrying Transaction on
/// the same thread (waits are synchronous, so the deltas are exact).
/// Monotone accumulators — never reset.
struct ThreadWaitCounters {
  uint64_t ns = 0;
  uint64_t count = 0;
};
ThreadWaitCounters& ThreadWaitAccounting();

/// Owns the histograms and the span log; formats the export surfaces.
/// One per TransactionManager, wired into the LockManager, Transaction
/// and RetryExecutor choke points. The stats snapshot and hot-key table
/// are passed in at export time (they live with EngineStats and the
/// lock table respectively).
class MetricsRegistry {
 public:
  /// Hot keys (by cumulative wait-ns) the exports report.
  static constexpr uint32_t kHotKeyTopK = 10;
  /// Span ring capacity: older spans are overwritten once the ring
  /// wraps; SpanLog::total_recorded() minus the ring size tells an
  /// exporter how many were dropped.
  static constexpr uint32_t kSpanRingCapacity = 1024;

  explicit MetricsRegistry(const EngineOptions& options)
      : enabled_(options.metrics_enabled),
        spans_(options.metrics_enabled ? options.span_sample_one_in : 0,
               kSpanRingCapacity) {}

  bool enabled() const { return enabled_; }

  void Record(HistogramId h, uint64_t ns) {
    if (enabled_) histograms_[h].Record(ns);
  }

  HistogramSnapshot SnapshotHistogram(HistogramId h) const {
    return histograms_[h].Snapshot();
  }

  SpanLog& spans() { return spans_; }
  const SpanLog& spans() const { return spans_; }

  /// Prometheus text exposition: every EngineStats counter (generated
  /// from the X-macro, so none can be missing), every histogram
  /// (cumulative le-buckets, sum, count), the hot-key table and the
  /// span-log totals.
  std::string ExportText(const StatsSnapshot& stats,
                         const std::vector<HotKey>& hot_keys) const;

  /// The same data as one JSON object (counters, histograms with
  /// percentiles and occupied buckets, hot keys, span summary plus the
  /// most recent spans). Strings go through the same JsonEscape the
  /// bench writer uses, so the output is valid JSON no matter what is
  /// in a key.
  std::string ExportJson(const StatsSnapshot& stats,
                         const std::vector<HotKey>& hot_keys) const;

 private:
  const bool enabled_;
  LatencyHistogram histograms_[kHistNumHistograms];
  SpanLog spans_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_METRICS_H_
