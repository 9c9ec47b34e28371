// Per-transaction spans: a bounded, sampled log of where one
// transaction's time went — begin / first-lock / commit-request /
// release timestamps, lock-wait totals, keys touched, retry attempt and
// final outcome — keyed by the packed TransactionId.
//
// Spans answer the question histograms cannot: not "what is p99
// lock-wait", but "what did THIS slow transaction spend its time on".
// Collection is sampled (EngineOptions::span_sample_one_in) and the log
// is a fixed-capacity ring, so memory is bounded no matter how long the
// engine runs; exporters can tell how many spans the ring overwrote.
//
// The per-transaction scratch lives inline in the Transaction handle and
// is pushed here exactly once, at commit/abort — so the ring sees only
// finished spans and the append rate is (txns / sample_one_in), never
// per-operation.
#ifndef NESTEDTX_CORE_SPAN_H_
#define NESTEDTX_CORE_SPAN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/stats.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

/// One finished transaction's timeline. Timestamps are nanoseconds on
/// the process-wide monotonic clock (MonotonicNowNs in core/metrics.h);
/// 0 means "never happened" (e.g. first_lock_ns of a transaction that
/// performed no access).
struct TxnSpan {
  TransactionId id;
  uint64_t begin_ns = 0;
  uint64_t first_lock_ns = 0;      // first access's lock grant request
  uint64_t commit_request_ns = 0;  // Commit()/Abort() entry
  uint64_t end_ns = 0;             // release batch done, outcome final
  uint64_t wait_ns = 0;            // total time parked in lock waits
  uint32_t wait_count = 0;         // lock waits entered
  uint32_t keys_touched = 0;       // key inventory size at release
  uint32_t retry_attempt = 0;      // 0 = first attempt (RetryExecutor)
  Status::Code final_status = Status::Code::kOk;

  std::string ToString() const;
};

/// Fixed-capacity ring of finished spans plus the sampling decision.
/// Thread-safe. Append takes a mutex — it runs once per SAMPLED
/// transaction, off every per-operation path, so a lock-free ring would
/// buy nothing measurable.
class SpanLog {
 public:
  /// `sample_one_in` 0 disables sampling (Sample() always false).
  SpanLog(uint32_t sample_one_in, uint32_t capacity);

  bool enabled() const { return sample_one_in_ != 0 && capacity_ != 0; }

  /// True for every `sample_one_in`-th call on the calling thread's
  /// stripe (one uncontended relaxed fetch_add — a single shared counter
  /// ping-pongs its cache line between cores on every Begin, measurable
  /// on the E13 hot-set workload). Decides at transaction begin whether
  /// that transaction carries a span.
  bool Sample() {
    if (!enabled()) return false;
    Stripe& s = stripes_[ThreadSlot() & (kStripes - 1)];
    return s.counter.fetch_add(1, std::memory_order_relaxed) %
               sample_one_in_ ==
           0;
  }

  /// Record a finished span (overwrites the oldest once full).
  void Append(TxnSpan span);

  /// All retained spans, oldest first.
  std::vector<TxnSpan> Snapshot() const;

  /// Spans ever appended (>= Snapshot().size(); the difference is how
  /// many the ring overwrote).
  uint64_t total_recorded() const;

  uint32_t capacity() const { return capacity_; }
  uint32_t sample_one_in() const { return sample_one_in_; }

 private:
  static constexpr size_t kStripes = 8;  // power of two

  struct alignas(64) Stripe {
    std::atomic<uint64_t> counter{0};
  };

  const uint32_t sample_one_in_;
  const uint32_t capacity_;
  Stripe stripes_[kStripes];

  mutable std::mutex mu_;
  std::vector<TxnSpan> ring_;  // ring_[total_ % capacity_] is next slot
  uint64_t total_ = 0;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_SPAN_H_
