#include "core/span.h"

#include "util/strings.h"

namespace nestedtx {

std::string TxnSpan::ToString() const {
  return StrCat(id, " [", StatusCodeName(final_status),
                "] begin=", begin_ns, "ns first_lock=", first_lock_ns,
                "ns commit_req=", commit_request_ns, "ns end=", end_ns,
                "ns waits=", wait_count, " wait_ns=", wait_ns,
                " keys=", keys_touched, " attempt=", retry_attempt);
}

SpanLog::SpanLog(uint32_t sample_one_in, uint32_t capacity)
    : sample_one_in_(sample_one_in), capacity_(capacity) {
  if (enabled()) ring_.reserve(capacity_);
}

void SpanLog::Append(TxnSpan span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[total_ % capacity_] = std::move(span);
  }
  ++total_;
}

std::vector<TxnSpan> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_ || capacity_ == 0) return ring_;
  // Full ring: unroll so the result is oldest-first.
  std::vector<TxnSpan> out;
  out.reserve(ring_.size());
  const size_t head = total_ % capacity_;  // oldest retained span
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

uint64_t SpanLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace nestedtx
