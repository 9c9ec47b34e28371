#include "core/metrics.h"

#include <algorithm>
#include <limits>

#include "util/strings.h"

namespace nestedtx {

namespace {

// Prometheus label-value escaping: backslash, double-quote and newline
// (text exposition format; distinct from JSON escaping).
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Highest occupied bucket index, -1 when empty.
int HighestOccupied(const HistogramSnapshot& h) {
  for (int b = HistogramSnapshot::kNumBuckets - 1; b >= 0; --b) {
    if (h.buckets[b] != 0) return b;
  }
  return -1;
}

}  // namespace

const char* HistogramName(HistogramId h) {
  switch (h) {
#define NESTEDTX_HIST_NAME(id, name) \
  case id:                           \
    return #name;
    NESTEDTX_HISTOGRAMS(NESTEDTX_HIST_NAME)
#undef NESTEDTX_HIST_NAME
    case kHistNumHistograms:
      break;
  }
  return "unknown";
}

uint64_t HistogramSnapshot::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << b) - 1;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th ordered sample (1-based, ceil).
  uint64_t rank = static_cast<uint64_t>(q * double(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

uint64_t HistogramSnapshot::ApproxMaxNs() const {
  const int b = HighestOccupied(*this);
  return b < 0 ? 0 : BucketUpperBound(b);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot out;
  for (const Stripe& s : stripes_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum_ns += s.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

ThreadWaitCounters& ThreadWaitAccounting() {
  thread_local ThreadWaitCounters counters;
  return counters;
}

std::string MetricsRegistry::ExportText(
    const StatsSnapshot& stats, const std::vector<HotKey>& hot_keys) const {
  std::string out;
  out.reserve(4096);

  // Counters — generated from the X-macro, so a counter added to
  // NESTEDTX_STAT_COUNTERS shows up here with no further work.
  for (int c = 0; c < kStatNumCounters; ++c) {
    const StatCounter id = static_cast<StatCounter>(c);
    const char* name = StatCounterName(id);
    out += StrCat("# TYPE nestedtx_", name, "_total counter\n",
                  "nestedtx_", name, "_total ", stats.Value(id), "\n");
  }

  // Histograms: cumulative le-buckets up to the highest occupied bucket,
  // then +Inf, sum and count (standard exposition-format histogram).
  for (int h = 0; h < kHistNumHistograms; ++h) {
    const HistogramSnapshot snap =
        SnapshotHistogram(static_cast<HistogramId>(h));
    const char* name = HistogramName(static_cast<HistogramId>(h));
    out += StrCat("# TYPE nestedtx_", name, " histogram\n");
    uint64_t cumulative = 0;
    const int top = HighestOccupied(snap);
    for (int b = 0; b <= top; ++b) {
      cumulative += snap.buckets[b];
      out += StrCat("nestedtx_", name, "_bucket{le=\"",
                    HistogramSnapshot::BucketUpperBound(b), "\"} ",
                    cumulative, "\n");
    }
    out += StrCat("nestedtx_", name, "_bucket{le=\"+Inf\"} ", snap.count,
                  "\n", "nestedtx_", name, "_sum ", snap.sum_ns, "\n",
                  "nestedtx_", name, "_count ", snap.count, "\n");
  }

  // Contention profiler: top-K hot keys by cumulative wait time.
  out += "# TYPE nestedtx_hot_key_waits_total counter\n";
  for (const HotKey& hk : hot_keys) {
    out += StrCat("nestedtx_hot_key_waits_total{key=\"", PromEscape(hk.key),
                  "\"} ", hk.waits, "\n");
  }
  out += "# TYPE nestedtx_hot_key_wait_ns_total counter\n";
  for (const HotKey& hk : hot_keys) {
    out += StrCat("nestedtx_hot_key_wait_ns_total{key=\"",
                  PromEscape(hk.key), "\"} ", hk.wait_ns, "\n");
  }

  // Span log totals (the spans themselves are a JSON/debug surface).
  out += StrCat("# TYPE nestedtx_spans_recorded_total counter\n",
                "nestedtx_spans_recorded_total ", spans_.total_recorded(),
                "\n", "# TYPE nestedtx_span_sample_one_in gauge\n",
                "nestedtx_span_sample_one_in ", spans_.sample_one_in(),
                "\n");
  return out;
}

std::string MetricsRegistry::ExportJson(
    const StatsSnapshot& stats, const std::vector<HotKey>& hot_keys) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"counters\": {";
  for (int c = 0; c < kStatNumCounters; ++c) {
    const StatCounter id = static_cast<StatCounter>(c);
    out += StrCat(c == 0 ? "\n" : ",\n", "    \"", StatCounterName(id),
                  "\": ", stats.Value(id));
  }
  out += "\n  },\n  \"histograms\": [";
  for (int h = 0; h < kHistNumHistograms; ++h) {
    const HistogramSnapshot snap =
        SnapshotHistogram(static_cast<HistogramId>(h));
    out += StrCat(h == 0 ? "\n" : ",\n", "    {\"name\": \"",
                  HistogramName(static_cast<HistogramId>(h)),
                  "\", \"count\": ", snap.count,
                  ", \"sum_ns\": ", snap.sum_ns,
                  ", \"mean_ns\": ", snap.MeanNs(),
                  ", \"p50_ns\": ", snap.Percentile(0.50),
                  ", \"p90_ns\": ", snap.Percentile(0.90),
                  ", \"p99_ns\": ", snap.Percentile(0.99),
                  ", \"max_ns\": ", snap.ApproxMaxNs(), ", \"buckets\": [");
    // Occupied buckets only: [upper_bound, count] pairs.
    bool first = true;
    for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      out += StrCat(first ? "" : ", ", "[",
                    HistogramSnapshot::BucketUpperBound(b), ", ",
                    snap.buckets[b], "]");
      first = false;
    }
    out += "]}";
  }
  out += "\n  ],\n  \"hot_keys\": [";
  for (size_t i = 0; i < hot_keys.size(); ++i) {
    out += StrCat(i == 0 ? "\n" : ",\n", "    {\"key\": \"",
                  JsonEscape(hot_keys[i].key),
                  "\", \"waits\": ", hot_keys[i].waits,
                  ", \"wait_ns\": ", hot_keys[i].wait_ns, "}");
  }

  const std::vector<TxnSpan> spans = spans_.Snapshot();
  // Bound the export even with a big ring: the most recent spans only.
  constexpr size_t kMaxExportedSpans = 64;
  const size_t begin =
      spans.size() > kMaxExportedSpans ? spans.size() - kMaxExportedSpans : 0;
  out += StrCat("\n  ],\n  \"spans\": {\n    \"sample_one_in\": ",
                spans_.sample_one_in(),
                ",\n    \"capacity\": ", spans_.capacity(),
                ",\n    \"total_recorded\": ", spans_.total_recorded(),
                ",\n    \"retained\": ", spans.size(),
                ",\n    \"recent\": [");
  for (size_t i = begin; i < spans.size(); ++i) {
    const TxnSpan& s = spans[i];
    out += StrCat(i == begin ? "\n" : ",\n", "      {\"id\": \"",
                  JsonEscape(StrCat(s.id)), "\", \"status\": \"",
                  StatusCodeName(s.final_status),
                  "\", \"begin_ns\": ", s.begin_ns,
                  ", \"first_lock_ns\": ", s.first_lock_ns,
                  ", \"commit_request_ns\": ", s.commit_request_ns,
                  ", \"end_ns\": ", s.end_ns, ", \"wait_ns\": ", s.wait_ns,
                  ", \"wait_count\": ", s.wait_count,
                  ", \"keys_touched\": ", s.keys_touched,
                  ", \"retry_attempt\": ", s.retry_attempt, "}");
  }
  out += "]\n  }\n}\n";
  return out;
}

}  // namespace nestedtx
