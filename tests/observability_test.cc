// Tests for the observability layer (core/metrics.h, core/span.h) and
// the JSON output it shares with the bench writer (bench/bench_json.h):
//
//  - log2 histogram bucket properties (monotone bounds, containment) and
//    the Record/Snapshot race under 8 threads (a TSan target);
//  - counter completeness: every NESTEDTX_STAT_COUNTERS field must
//    appear in StatsSnapshot::ToString(), ExportText() and ExportJson()
//    — generated surfaces cannot silently drop a counter;
//  - JsonEscape against adversarial strings, and a JsonResultFile
//    round-trip whose output must parse as strict JSON;
//  - SpanLog sampling cadence and ring-overwrite semantics;
//  - end-to-end Database runs: spans with sane timelines, populated
//    histograms, the hot-key table (two keys sharing a lock stripe are
//    two rows), and export validity even when key names contain quotes,
//    backslashes and control characters.
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_json.h"
#include "core/database.h"
#include "core/metrics.h"
#include "core/span.h"
#include "core/stats.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

// ---------------------------------------------------------------------
// A strict (if minimal) JSON syntax checker: enough of RFC 8259 to fail
// on unescaped quotes, bare control characters, trailing commas and
// truncated documents — exactly the corruption classes the escaping
// bugfix is about. Validation only; no parse tree.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (Peek() != '"' || !String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    ++pos_;  // opening '"'
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // bare control character
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // ran off the end inside a string
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, SelfTest) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, 2.5, -3e4], "b": "x\ny", "c": null})"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_FALSE(IsValidJson(R"({"a": "unterminated)"));
  EXPECT_FALSE(IsValidJson("{\"a\": \"bare\nnewline\"}"));
  EXPECT_FALSE(IsValidJson(R"({"a": "bad \q escape"})"));
  EXPECT_FALSE(IsValidJson(R"([1, 2,])"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1} trailing)"));
}

// ---------------------------------------------------------------------
// Histogram bucket properties.

TEST(HistogramTest, BucketBoundsAreStrictlyMonotone) {
  for (int b = 1; b < HistogramSnapshot::kNumBuckets; ++b) {
    EXPECT_LT(HistogramSnapshot::BucketUpperBound(b - 1),
              HistogramSnapshot::BucketUpperBound(b))
        << "bucket " << b;
  }
}

TEST(HistogramTest, EveryValueLandsInsideItsBucket) {
  const uint64_t samples[] = {0,    1,    2,    3,       4,
                              7,    8,    1023, 1024,    123456789,
                              1ull << 40,  (1ull << 63), ~0ull};
  for (uint64_t v : samples) {
    const int b = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, HistogramSnapshot::kNumBuckets);
    EXPECT_LE(v, HistogramSnapshot::BucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, HistogramSnapshot::BucketUpperBound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, RecordAndSnapshotSingleThread) {
  LatencyHistogram h;
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
    sum += v;
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum_ns, sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // Values 1..1000: the 500th ordered sample is 500, in bucket
  // [256, 511]; the conservative p50 is that bucket's upper edge.
  EXPECT_EQ(snap.Percentile(0.50), 511u);
  EXPECT_EQ(snap.Percentile(1.0), 1023u);  // 1000 lives in [512, 1023]
  EXPECT_EQ(snap.ApproxMaxNs(), 1023u);
  EXPECT_DOUBLE_EQ(snap.MeanNs(), double(sum) / 1000.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  const HistogramSnapshot snap = LatencyHistogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
  EXPECT_EQ(snap.ApproxMaxNs(), 0u);
  EXPECT_EQ(snap.MeanNs(), 0.0);
}

// Record from 8 threads while a reader snapshots continuously — the
// lock-free-read claim, and a data-race target for the TSan job.
TEST(HistogramTest, RecordSnapshotRace) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snap = h.Snapshot();
      // Counts only grow (each stripe counter is monotone).
      EXPECT_GE(snap.count, last_count);
      last_count = snap.count;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// ---------------------------------------------------------------------
// Counter completeness: the X-macro generates every surface, so every
// counter must appear everywhere, by name, with its exact value.

TEST(CounterCompletenessTest, EveryCounterOnEverySurface) {
  EngineStats stats;
  for (int i = 0; i < kStatNumCounters; ++i) {
    stats.Add(static_cast<StatCounter>(i), uint64_t(i) + 1);
  }
  const StatsSnapshot snap = stats.Snapshot();

  MetricsRegistry metrics{EngineOptions{}};
  const std::string str = snap.ToString();
  const std::string text = metrics.ExportText(snap, {});
  const std::string json = metrics.ExportJson(snap, {});
  ASSERT_TRUE(IsValidJson(json)) << json;

  // Snapshot() folds the fast-lane AND the OCC per-access counters into
  // the aggregate accounting (see stats.h); expectations mirror both
  // folds (OCC accesses involve no lock grant, so nothing folds into
  // lock_grants for them).
  const auto raw = [](StatCounter c) { return uint64_t(c) + 1; };
  const uint64_t fast_reads =
      raw(kStatFastReadGrants) + raw(kStatFastReadReacquires);
  const uint64_t fast_writes =
      raw(kStatFastWriteGrants) + raw(kStatFastWriteReacquires);
  for (int i = 0; i < kStatNumCounters; ++i) {
    const StatCounter c = static_cast<StatCounter>(i);
    const std::string name = StatCounterName(c);
    const std::string value = std::to_string(snap.Value(c));
    uint64_t expected = raw(c);
    if (c == kStatLockGrants) expected += fast_reads + fast_writes;
    if (c == kStatReads) expected += fast_reads + raw(kStatOccReads);
    if (c == kStatWrites) expected += fast_writes + raw(kStatOccWrites);
    EXPECT_EQ(snap.Value(c), expected);
    EXPECT_NE(str.find(name + "=" + value), std::string::npos)
        << name << " missing from StatsSnapshot::ToString()";
    EXPECT_NE(text.find("nestedtx_" + name + "_total " + value),
              std::string::npos)
        << name << " missing from ExportText()";
    EXPECT_NE(json.find("\"" + name + "\": " + value), std::string::npos)
        << name << " missing from ExportJson()";
  }
  // And every histogram, by canonical name, on both export surfaces.
  for (int i = 0; i < kHistNumHistograms; ++i) {
    const std::string name = HistogramName(static_cast<HistogramId>(i));
    EXPECT_NE(text.find("nestedtx_" + name), std::string::npos) << name;
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------
// EngineStats::Bump's single-writer contract (the relaxed-counter
// bugfix). The old Bump was an unconditional plain load+store: whenever
// two thread slots collided mod kStripes it both dropped increments
// continuously and could publish a stale value over the other thread's
// later fetch_adds — exported counters went backwards. The fixed Bump
// claims the stripe for one owner and degrades permanently to fetch_add
// the moment a second slot shows up; these tests pin both halves of the
// contract, and run under TSan in CI (all accesses are relaxed atomics,
// so a clean run proves the protocol adds no races).

TEST(BumpContractTest, SingleWriterIsExact) {
  EngineStats stats;
  constexpr uint64_t kN = 20000;
  // A fresh thread: its slot is this stripe's first (and only) claimant,
  // so every Bump takes the cheap pair and none may be lost.
  std::thread t([&stats] {
    for (uint64_t i = 0; i < kN; ++i) stats.Bump(kStatTxnsBegun);
  });
  t.join();
  EXPECT_EQ(stats.Snapshot().txns_begun, kN);
}

TEST(BumpContractTest, SequentialStripeSharingLosesNothing) {
  // More threads than stripes, run strictly one-after-another, so slots
  // certainly collide mod kStripes but no two writes are ever in flight
  // together. The claim/degrade transitions all happen with a sole
  // writer, so the count must be EXACT — this is the scenario the old
  // Bump silently corrupted (the second thread's plain stores resumed
  // from its own stale view of the cell).
  EngineStats stats;
  constexpr int kThreads = 12;  // > kStripes (8): guaranteed collisions
  constexpr uint64_t kPer = 5000;
  for (int t = 0; t < kThreads; ++t) {
    std::thread worker([&stats] {
      for (uint64_t i = 0; i < kPer; ++i) stats.Bump(kStatTxnsBegun);
    });
    worker.join();
  }
  EXPECT_EQ(stats.Snapshot().txns_begun, kThreads * kPer);
}

TEST(BumpContractTest, DegradedStripesAreExactUnderConcurrency) {
  // Phase 1: 16 fresh threads (two per stripe) each Bump once, forcing
  // every touched stripe through its one-time degrade while the main
  // thread waits. Phase 2: after a Reset, the same threads hammer
  // concurrently — every stripe is now permanently shared, so every
  // Bump is a fetch_add and the total must be exact. Under TSan this is
  // also the race proof for the owner handshake itself.
  EngineStats stats;
  constexpr int kThreads = 16;
  constexpr uint64_t kPer = 8000;
  std::atomic<int> degraded{0};
  std::atomic<bool> hammer{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      stats.Bump(kStatTxnsBegun);
      degraded.fetch_add(1);
      while (!hammer.load()) std::this_thread::yield();
      for (uint64_t i = 0; i < kPer; ++i) stats.Bump(kStatTxnsBegun);
    });
  }
  while (degraded.load() < kThreads) std::this_thread::yield();
  stats.Reset();  // discard phase 1 (its transitional counts are bounded,
                  // not exact); ownership state survives the reset
  hammer.store(true);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(stats.Snapshot().txns_begun, kThreads * kPer);
}

// ---------------------------------------------------------------------
// JSON escaping: the bench_json bugfix and its shared helper.

TEST(JsonEscapeTest, AdversarialStrings) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("\t\r\b\f"), "\\t\\r\\b\\f");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  // Bytes >= 0x80 pass through: UTF-8 stays UTF-8.
  EXPECT_EQ(JsonEscape("h\xc3\xa9llo"), "h\xc3\xa9llo");
  // Embedded NUL is a control character, not a terminator.
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
  // Escaped output wrapped in quotes is a valid JSON string.
  EXPECT_TRUE(IsValidJson("\"" + JsonEscape("\"\\\n\x01 end") + "\""));
}

TEST(JsonResultFileTest, AdversarialStrValuesStayValidJson) {
  bench::JsonResultFile out("observability_test_tmp");
  out.Add("cell \"quoted\"")
      .Str("note", "line1\nline2 with \\ and \"quotes\"")
      .Str("ctrl", std::string("a\x02") + "b")
      .Int("n", 42)
      .Num("x", 1.5);
  out.Add("plain").Int("n", 1);
  ASSERT_TRUE(out.Write());

  const char* path = "BENCH_observability_test_tmp.json";
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path);

  EXPECT_TRUE(IsValidJson(contents)) << contents;
  // The quote inside the config name must have been escaped — the
  // pre-fix writer emitted it raw and corrupted the document.
  EXPECT_NE(contents.find("cell \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(contents.find("\\u0002"), std::string::npos);
}

// ---------------------------------------------------------------------
// Span log semantics.

TEST(SpanLogTest, SamplingCadence) {
  SpanLog log(4, 16);
  EXPECT_TRUE(log.enabled());
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (log.Sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 4);  // every 4th, starting with the first

  SpanLog off(0, 16);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.Sample());

  SpanLog all(1, 16);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(all.Sample());
}

TEST(SpanLogTest, RingOverwritesOldestFirst) {
  SpanLog log(1, 4);
  for (uint64_t i = 1; i <= 10; ++i) {
    TxnSpan span;
    span.begin_ns = i;
    log.Append(span);
  }
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.capacity(), 4u);
  const std::vector<TxnSpan> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin_ns, 7 + i);  // oldest first: 7, 8, 9, 10
  }
}

// ---------------------------------------------------------------------
// End-to-end through the Database.

TEST(DatabaseObservabilityTest, SpansRecordSaneTimelines) {
  EngineOptions options;
  options.span_sample_one_in = 1;  // every transaction carries a span
  Database db(options);
  db.Preload("a", 0);
  db.Preload("b", 0);

  {  // a committing top-level transaction touching two keys
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Add("a", 1).ok());
    ASSERT_TRUE(txn->Add("b", 1).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {  // a parent with a committing child
    auto txn = db.Begin();
    auto child = txn->BeginChild();
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE((*child)->Add("a", 1).ok());
    ASSERT_TRUE((*child)->Commit().ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {  // an aborting top-level transaction
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Add("b", 5).ok());
    txn->Abort();
  }

  const std::vector<TxnSpan> spans = db.metrics().spans().Snapshot();
  ASSERT_EQ(spans.size(), 4u);  // 3 top-level + 1 child
  int ok_count = 0, aborted_count = 0;
  for (const TxnSpan& s : spans) {
    EXPECT_GT(s.begin_ns, 0u);
    EXPECT_GE(s.end_ns, s.begin_ns);
    EXPECT_GE(s.end_ns, s.commit_request_ns);
    if (s.first_lock_ns != 0) {
      EXPECT_GE(s.first_lock_ns, s.begin_ns);
      EXPECT_LE(s.first_lock_ns, s.end_ns);
    }
    EXPECT_GT(s.keys_touched, 0u);
    EXPECT_FALSE(s.ToString().empty());
    if (s.final_status == Status::Code::kOk) ++ok_count;
    if (s.final_status == Status::Code::kAborted) ++aborted_count;
  }
  EXPECT_EQ(ok_count, 3);
  EXPECT_EQ(aborted_count, 1);

  // Three top-level outcomes; three commit releases (two top-level and
  // one nested — Moss-mode child commits run a real release batch).
  EXPECT_EQ(db.metrics().SnapshotHistogram(kHistTxnNs).count, 3u);
  EXPECT_EQ(db.metrics().SnapshotHistogram(kHistCommitReleaseNs).count, 3u);
  EXPECT_EQ(db.metrics().SnapshotHistogram(kHistAbortReleaseNs).count, 1u);
}

TEST(DatabaseObservabilityTest, DisabledMetricsRecordNothing) {
  EngineOptions options;
  options.metrics_enabled = false;
  options.span_sample_one_in = 1;  // overridden by the master switch
  Database db(options);
  db.Preload("a", 0);
  for (int i = 0; i < 5; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Add("a", 1).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int h = 0; h < kHistNumHistograms; ++h) {
    EXPECT_EQ(db.metrics().SnapshotHistogram(
                  static_cast<HistogramId>(h)).count, 0u);
  }
  EXPECT_TRUE(db.metrics().spans().Snapshot().empty());
  // Exports still work: counters are always on.
  const std::string text = db.ExportMetricsText();
  EXPECT_NE(text.find("nestedtx_txns_committed_total 5"),
            std::string::npos);
  EXPECT_TRUE(IsValidJson(db.ExportMetricsJson()));
}

// Contended key (with hostile bytes in its name) shows up in the hot-key
// table, the lock-wait histogram, the span wait accounting, and both
// export surfaces stay well-formed.
TEST(DatabaseObservabilityTest, ContentionFeedsHotKeysAndExports) {
  const std::string evil_key = "hot \"key\"\\\n";
  EngineOptions options;
  options.span_sample_one_in = 1;
  Database db(options);
  db.Preload(evil_key, 0);

  auto writer = db.Begin();
  ASSERT_TRUE(writer->Add(evil_key, 1).ok());  // write lock held

  std::atomic<bool> reader_started{false};
  Status reader_status;
  std::thread reader([&] {
    auto txn = db.Begin();
    reader_started.store(true);
    auto r = txn->TryGet(evil_key);  // parks until the writer commits
    reader_status = r.status();
    ASSERT_TRUE(txn->Commit().ok());
  });
  while (!reader_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(writer->Commit().ok());
  reader.join();
  ASSERT_TRUE(reader_status.ok());

  // Hot-key table: the contended key, with nonzero wait accounting.
  const std::vector<HotKey> hot =
      db.manager().locks().CollectHotKeys(10);
  ASSERT_FALSE(hot.empty());
  EXPECT_EQ(hot[0].key, evil_key);
  EXPECT_GE(hot[0].waits, 1u);
  EXPECT_GT(hot[0].wait_ns, 0u);

  // The wait also reached the histogram and the reader's span.
  EXPECT_GE(db.metrics().SnapshotHistogram(kHistLockWaitNs).count, 1u);
  bool found_waiting_span = false;
  for (const TxnSpan& s : db.metrics().spans().Snapshot()) {
    if (s.wait_count >= 1 && s.wait_ns > 0) found_waiting_span = true;
  }
  EXPECT_TRUE(found_waiting_span);

  // Exports survive the hostile key name.
  const std::string json = db.ExportMetricsJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("hot \\\"key\\\"\\\\\\n"), std::string::npos);
  const std::string text = db.ExportMetricsText();
  EXPECT_NE(text.find("nestedtx_hot_key_waits_total{key=\"hot \\\"key\\\""),
            std::string::npos);
}

// The wait profile lives in the key's stripe, not in the key: two keys
// on one stripe that both waited are still two rows, ranked by wait time
// (key order on ties), and a key that never waited has no row.
TEST(DatabaseObservabilityTest, HotKeysSharingAStripeAreSeparateRows) {
  Database db;
  LockManager& locks = db.manager().locks();
  const std::string a = "a";
  std::string b;      // waits briefly, on a's stripe
  std::string quiet;  // granted and released, never waits, on a's stripe
  for (int i = 0; b.empty() || quiet.empty(); ++i) {
    const std::string key = StrCat("b", i);
    if (locks.StripeForTest(key) != locks.StripeForTest(a)) continue;
    (b.empty() ? b : quiet) = key;
  }
  for (const std::string& key : {a, b, quiet}) db.Preload(key, 0);
  ASSERT_TRUE(db.RunTransaction(1, [&](Transaction& t) {
                  return t.Add(quiet, 1).status();
                }).ok());

  // One reader parks on `key` behind a writer that commits after `hold`.
  const auto contend = [&](const std::string& key,
                           std::chrono::milliseconds hold) {
    auto writer = db.Begin();
    ASSERT_TRUE(writer->Add(key, 1).ok());
    std::thread reader([&] {
      auto txn = db.Begin();
      EXPECT_TRUE(txn->TryGet(key).ok());
      EXPECT_TRUE(txn->Commit().ok());
    });
    for (int i = 0; i < 4000 && locks.ParkedWaiterCount() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(locks.ParkedWaiterCount(), 1u);
    std::this_thread::sleep_for(hold);
    EXPECT_TRUE(writer->Commit().ok());
    reader.join();
  };
  contend(a, std::chrono::milliseconds(150));
  contend(b, std::chrono::milliseconds(1));

  const std::vector<HotKey> hot = locks.CollectHotKeys(10);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].key, a);
  EXPECT_EQ(hot[1].key, b);
  for (const HotKey& hk : hot) {
    EXPECT_EQ(hk.waits, 1u) << hk.key;
    EXPECT_GT(hk.wait_ns, 0u) << hk.key;
  }
  EXPECT_TRUE(hot[0].wait_ns > hot[1].wait_ns ||
              (hot[0].wait_ns == hot[1].wait_ns && hot[0].key < hot[1].key));
  EXPECT_EQ(locks.CollectHotKeys(1).size(), 1u);
}

// A WAL-enabled database surfaces live durability telemetry on both
// export surfaces: the append/byte/fsync/group counters carry real
// values and the fsync-latency histogram has samples. (The generic
// completeness test above already proves the names appear; this pins
// the wiring from the real commit path.)
TEST(DatabaseObservabilityTest, WalCountersAndFsyncHistogramExport) {
  char tmpl[] = "/tmp/nestedtx-obs-wal-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  {
    EngineOptions options;
    options.wal_enabled = true;
    options.wal_dir = dir;
    Database db(options);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db.RunTransaction(1, [i](Transaction& t) {
                      return t.Put(StrCat("k", i), i);
                    }).ok());
    }
    const auto snap = db.stats().Snapshot();
    EXPECT_EQ(snap.wal_appends, 3u);
    EXPECT_GT(snap.wal_bytes, 0u);
    EXPECT_GE(snap.wal_fsyncs, 3u);  // sequential: one sync per commit
    EXPECT_GE(snap.group_commit_batches, 3u);
    EXPECT_GE(db.metrics().SnapshotHistogram(kHistWalFsyncNs).count, 3u);

    const std::string text = db.ExportMetricsText();
    EXPECT_NE(text.find("nestedtx_wal_appends_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("nestedtx_wal_fsync_ns"), std::string::npos);
    const std::string json = db.ExportMetricsJson();
    EXPECT_TRUE(IsValidJson(json));
    EXPECT_NE(json.find("\"wal_appends\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"wal_fsync_ns\""), std::string::npos);
  }
  // Recovery telemetry exports too.
  EngineOptions options;
  options.wal_enabled = true;
  options.wal_dir = dir;
  Database db(options);
  ASSERT_TRUE(db.Recover().ok());
  const std::string text = db.ExportMetricsText();
  EXPECT_NE(text.find("nestedtx_wal_recovery_replayed_total 3"),
            std::string::npos);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace nestedtx
