// End-to-end benchmark of the nestedtx engine.
//
// Closed loop: one client thread per core (at most four) drives the public
// Database/Transaction API with no think time. Every client's transactions
// are generated from --seed; a top-level transaction that fails with a
// retryable status is retried at once, up to kMaxAttempts, so backoff
// sleeps stay out of the latencies. After the
// run the store is checked: the sum of all committed values must equal
// the number of Adds in committed subtrees, and on a durable workload a
// restart from the log must reproduce every key.
//
//   --trace 0  one untraced pass; prints the end-to-end metrics.
//   --trace 1  an untraced pass, a one-client pass and a traced pass in
//              which every call into Database/Transaction is a span; prints
//              the per-layer metrics and writes the kept spans to --spans.
//
// The last line of stdout is the JSON result. perfbench/README.md lists
// the workloads and what each metric should move.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/metrics.h"
#include "core/stats.h"
#include "util/random.h"

namespace {

using nestedtx::CcProtocol;
using nestedtx::Database;
using nestedtx::EngineOptions;
using nestedtx::HistogramId;
using nestedtx::HistogramSnapshot;
using nestedtx::MonotonicNowNs;
using nestedtx::Rng;
using nestedtx::StatsSnapshot;
using nestedtx::Status;
using nestedtx::Transaction;
using nestedtx::Zipf;

constexpr int kMaxClients = 4;
constexpr int kSetups = 5;           // before the window, and again after
constexpr int kMaxAttempts = 100;    // per top-level transaction
constexpr double kWarmupSeconds = 1.0;
constexpr double kRewarmSeconds = 0.25;  // before the later trace passes
constexpr size_t kSpanCapacity = size_t{1} << 14;  // kept spans per tracer

struct Workload {
  const char* name;
  int key_bits;       // the store holds 2^key_bits keys, all preloaded to 0
  int slice_keys;     // > 0: client c draws uniformly from its own slice
  double theta;       // otherwise: zipf skew over the whole store
  int accesses;       // per top-level transaction
  int levels;         // nesting levels the accesses are spread over
  double add_frac;    // share of accesses that are Add(key, 1)
  double deep_abort;  // P(the deepest child aborts voluntarily)
  CcProtocol protocol;
  bool durable;       // WAL on: fsync none, 32 MiB checkpoints
};

constexpr Workload kWorkloads[] = {
    {"disjoint", 18, 64, 0.0, 12, 1, 0.25, 0.0, CcProtocol::kDetect, false},
    {"nested_zipf", 18, 0, 0.99, 12, 3, 0.20, 0.05, CcProtocol::kDetect,
     false},
    {"durable_occ", 17, 0, 0.8, 8, 2, 0.50, 0.0, CcProtocol::kOcc, true},
};

EngineOptions OptionsFor(const Workload& w, const std::string& wal_dir) {
  EngineOptions o;
  o.cc_protocol = w.protocol;
  if (w.durable) {
    // One write() per cut group and no device flush: the process-crash
    // threat model. Device flush latency on a shared host is not steady
    // enough to gate on; the fsync tiers are bench_wal's study.
    o.wal_enabled = true;
    o.wal_dir = wal_dir;
    o.wal_fsync_mode = nestedtx::WalFsyncMode::kNone;
    // A checkpoint stalls a shard's committers while it rotates the file.
    // Every 8 MiB (about 1.5/s), p99 landed among those stalls and swung
    // 70-111 us between runs; every 32 MiB it held 49-56 us.
    o.wal_checkpoint_every_bytes = uint64_t{32} << 20;
  }
  return o;
}

bool Retryable(const Status& s) {
  // The engine's own retry classification (Database::Retryable).
  return s.IsDeadlock() || s.IsTimedOut() || s.IsAborted() || s.IsIoError();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Log-linear histogram: 128 linear sub-buckets per power of two (at most
// 0.8% wide), read back with linear interpolation inside the bucket so a
// percentile is a continuous value, not a bucket edge. Fixed size, so a
// faster engine does not grow the driver's memory.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    sum_ += v;
  }

  void Merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  double Mean() const { return Ratio(double(sum_), double(count_)); }

  double Percentile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * double(count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) continue;
      if (double(seen + c) >= target) {
        const double frac = std::max(0.0, target - double(seen)) / double(c);
        return double(Low(i)) + frac * double(Width(i));
      }
      seen += c;
    }
    return double(Low(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int Index(uint64_t v) {
    if (v < kSub) return int(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return (shift + 1) * kSub + int((v >> shift) - kSub);
  }
  static uint64_t Low(int i) {
    return i < kSub ? uint64_t(i) : uint64_t(kSub + i % kSub) << (i / kSub - 1);
  }
  static uint64_t Width(int i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// Percentile of the samples an engine log2 histogram gained between two
// snapshots, interpolated inside the bucket (bucket b >= 1 holds
// [2^(b-1), 2^b - 1]; bucket 0 holds 0). The count is summed from the
// buckets: a live snapshot can read a record's count before its bucket.
double DeltaPercentile(const HistogramSnapshot& before,
                       const HistogramSnapshot& after, double q) {
  uint64_t count = 0;
  for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    count += after.buckets[b] - before.buckets[b];
  }
  if (count == 0) return 0;
  const double target = q * double(count);
  uint64_t seen = 0;
  for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    const uint64_t c = after.buckets[b] - before.buckets[b];
    if (c == 0) continue;
    if (double(seen + c) >= target) {
      if (b == 0) return 0;
      const double low = std::ldexp(1.0, b - 1);
      return low + std::max(0.0, target - double(seen)) / double(c) * low;
    }
    seen += c;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Spans. Each client owns a Tracer; a traced call records its duration in
// the tracer's per-kind histogram (every call in the window) and, while
// the bounded buffer has room, the span itself for the --spans file.

enum SpanKind : uint8_t {
  kSpanTransaction,     // top-level: first Begin .. final outcome
  kSpanSubtransaction,  // BeginChild call .. the child's Commit/Abort
  kSpanPreload,
  kSpanRecover,
  kSpanBegin,
  kSpanRead,
  kSpanWrite,
  kSpanCommit,
  kSpanAbort,
  kSpanChildBegin,
  kSpanChildCommit,
  kSpanChildAbort,
  kNumSpanKinds,
};

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "client.transaction",     "client.subtransaction",
    "database.preload",       "database.recover",
    "database.begin",         "transaction.try_get",
    "transaction.add",        "transaction.commit",
    "transaction.abort",      "transaction.begin_child",
    "transaction.child_commit", "transaction.child_abort",
};

struct Span {
  uint64_t txn;     // shared by every span of one top-level transaction
  uint32_t id;      // unique within the transaction; 0 is "no parent"
  uint32_t parent;
  SpanKind kind;
  uint64_t start_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  Tracer() : hist_(kNumSpanKinds) { spans_.reserve(kSpanCapacity); }

  // Starts a top-level transaction; returns its root span id.
  uint32_t BeginTxn(uint64_t txn) {
    txn_ = txn;
    next_id_ = 1;
    engine_ns_ = 0;
    return NewId();
  }
  uint32_t NewId() { return next_id_++; }

  void Record(SpanKind kind, uint32_t id, uint32_t parent, uint64_t start,
              uint64_t end) {
    const uint64_t ns = end - start;
    hist_[kind].Record(ns);
    if (kind > kSpanSubtransaction) engine_ns_ += ns;
    if (spans_.size() < kSpanCapacity) {
      spans_.push_back(Span{txn_, id, parent, kind, start, end});
    }
  }

  // Closes the root span; the driver's self time is the root minus every
  // engine call inside it (calls never overlap: one thread per tree).
  void EndTxn(uint32_t root, uint64_t start, uint64_t end) {
    Record(kSpanTransaction, root, 0, start, end);
    self_.Record(end - start - std::min(engine_ns_, end - start));
  }

  const Histogram& hist(SpanKind k) const { return hist_[k]; }
  const Histogram& self() const { return self_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Histogram> hist_;
  Histogram self_;
  std::vector<Span> spans_;
  uint64_t txn_ = 0;
  uint32_t next_id_ = 1;
  uint64_t engine_ns_ = 0;
};

// Runs `call`; when tracing, also records it as a `kind` span.
template <typename F>
auto Timed(Tracer* tr, SpanKind kind, uint32_t parent, F&& call) {
  if (tr == nullptr) return call();
  const uint64_t start = MonotonicNowNs();
  auto result = call();
  tr->Record(kind, tr->NewId(), parent, start, MonotonicNowNs());
  return result;
}

// ---------------------------------------------------------------------
// Transaction plans: what a client's next top-level attempt does.

struct Op {
  uint32_t key;
  bool add;
};

struct Plan {
  std::vector<Op> ops;  // level l owns ops [l * per_level, ...)
  bool deep_abort = false;
};

class PlanSource {
 public:
  PlanSource(const Workload& w, uint64_t seed, int client)
      : w_(w),
        rng_(seed * 0x9E3779B97F4A7C15ULL +
             uint64_t(client) * 0xBF58476D1CE4E5B9ULL + 1),
        slice_base_(uint64_t(client) * uint64_t(w.slice_keys)) {
    if (w.slice_keys == 0) zipf_.emplace(uint64_t{1} << w.key_bits, w.theta);
  }

  void Next(Plan* plan) {
    plan->ops.resize(w_.accesses);
    for (Op& op : plan->ops) {
      op.key = uint32_t(zipf_ ? zipf_->Next(rng_)
                              : slice_base_ + rng_.Uniform(w_.slice_keys));
      op.add = rng_.Bernoulli(w_.add_frac);
    }
    plan->deep_abort = w_.levels > 1 && rng_.Bernoulli(w_.deep_abort);
  }

 private:
  const Workload& w_;
  Rng rng_;
  std::optional<Zipf> zipf_;
  uint64_t slice_base_;
};

// The phases of a pass, stepped by the main thread.
enum Phase : int { kWarmup, kWindow, kStop };

// What one client's top-level transactions that finished inside the
// window did. Those outside it (warmup, the stragglers after it) count
// only toward conservation.
struct ClientPass {
  uint64_t commits = 0;
  uint64_t failed = 0;
  Histogram latency;
  uint64_t attempts = 0;
  uint64_t child_aborts = 0;
  uint64_t commit_calls = 0;
  std::string first_error;
};

class Client {
 public:
  Client(const Workload& w, const std::vector<std::string>& keys,
         uint64_t seed, int id)
      : w_(w),
        keys_(keys),
        plans_(w, seed, id),
        id_(id),
        per_level_((w.accesses + w.levels - 1) / w.levels) {}

  // Runs transactions until `phase` reaches kStop.
  void Run(Database& db, const std::atomic<int>& phase, ClientPass* out,
           Tracer* tracer) {
    for (;;) {
      const int start_phase = phase.load(std::memory_order_relaxed);
      if (start_phase == kStop) return;
      tr_ = start_phase == kWindow ? tracer : nullptr;
      child_aborts_ = 0;
      commit_calls_ = 0;
      int attempts = 0;
      const uint64_t start = MonotonicNowNs();
      const uint64_t txn = ++txn_seq_ | uint64_t(id_) << 48;
      const uint32_t root = tr_ ? tr_->BeginTxn(txn) : 0;
      Status s = Status::OK();
      do {
        // A retry runs the client's next plan. Re-running the failed plan
        // livelocks: two plans that read and then Add the same hot key
        // deadlock on the upgrade every time they meet.
        plans_.Next(&plan_);
        ++attempts;
        s = Attempt(db, root);
      } while (!s.ok() && Retryable(s) && attempts < kMaxAttempts);
      const uint64_t end = MonotonicNowNs();
      if (tr_) tr_->EndTxn(root, start, end);

      if (phase.load(std::memory_order_relaxed) != kWindow) continue;
      out->attempts += attempts;
      out->child_aborts += child_aborts_;
      out->commit_calls += commit_calls_;
      if (s.ok()) {
        ++out->commits;
        out->latency.Record(end - start);
      } else {
        ++out->failed;
        if (out->first_error.empty()) out->first_error = s.ToString();
      }
    }
  }

  uint64_t committed_adds() const { return committed_adds_; }

 private:
  // One attempt of the current plan; committed Adds are credited only
  // once the top-level commit succeeds.
  Status Attempt(Database& db, uint32_t root) {
    std::unique_ptr<Transaction> t =
        Timed(tr_, kSpanBegin, root, [&] { return db.Begin(); });
    if (t == nullptr) return db.manager().failure();
    uint64_t adds = 0;
    Status s = RunLevel(*t, 0, root, &adds);
    if (s.ok()) {
      ++commit_calls_;
      s = Timed(tr_, kSpanCommit, root, [&] { return t->Commit(); });
      if (s.ok()) {
        committed_adds_ += adds;
        return s;
      }
    }
    if (!t->returned()) {
      Timed(tr_, kSpanAbort, root, [&] { return t->Abort(); });
    }
    return s;
  }

  // Level `level`'s accesses on `t`, then the next level as a child of
  // `t`. `*adds` gains the Adds that committed into `t`'s subtree. A
  // voluntary deep abort is retried once by the parent; any engine
  // failure aborts the child and propagates, so the top level retries.
  Status RunLevel(Transaction& t, int level, uint32_t span, uint64_t* adds) {
    const size_t begin = size_t(level) * per_level_;
    const size_t end = std::min(plan_.ops.size(), begin + per_level_);
    for (size_t i = begin; i < end; ++i) {
      const std::string& key = keys_[plan_.ops[i].key];
      if (plan_.ops[i].add) {
        auto r = Timed(tr_, kSpanWrite, span, [&] { return t.Add(key, 1); });
        if (!r.ok()) return r.status();
        ++*adds;
      } else {
        auto r = Timed(tr_, kSpanRead, span, [&] { return t.TryGet(key); });
        if (!r.ok()) return r.status();
      }
    }
    if (level + 1 >= w_.levels) return Status::OK();
    const bool child_is_deepest = level + 2 == w_.levels;
    for (int attempt = 0;; ++attempt) {
      const uint32_t child_span = tr_ ? tr_->NewId() : 0;
      const uint64_t start = tr_ ? MonotonicNowNs() : 0;
      auto child = Timed(tr_, kSpanChildBegin, child_span,
                         [&] { return t.BeginChild(); });
      if (!child.ok()) return child.status();
      Transaction& c = **child;
      uint64_t child_adds = 0;
      Status s = RunLevel(c, level + 1, child_span, &child_adds);
      const bool voluntary =
          s.ok() && child_is_deepest && attempt == 0 && plan_.deep_abort;
      if (s.ok() && !voluntary) {
        s = Timed(tr_, kSpanChildCommit, child_span,
                  [&] { return c.Commit(); });
        if (s.ok()) *adds += child_adds;
      }
      if (!s.ok() || voluntary) {
        ++child_aborts_;
        if (!c.returned()) {
          Timed(tr_, kSpanChildAbort, child_span, [&] { return c.Abort(); });
        }
      }
      if (tr_) {
        tr_->Record(kSpanSubtransaction, child_span, span, start,
                    MonotonicNowNs());
      }
      if (!voluntary) return s;
    }
  }

  const Workload& w_;
  const std::vector<std::string>& keys_;
  PlanSource plans_;
  const int id_;
  const size_t per_level_;
  Plan plan_;
  uint64_t txn_seq_ = 0;
  uint64_t committed_adds_ = 0;  // every pass, warmup included
  // Per-transaction scratch.
  Tracer* tr_ = nullptr;
  uint64_t child_aborts_ = 0;
  uint64_t commit_calls_ = 0;
};

// ---------------------------------------------------------------------
// Passes: clients run against one database through a warmup and a timed
// window. The window's metrics are whole-window figures: across 10-run
// batches, whole-window throughput spread 6-11% where the median of five
// 2-s slices spread 9-12%, since the host's speed drifts in steps of
// seconds that a slice median follows and a window average smooths.

struct PassResult {
  double txn_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t attempts = 0;
  uint64_t child_aborts = 0;
  uint64_t commit_calls = 0;
  std::string first_error;
  StatsSnapshot stats_before, stats_after;
  std::array<HistogramSnapshot, nestedtx::kHistNumHistograms> hist_before,
      hist_after;
};

void SnapshotEngine(Database& db, StatsSnapshot* stats,
                    std::array<HistogramSnapshot,
                               nestedtx::kHistNumHistograms>* hists) {
  *stats = db.stats().Snapshot();
  for (int h = 0; h < nestedtx::kHistNumHistograms; ++h) {
    (*hists)[h] = db.metrics().SnapshotHistogram(HistogramId(h));
  }
}

PassResult RunPass(Database& db, std::vector<Client>& clients, int nclients,
                   std::vector<std::unique_ptr<Tracer>>* tracers,
                   double warmup_s, double window_s) {
  using Clock = std::chrono::steady_clock;
  std::atomic<int> phase{kWarmup};
  std::vector<ClientPass> passes(nclients);
  std::vector<std::thread> threads;
  threads.reserve(nclients);
  for (int c = 0; c < nclients; ++c) {
    Tracer* tr = tracers ? (*tracers)[c].get() : nullptr;
    threads.emplace_back(
        [&, c, tr] { clients[c].Run(db, phase, &passes[c], tr); });
  }

  PassResult r;
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const Clock::time_point start = Clock::now();
  phase.store(kWindow, std::memory_order_relaxed);
  SnapshotEngine(db, &r.stats_before, &r.hist_before);
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(window_s)));
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  phase.store(kStop, std::memory_order_relaxed);
  SnapshotEngine(db, &r.stats_after, &r.hist_after);
  for (std::thread& t : threads) t.join();

  Histogram latency;
  for (const ClientPass& p : passes) {
    latency.Merge(p.latency);
    r.committed += p.commits;
    r.failed += p.failed;
    r.attempts += p.attempts;
    r.child_aborts += p.child_aborts;
    r.commit_calls += p.commit_calls;
    if (r.first_error.empty()) r.first_error = p.first_error;
  }
  r.txn_per_s = double(r.committed) / elapsed_s;
  r.p50_us = latency.Percentile(0.50) / 1e3;
  r.p99_us = latency.Percentile(0.99) / 1e3;
  return r;
}

// ---------------------------------------------------------------------
// Set-up and checks.

// Deletes a log directory, then commits the filesystem. With online
// discard (ext4 `-o discard`), freed blocks are trimmed at the next
// journal commit, and a large trim stalls whatever writes next: here,
// the WAL appends of a timed set-up or window.
void RemoveLogDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  const int fd = ::open(std::filesystem::path(dir).parent_path().c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
}

std::unique_ptr<Database> Setup(const EngineOptions& options,
                                const std::vector<std::string>& keys,
                                Tracer* tr) {
  auto db = std::make_unique<Database>(options);
  for (const std::string& key : keys) {
    Timed(tr, kSpanPreload, 0, [&] {
      db->Preload(key, 0);
      return 0;
    });
  }
  return db;
}

struct RestartCheck {
  bool ok = false;
  double recover_s = 0;
  uint64_t records = 0;  // snapshot keys loaded + log records replayed
  std::string detail;
};

// Closes `db`, reopens the log directory, recovers, and compares every
// key with the value the live store held at close.
RestartCheck CheckRestart(std::unique_ptr<Database> db,
                          const EngineOptions& options,
                          const std::vector<std::string>& keys, Tracer* tr) {
  std::vector<std::optional<int64_t>> live;
  live.reserve(keys.size());
  for (const std::string& key : keys) live.push_back(db->ReadCommitted(key));
  db.reset();  // joins the checkpoint thread and flushes the log tail

  RestartCheck out;
  Database reopened(options);
  const uint64_t start = MonotonicNowNs();
  const Status s =
      Timed(tr, kSpanRecover, 0, [&] { return reopened.Recover(); });
  out.recover_s = double(MonotonicNowNs() - start) / 1e9;
  const StatsSnapshot st = reopened.stats().Snapshot();
  out.records = st.wal_snapshot_keys_loaded + st.wal_recovery_replayed;
  if (!s.ok()) {
    out.detail = "Recover failed: " + s.ToString();
    return out;
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (reopened.ReadCommitted(keys[i]) != live[i]) ++mismatches;
  }
  out.ok = mismatches == 0;
  out.detail = out.ok ? "every key equals the live store"
                      : std::to_string(mismatches) + " keys differ";
  return out;
}

// ---------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json_ += json_.empty() ? "" : ", ";
    json_ += std::string("\"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "txn\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (const Tracer* tr : tracers) {
    for (const Span& s : tr->spans()) {
      std::fprintf(f, "%llx\t%u\t%u\t%s\t%llu\t%llu\n",
                   (unsigned long long)s.txn, s.id, s.parent,
                   kSpanNames[s.kind], (unsigned long long)s.start_ns,
                   (unsigned long long)s.end_ns);
    }
  }
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1"
                 " [--dir LOGDIR] [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int nclients = std::clamp(int(std::thread::hardware_concurrency()), 1,
                                  kMaxClients);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "clients=%d\n",
              w->name, (unsigned long long)args.seed, args.seconds,
              args.trace ? 1 : 0, nclients);

  std::vector<std::string> keys;
  keys.reserve(size_t{1} << w->key_bits);
  for (size_t k = 0; k < (size_t{1} << w->key_bits); ++k) {
    keys.push_back("k" + std::to_string(k));
  }

  // Set-up is timed kSetups times before the window, the last database
  // built being the one measured, and kSetups times after the checks, so
  // that setup_s, the median, spans the run's drift in host speed. A
  // durable set-up gets a fresh log directory each time.
  std::unique_ptr<Tracer> setup_tracer;
  if (args.trace) setup_tracer = std::make_unique<Tracer>();
  EngineOptions options;
  std::unique_ptr<Database> db;
  std::vector<double> setup_s;
  int setups = 0;
  auto set_up = [&] {
    db.reset();
    if (!options.wal_dir.empty()) RemoveLogDir(options.wal_dir);
    const std::string wal_dir = args.dir + "/wal-" + std::to_string(setups++);
    options = OptionsFor(*w, wal_dir);
    const uint64_t start = MonotonicNowNs();
    db = Setup(options, keys, setup_tracer.get());
    setup_s.push_back(double(MonotonicNowNs() - start) / 1e9);
  };
  for (int i = 0; i < kSetups; ++i) set_up();

  std::vector<Client> clients;
  clients.reserve(nclients);
  for (int c = 0; c < nclients; ++c) {
    clients.emplace_back(*w, keys, args.seed, c);
  }

  std::vector<PassResult> passes;
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (!args.trace) {
    passes.push_back(
        RunPass(*db, clients, nclients, nullptr, kWarmupSeconds, args.seconds));
  } else {
    for (int c = 0; c < nclients; ++c) {
      tracers.push_back(std::make_unique<Tracer>());
    }
    passes.push_back(RunPass(*db, clients, nclients, nullptr, kWarmupSeconds,
                             args.seconds / 2));
    passes.push_back(
        RunPass(*db, clients, 1, nullptr, kRewarmSeconds, args.seconds / 2));
    passes.push_back(RunPass(*db, clients, nclients, &tracers, kRewarmSeconds,
                             args.seconds));
  }
  // Peak RSS over set-up and the window; the checks below may add more.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // Conservation: every key was preloaded to 0 and only Add(key, 1)
  // writes, so the store must sum to the Adds of committed subtrees.
  uint64_t expected = 0;
  for (const Client& c : clients) expected += c.committed_adds();
  int64_t sum = 0;
  for (const std::string& key : keys) sum += db->ReadCommitted(key).value_or(0);
  const bool conserved = sum >= 0 && uint64_t(sum) == expected;
  std::printf("check conservation: store sum %lld, committed adds %llu: %s\n",
              (long long)sum, (unsigned long long)expected,
              conserved ? "ok" : "FAILED");

  RestartCheck restart;
  restart.ok = true;
  if (w->durable) {
    restart = CheckRestart(std::move(db), options, keys, setup_tracer.get());
    std::printf("check restart: recovered in %.3f s: %s\n", restart.recover_s,
                restart.detail.c_str());
  }
  for (int i = 0; i < kSetups; ++i) set_up();
  db.reset();
  if (!options.wal_dir.empty()) RemoveLogDir(options.wal_dir);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.committed + p.failed;
    failed += p.failed;
    if (!p.first_error.empty()) {
      std::printf("first failure: %s\n", p.first_error.c_str());
    }
  }

  const PassResult& main_pass = passes.back();
  std::printf("window: %llu commits (latency samples), %llu failed\n",
              (unsigned long long)main_pass.committed,
              (unsigned long long)main_pass.failed);

  Metrics metrics;
  if (!args.trace) {
    metrics.Add("txn_per_s", main_pass.txn_per_s, "1/s");
    metrics.Add("txn_p50_us", main_pass.p50_us, "us");
    metrics.Add("txn_p99_us", main_pass.p99_us, "us");
    metrics.Add("rss_mb", double(ru.ru_maxrss) / 1024.0, "MiB");
    metrics.Add("setup_s", Median(setup_s), "s");
  } else {
    Histogram spans[kNumSpanKinds];
    Histogram self;
    std::vector<const Tracer*> all = {setup_tracer.get()};
    for (int k = 0; k < kNumSpanKinds; ++k) {
      spans[k].Merge(setup_tracer->hist(SpanKind(k)));
    }
    for (const auto& tr : tracers) {
      for (int k = 0; k < kNumSpanKinds; ++k) {
        spans[k].Merge(tr->hist(SpanKind(k)));
      }
      self.Merge(tr->self());
      all.push_back(tr.get());
    }
    const PassResult& untraced = passes[0];
    const PassResult& single = passes[1];
    const PassResult& traced = passes[2];
    using S = StatsSnapshot;
    auto delta = [&](uint64_t S::*f) {
      return double(traced.stats_after.*f - traced.stats_before.*f);
    };
    const double ktxn = delta(&S::top_level_committed) / 1e3;
    auto per_ktxn = [&](uint64_t S::*f) { return Ratio(delta(f), ktxn); };
    auto engine = [&](HistogramId h, double q) {
      return DeltaPercentile(traced.hist_before[h], traced.hist_after[h], q);
    };
    auto span = [&](SpanKind k, double q) { return spans[k].Percentile(q); };
    const double fast_grants =
        delta(&S::fast_read_grants) + delta(&S::fast_write_grants) +
        delta(&S::fast_read_reacquires) + delta(&S::fast_write_reacquires);

    metrics.Add("transaction.begin_ns_p50", span(kSpanBegin, 0.50), "ns");
    metrics.Add("transaction.begin_ns_p99", span(kSpanBegin, 0.99), "ns");
    metrics.Add("transaction.read_ns_p50", span(kSpanRead, 0.50), "ns");
    metrics.Add("transaction.read_ns_p99", span(kSpanRead, 0.99), "ns");
    metrics.Add("transaction.write_ns_p50", span(kSpanWrite, 0.50), "ns");
    metrics.Add("transaction.write_ns_p99", span(kSpanWrite, 0.99), "ns");
    metrics.Add("transaction.commit_ns_p50", span(kSpanCommit, 0.50), "ns");
    metrics.Add("transaction.commit_ns_p99", span(kSpanCommit, 0.99), "ns");
    metrics.Add("transaction.abort_ns_p50", span(kSpanAbort, 0.50), "ns");
    metrics.Add("transaction.child_begin_ns_p50",
                span(kSpanChildBegin, 0.50), "ns");
    metrics.Add("transaction.child_commit_ns_p50",
                span(kSpanChildCommit, 0.50), "ns");
    metrics.Add("transaction.child_commit_ns_p99",
                span(kSpanChildCommit, 0.99), "ns");
    metrics.Add("transaction.child_abort_ns_p50",
                span(kSpanChildAbort, 0.50), "ns");
    metrics.Add("transaction.attempts_per_commit",
                Ratio(double(traced.attempts), double(traced.committed)),
                "ratio");
    metrics.Add("transaction.child_aborts_per_ktxn",
                Ratio(double(traced.child_aborts), traced.committed / 1e3),
                "1/ktxn");
    metrics.Add("lock_manager.fast_grant_frac",
                Ratio(fast_grants, delta(&S::lock_grants)), "ratio");
    metrics.Add("lock_manager.inflations_per_ktxn",
                per_ktxn(&S::lock_word_inflations), "1/ktxn");
    metrics.Add("cc_policy.deadlocks_per_ktxn", per_ktxn(&S::deadlocks),
                "1/ktxn");
    metrics.Add("lock_manager.waits_per_ktxn", per_ktxn(&S::lock_waits),
                "1/ktxn");
    metrics.Add("lock_manager.wait_ns_p50",
                engine(nestedtx::kHistLockWaitNs, 0.50), "ns");
    metrics.Add("lock_manager.wait_ns_p99",
                engine(nestedtx::kHistLockWaitNs, 0.99), "ns");
    metrics.Add("lock_manager.release_ns_p50",
                engine(nestedtx::kHistCommitReleaseNs, 0.50), "ns");
    metrics.Add("lock_manager.release_ns_p99",
                engine(nestedtx::kHistCommitReleaseNs, 0.99), "ns");
    metrics.Add("occ.validation_aborts_per_ktxn",
                per_ktxn(&S::occ_validation_aborts), "1/ktxn");
    metrics.Add("occ.commit_frac",
                Ratio(delta(&S::occ_commits), double(traced.commit_calls)),
                "ratio");
    metrics.Add("wal.records_per_group",
                Ratio(delta(&S::wal_appends), delta(&S::group_commit_batches)),
                "records/group");
    metrics.Add("wal.bytes_per_txn", per_ktxn(&S::wal_bytes) / 1e3, "B/txn");
    metrics.Add("wal.write_ns_p50", engine(nestedtx::kHistWalFsyncNs, 0.50),
                "ns");
    metrics.Add("wal.write_ns_p99", engine(nestedtx::kHistWalFsyncNs, 0.99),
                "ns");
    metrics.Add("wal.checkpoints", delta(&S::wal_checkpoints), "count");
    metrics.Add("wal.checkpoint_truncated_mb",
                delta(&S::wal_checkpoint_truncated) / double(1 << 20), "MiB");
    metrics.Add("database.preload_ns_mean", spans[kSpanPreload].Mean(), "ns");
    metrics.Add("database.recover_s", restart.recover_s, "s");
    metrics.Add("database.recover_records_per_s",
                Ratio(double(restart.records), restart.recover_s),
                "records/s");
    metrics.Add("client.self_ns_p50", self.Percentile(0.50), "ns");
    metrics.Add("client.scaling_x",
                Ratio(untraced.txn_per_s, single.txn_per_s), "x");
    metrics.Add("trace.overhead_frac",
                1.0 - Ratio(traced.txn_per_s, untraced.txn_per_s), "ratio");
    if (!args.spans.empty()) WriteSpans(args.spans, all);
  }

  const bool correct = conserved && restart.ok && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed, metrics.json().c_str());
  return correct ? 0 : 1;
}
