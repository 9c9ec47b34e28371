// Shared workload driver for the engine experiments (E3-E6): time-boxed
// multithreaded runs of a parameterized transaction mix, reporting
// throughput and engine counters. Used by the bench_engine_* binaries.
#ifndef NESTEDTX_BENCH_ENGINE_HARNESS_H_
#define NESTEDTX_BENCH_ENGINE_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "bench_json.h"
#include "core/database.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace nestedtx {
namespace bench {

struct WorkloadConfig {
  CcMode mode = CcMode::kMossRW;
  /// Conflict scheduling (EngineOptions::cc_protocol): deadlock
  /// detection (default), wait-die or no-wait. The E15 shootout sweeps
  /// this axis; every other bench pins the default so baselines carry.
  CcProtocol cc_protocol = CcProtocol::kDetect;
  int threads = 8;
  int num_keys = 16;
  double zipf_theta = 0.0;       // key popularity skew
  double read_ratio = 0.5;       // P(an access is a read)
  int accesses_per_txn = 4;
  int nesting_depth = 1;  // accesses spread over this many levels
  /// P(the DEEPEST subtransaction level aborts voluntarily). Injected at
  /// the leaf so the partial-abort comparison is crisp: nested modes redo
  /// one leaf subtree, flat 2PL redoes the whole transaction.
  double subtxn_abort_prob = 0;
  /// Time spent "using" each accessed value while holding its lock —
  /// models the I/O / RPC dwell of the paper's Argus setting. On this
  /// single-core host it is also what makes throughput measure
  /// concurrency admission rather than raw CPU scheduling: sleeping
  /// lock-holders overlap, spinning ones cannot (see DESIGN.md).
  int dwell_us_per_access = 0;
  double duration_seconds = 0.4;
  int max_attempts = 50;
  std::chrono::milliseconds lock_timeout{200};
  /// Observability knobs, passed through to EngineOptions. Defaults match
  /// the engine's (metrics on, spans off) so every existing bench
  /// measures what production would run; bench_observability (E13) sweeps
  /// them to price the instrumentation itself.
  bool metrics_enabled = true;
  uint32_t span_sample_one_in = 0;
  /// Per-key atomic lock word (EngineOptions::lock_word_enabled). Off =
  /// every key born inflated: the mutex-only engine, as an A/B baseline.
  bool lock_word_enabled = true;
  /// Pin worker w to core w % hardware_concurrency (Linux only; no-op
  /// elsewhere). Steadies the E14 core-scaling sweep against migration.
  bool pin_threads = false;
};

struct WorkloadResult {
  uint64_t committed = 0;   // top-level commits
  uint64_t failed = 0;      // gave up after retries
  uint64_t attempts = 0;    // total top-level attempts
  uint64_t ops = 0;         // committed accesses
  double seconds = 0;
  uint64_t lock_waits = 0;
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t prevention_aborts = 0;  // wait-die / no-wait deaths
  uint64_t occ_validation_aborts = 0;  // kOcc stale commits
  // Engine latency histograms at the end of the run (all-zero when the
  // workload ran with metrics_enabled = false).
  HistogramSnapshot lock_wait_hist;
  HistogramSnapshot txn_hist;
  HistogramSnapshot commit_release_hist;

  double TxnPerSec() const { return seconds > 0 ? committed / seconds : 0; }
  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0; }
  /// Fraction of attempts that committed (wasted-work proxy).
  double Goodput() const {
    return attempts > 0 ? double(committed) / double(attempts) : 0;
  }
};

/// Pin the calling thread to core `w % hardware_concurrency`. Linux
/// only; a silent no-op elsewhere (the sweep still runs, just subject
/// to scheduler migration).
inline void PinThisThread(int w) {
#if defined(__linux__)
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(w) % cores, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)w;
#endif
}

namespace internal {

// Per-attempt state shared down the nesting recursion.
struct TxnRun {
  const WorkloadConfig& cfg;
  const std::vector<std::string>& keys;  // precomputed "k0".."kN-1"
  Rng& rng;
  Zipf& zipf;
  int levels;
  int per_level;
  int remaining;
  uint64_t ops = 0;
};

inline Status RunLevel(TxnRun& run, Transaction& parent, int level) {
  const WorkloadConfig& cfg = run.cfg;
  // This level's accesses.
  const int mine = level == run.levels - 1
                       ? run.remaining
                       : std::min(run.per_level, run.remaining);
  run.remaining -= mine;
  for (int i = 0; i < mine; ++i) {
    const std::string& key = run.keys[run.zipf.Next(run.rng)];
    if (run.rng.Bernoulli(cfg.read_ratio)) {
      auto r = parent.TryGet(key);
      if (!r.ok()) return r.status();
    } else {
      auto r = parent.Add(key, 1);
      if (!r.ok()) return r.status();
    }
    if (cfg.dwell_us_per_access > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(cfg.dwell_us_per_access));
    }
    ++run.ops;
  }
  if (level + 1 >= run.levels || run.remaining <= 0) return Status::OK();
  // Descend one nesting level as a subtransaction, with one retry on a
  // voluntary abort (the partial-abort pattern).
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto child = parent.BeginChild();
    if (!child.ok()) return child.status();
    const int saved_remaining = run.remaining;
    Status s = RunLevel(run, **child, level + 1);
    const bool child_is_deepest = level + 1 == run.levels - 1;
    if (s.ok() && child_is_deepest && cfg.subtxn_abort_prob > 0 &&
        run.rng.Bernoulli(cfg.subtxn_abort_prob)) {
      s = Status::Aborted("injected subtransaction failure");
    }
    if (s.ok()) {
      s = (*child)->Commit();
      if (s.ok()) return Status::OK();
    }
    if (!(*child)->returned()) (*child)->Abort();
    if (!s.IsAborted() && !s.IsDeadlock() && !s.IsTimedOut()) return s;
    run.remaining = saved_remaining;  // redo the subtree's work
  }
  return Status::Aborted("subtree failed twice");
}

}  // namespace internal

// One transaction: `accesses_per_txn` accesses distributed over a chain
// of `nesting_depth` subtransaction levels; each level may spontaneously
// abort with `subtxn_abort_prob` (and is retried once by its parent —
// partial abort under nesting, doom-and-restart under flat 2PL).
// `op_count` receives the number of accesses this attempt performed.
inline Status RunOneTransaction(const WorkloadConfig& cfg, Transaction& txn,
                                const std::vector<std::string>& keys,
                                Rng& rng, Zipf& zipf, uint64_t* op_count) {
  const int levels = cfg.nesting_depth < 1 ? 1 : cfg.nesting_depth;
  internal::TxnRun run{cfg,
                       keys,
                       rng,
                       zipf,
                       levels,
                       (cfg.accesses_per_txn + levels - 1) / levels,
                       cfg.accesses_per_txn};
  Status s = internal::RunLevel(run, txn, 0);
  *op_count = run.ops;
  return s;
}

inline WorkloadResult RunWorkload(const WorkloadConfig& raw_cfg) {
  WorkloadConfig cfg = raw_cfg;
  // CI's smoke step only proves the binary runs end to end; one short
  // time box per cell keeps a whole sweep under a second.
  if (Smoke()) cfg.duration_seconds = std::min(cfg.duration_seconds, 0.02);
  EngineOptions options;
  options.cc_mode = cfg.mode;
  options.cc_protocol = cfg.cc_protocol;
  options.lock_timeout = cfg.lock_timeout;
  options.metrics_enabled = cfg.metrics_enabled;
  options.span_sample_one_in = cfg.span_sample_one_in;
  options.lock_word_enabled = cfg.lock_word_enabled;
  Database db(options);
  std::vector<std::string> keys;
  keys.reserve(cfg.num_keys);
  for (int k = 0; k < cfg.num_keys; ++k) {
    keys.push_back(StrCat("k", k));
    db.Preload(keys.back(), 0);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0}, failed{0}, attempts{0}, ops{0};
  std::vector<std::thread> workers;
  Stopwatch clock;
  for (int w = 0; w < cfg.threads; ++w) {
    workers.emplace_back([&, w] {
      if (cfg.pin_threads) PinThisThread(w);
      Rng rng(w * 7919 + 101);
      Zipf zipf(cfg.num_keys, cfg.zipf_theta);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t txn_ops = 0;
        Status s = Status::Aborted("");
        int attempt = 0;
        for (; attempt < cfg.max_attempts; ++attempt) {
          auto txn = db.Begin();
          s = RunOneTransaction(cfg, *txn, keys, rng, zipf, &txn_ops);
          if (s.ok()) {
            s = txn->Commit();
            if (s.ok()) break;
          }
          if (!txn->returned()) txn->Abort();
          if (!s.IsAborted() && !s.IsDeadlock() && !s.IsTimedOut()) break;
        }
        attempts.fetch_add(attempt + 1);
        if (s.ok()) {
          committed.fetch_add(1);
          ops.fetch_add(txn_ops);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  while (clock.ElapsedSeconds() < cfg.duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : workers) t.join();

  WorkloadResult result;
  result.committed = committed.load();
  result.failed = failed.load();
  result.attempts = attempts.load();
  result.ops = ops.load();
  result.seconds = clock.ElapsedSeconds();
  const StatsSnapshot stats = db.stats().Snapshot();
  result.lock_waits = stats.lock_waits;
  result.deadlocks = stats.deadlocks;
  result.timeouts = stats.lock_timeouts;
  result.prevention_aborts = stats.prevention_aborts;
  result.occ_validation_aborts = stats.occ_validation_aborts;
  MetricsRegistry& metrics = db.metrics();
  result.lock_wait_hist = metrics.SnapshotHistogram(kHistLockWaitNs);
  result.txn_hist = metrics.SnapshotHistogram(kHistTxnNs);
  result.commit_release_hist =
      metrics.SnapshotHistogram(kHistCommitReleaseNs);
  return result;
}

/// Record one workload run (config + results) as a BENCH_*.json entry.
/// Returns the entry so callers can chain experiment-specific fields.
inline JsonResultFile::Entry& AddWorkloadEntry(JsonResultFile& out,
                                               const std::string& name,
                                               const WorkloadConfig& cfg,
                                               const WorkloadResult& r) {
  return out.Add(name)
      .Str("mode", CcModeName(cfg.mode))
      .Str("cc_protocol", CcProtocolName(cfg.cc_protocol))
      .Int("threads", cfg.threads)
      .Int("num_keys", cfg.num_keys)
      .Num("zipf_theta", cfg.zipf_theta)
      .Num("read_ratio", cfg.read_ratio)
      .Int("accesses_per_txn", cfg.accesses_per_txn)
      .Int("nesting_depth", cfg.nesting_depth)
      .Num("subtxn_abort_prob", cfg.subtxn_abort_prob)
      .Int("dwell_us_per_access", cfg.dwell_us_per_access)
      .Int("lock_word", cfg.lock_word_enabled ? 1 : 0)
      .Num("duration_seconds", r.seconds)
      .Num("txn_per_sec", r.TxnPerSec())
      .Num("ops_per_sec", r.OpsPerSec())
      .Num("goodput", r.Goodput())
      .Int("committed", r.committed)
      .Int("failed", r.failed)
      .Int("lock_waits", r.lock_waits)
      .Int("deadlocks", r.deadlocks)
      .Int("timeouts", r.timeouts)
      .Int("prevention_aborts", r.prevention_aborts)
      .Int("occ_validation_aborts", r.occ_validation_aborts)
      // Latency histogram digests (log2-bucket upper bounds, so p-values
      // are conservative; 0 when the histogram recorded nothing).
      .Int("txn_p50_ns", r.txn_hist.Percentile(0.50))
      .Int("txn_p99_ns", r.txn_hist.Percentile(0.99))
      .Num("txn_mean_ns", r.txn_hist.MeanNs())
      .Int("lock_wait_count", r.lock_wait_hist.count)
      .Int("lock_wait_p50_ns", r.lock_wait_hist.Percentile(0.50))
      .Int("lock_wait_p99_ns", r.lock_wait_hist.Percentile(0.99))
      .Int("commit_release_p50_ns", r.commit_release_hist.Percentile(0.50))
      .Int("commit_release_p99_ns", r.commit_release_hist.Percentile(0.99));
}

}  // namespace bench
}  // namespace nestedtx

#endif  // NESTEDTX_BENCH_ENGINE_HARNESS_H_
