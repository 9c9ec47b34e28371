// E9 — ablations of the engine's design choices (DESIGN.md §4):
//
//  (a) Deadlock resolution: the wait-for graph (the requester that
//      closes a cycle dies immediately) under order-inverting write
//      contention — the throughput DESIGN.md §4 items 4-5 rest on.
//  (b) Read-lock acquisition for read-modify-write: Get-then-Add (shared
//      lock first, upgrade later) vs. GetForUpdate-then-Add (exclusive
//      from the start). Expected shape: upgrade path deadlocks heavily
//      under contention; for-update avoids nearly all of it.
//
// With --json, results are also written to BENCH_ablation.json.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/database.h"
#include "engine_harness.h"
#include "util/random.h"

using namespace nestedtx;
using namespace nestedtx::bench;

namespace {

void DeadlockResolution(JsonResultFile* json) {
  std::printf("E9a: deadlock resolution (8 threads, 4 keys, "
              "all writes, 100us dwell)\n");
  std::printf("%22s | %10s %10s %10s\n", "policy", "txn/s", "deadlocks",
              "timeouts");
  const char* label = "graph/200ms";
  WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.num_keys = 4;
  cfg.read_ratio = 0.0;
  cfg.accesses_per_txn = 3;
  cfg.dwell_us_per_access = 100;
  cfg.duration_seconds = 0.6;
  cfg.lock_timeout = std::chrono::milliseconds(200);
  // Inline rather than RunWorkload: this row retries through
  // Database::RunTransaction (jittered backoff).
  EngineOptions options;
  options.cc_mode = cfg.mode;
  options.lock_timeout = cfg.lock_timeout;
  Database db(options);
  std::vector<std::string> keys;
  for (int k = 0; k < cfg.num_keys; ++k) {
    keys.push_back(StrCat("k", k));
    db.Preload(keys.back(), 0);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  Stopwatch clock;
  for (int w = 0; w < cfg.threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(w * 31 + 5);
      Zipf zipf(cfg.num_keys, 0.0);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t ops = 0;
        Status s = db.RunTransaction(60, [&](Transaction& t) {
          return RunOneTransaction(cfg, t, keys, rng, zipf, &ops);
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  while (clock.ElapsedSeconds() < cfg.duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : workers) t.join();
  const double txn_per_sec = committed.load() / clock.ElapsedSeconds();
  const StatsSnapshot snap = db.stats().Snapshot();
  std::printf("%22s | %10.0f %10llu %10llu\n", label, txn_per_sec,
              (unsigned long long)snap.deadlocks,
              (unsigned long long)snap.lock_timeouts);
  if (json != nullptr) {
    json->Add(StrCat("e9a/", label))
        .Num("txn_per_sec", txn_per_sec)
        .Int("deadlocks", snap.deadlocks)
        .Int("lock_timeouts", snap.lock_timeouts);
  }
}

void ForUpdateAblation(JsonResultFile* json) {
  std::printf("\nE9b: read-then-write vs read-for-update (8 threads, "
              "2 hot keys, 100us dwell)\n");
  std::printf("%16s | %10s %10s %10s\n", "variant", "txn/s", "deadlocks",
              "goodput");
  for (bool for_update : {false, true}) {
    EngineOptions options;
    options.lock_timeout = std::chrono::milliseconds(200);
    Database db(options);
    db.Preload("a", 0);
    db.Preload("b", 0);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> committed{0}, attempts{0};
    std::vector<std::thread> workers;
    Stopwatch clock;
    for (int w = 0; w < 8; ++w) {
      workers.emplace_back([&, w] {
        Rng rng(w * 17 + 3);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string key = rng.Bernoulli(0.5) ? "a" : "b";
          Status s = db.RunTransaction(60, [&](Transaction& t) -> Status {
            attempts.fetch_add(1);
            // Read-modify-write with a dwell between read and write —
            // the upgrade-deadlock window.
            Result<std::optional<int64_t>> v =
                for_update ? t.GetForUpdate(key) : t.TryGet(key);
            if (!v.ok()) return v.status();
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            return t.Put(key, v->value_or(0) + 1);
          });
          if (s.ok()) committed.fetch_add(1);
        }
      });
    }
    while (clock.ElapsedSeconds() < 0.6) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& t : workers) t.join();
    const char* label = for_update ? "get-for-update" : "get-then-put";
    const double txn_per_sec = committed.load() / clock.ElapsedSeconds();
    const double goodput =
        100.0 * committed.load() / std::max<uint64_t>(attempts.load(), 1);
    const StatsSnapshot snap = db.stats().Snapshot();
    std::printf("%16s | %10.0f %10llu %9.1f%%\n", label, txn_per_sec,
                (unsigned long long)snap.deadlocks, goodput);
    if (json != nullptr) {
      json->Add(StrCat("e9b/", label))
          .Num("txn_per_sec", txn_per_sec)
          .Int("deadlocks", snap.deadlocks)
          .Num("goodput_pct", goodput);
    }
  }
}

// (d) Per-key lock word on vs. off (EngineOptions::lock_word_enabled),
//     CPU-bound read-mostly cell. Expected shape: the word serves almost
//     every grant and repeat read without a key mutex, so word-on leads;
//     off recovers the pre-lock-word mutex-only engine (DESIGN.md §5).
void LockWordAblation(JsonResultFile* json) {
  std::printf("\nE9d: lock word ablation (2 threads, 16 keys, 90%% reads, "
              "CPU-bound)\n");
  std::printf("%10s | %12s %12s\n", "lock word", "txn/s", "ops/s");
  for (bool enabled : {true, false}) {
    WorkloadConfig cfg;
    cfg.threads = 2;
    cfg.num_keys = 16;
    cfg.read_ratio = 0.9;
    cfg.accesses_per_txn = 8;
    cfg.dwell_us_per_access = 0;
    cfg.duration_seconds = 0.6;
    cfg.lock_word_enabled = enabled;
    WorkloadResult r = RunWorkload(cfg);
    std::printf("%10s | %12.0f %12.0f\n", enabled ? "on" : "off",
                r.TxnPerSec(), r.OpsPerSec());
    if (json != nullptr) {
      AddWorkloadEntry(*json, StrCat("e9d/lock_word_", enabled ? "on" : "off"),
                       cfg, r);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonResultFile json("ablation");
  JsonResultFile* out = HasFlag(argc, argv, "--json") ? &json : nullptr;
  DeadlockResolution(out);
  ForUpdateAblation(out);
  LockWordAblation(out);
  if (out != nullptr) out->Write();
  return 0;
}
