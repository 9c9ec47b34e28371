// E7 — lock-manager micro-costs (google-benchmark): the grant, conflict-
// check, commit-inherit and abort-purge paths of the §5.1 rules, at
// varying lock-table occupancy and nesting depth — plus the hot-path
// fast lanes added by the lock-manager overhaul: packed TransactionId
// construct/ancestor/hash ops, the held-lock repeat-acquire path, and
// the cold acquire path, reported in ns/op.
//
// Expected shape: grants O(holders) with small constants; inherit/purge
// O(keys held); deeper ancestry adds linear id-comparison cost; the
// repeat-acquire fast path beats the cold path by skipping the shard
// hash, conflict scan and holder-set insert.
//
// Run with --json to skip google-benchmark and instead write the micro
// results to BENCH_bench_lock_manager.json (see README "Benchmarks"),
// plus three memory rows: the lock table's resident bytes per preloaded
// key, per key touched once, and per never-written key read once.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "bench_json.h"
#include "core/database.h"
#include "core/lock_manager.h"
#include "util/strings.h"

using namespace nestedtx;

namespace {

EngineOptions Opts() {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(1);
  return o;
}

TransactionId DeepId(int depth, uint32_t leaf) {
  TransactionId t = TransactionId::Root();
  for (int i = 1; i < depth; ++i) t = t.Child(0);
  return t.Child(leaf);
}

// Uncontended read grant+release cycle.
void BM_ReadGrant(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  lm.SetBase("k", 1);
  uint32_t i = 0;
  for (auto _ : state) {
    const TransactionId txn = TransactionId::Root().Child(i++);
    benchmark::DoNotOptimize(lm.AcquireRead(txn, "k"));
    lm.OnAbort(txn, {"k"});
  }
}
BENCHMARK(BM_ReadGrant);

// Uncontended write grant (+version write) + abort-purge cycle.
void BM_WriteGrantAbort(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  uint32_t i = 0;
  for (auto _ : state) {
    const TransactionId txn = TransactionId::Root().Child(i++);
    benchmark::DoNotOptimize(lm.AcquireWrite(
        txn, "k", [](std::optional<int64_t> v) { return v.value_or(0); }));
    lm.OnAbort(txn, {"k"});
  }
}
BENCHMARK(BM_WriteGrantAbort);

// Read grant with N co-existing read locks (conflict scan cost).
void BM_ReadGrantWithReaders(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  lm.SetBase("k", 1);
  const int readers = static_cast<int>(state.range(0));
  for (int r = 0; r < readers; ++r) {
    (void)lm.AcquireRead(TransactionId::Root().Child(1000000 + r), "k");
  }
  uint32_t i = 0;
  for (auto _ : state) {
    const TransactionId txn = TransactionId::Root().Child(i++);
    benchmark::DoNotOptimize(lm.AcquireRead(txn, "k"));
    lm.OnAbort(txn, {"k"});
  }
}
BENCHMARK(BM_ReadGrantWithReaders)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// Grant cost vs. requester nesting depth (ancestor-compare cost).
void BM_WriteGrantAtDepth(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  const int depth = static_cast<int>(state.range(0));
  uint32_t i = 0;
  for (auto _ : state) {
    const TransactionId txn = DeepId(depth, i++);
    benchmark::DoNotOptimize(lm.AcquireWrite(
        txn, "k", [](std::optional<int64_t>) { return 1; }));
    lm.OnAbort(txn, {"k"});
  }
}
BENCHMARK(BM_WriteGrantAtDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Commit-inheritance cost: child holding N keys commits to its parent.
void BM_CommitInherit(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  const int nkeys = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  for (int k = 0; k < nkeys; ++k) keys.push_back(StrCat("k", k));
  const TransactionId parent = TransactionId::Root().Child(0);
  const TransactionId child = parent.Child(0);
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& k : keys) {
      (void)lm.AcquireWrite(child, k,
                            [](std::optional<int64_t>) { return 1; });
    }
    state.ResumeTiming();
    lm.OnCommit(child, parent, keys);
    state.PauseTiming();
    lm.OnAbort(parent, keys);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CommitInherit)->Arg(1)->Arg(8)->Arg(64);

// Batched commit fan-out with cached handles: the KeyHold overload skips
// every shard hash, groups stats/wait-graph traffic and defers wakeups —
// the release path a real transaction commit takes.
void BM_CommitFanoutHeld(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  const int nkeys = static_cast<int>(state.range(0));
  std::vector<std::string> names;
  for (int k = 0; k < nkeys; ++k) names.push_back(StrCat("k", k));
  const TransactionId parent = TransactionId::Root().Child(0);
  const TransactionId child = parent.Child(0);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<LockManager::KeyHold> holds;
    holds.reserve(names.size());
    for (const auto& k : names) {
      LockManager::HeldLock held;
      (void)lm.AcquireWrite(
          child, k, [](std::optional<int64_t>) { return 1; }, nullptr,
          &held);
      holds.push_back(LockManager::KeyHold{k, held});
    }
    state.ResumeTiming();
    lm.OnCommit(child, parent, holds);
    state.PauseTiming();
    lm.OnAbort(parent, names);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CommitFanoutHeld)->Arg(1)->Arg(16)->Arg(64);

// Abort-purge cost: a subtree holding N keys aborts.
void BM_AbortPurge(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  const int nkeys = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  for (int k = 0; k < nkeys; ++k) keys.push_back(StrCat("k", k));
  const TransactionId txn = TransactionId::Root().Child(0);
  for (auto _ : state) {
    state.PauseTiming();
    for (const auto& k : keys) {
      (void)lm.AcquireWrite(txn, k,
                            [](std::optional<int64_t>) { return 1; });
    }
    state.ResumeTiming();
    lm.OnAbort(txn, keys);
  }
}
BENCHMARK(BM_AbortPurge)->Arg(1)->Arg(8)->Arg(64);

// Version-stack read cost under a chain of D nested write versions.
void BM_ReadThroughVersionChain(benchmark::State& state) {
  EngineStats stats;
  LockManager lm(Opts(), &stats);
  const int depth = static_cast<int>(state.range(0));
  TransactionId t = TransactionId::Root();
  for (int d = 0; d < depth; ++d) {
    t = t.Child(0);
    (void)lm.AcquireWrite(t, "k",
                          [d](std::optional<int64_t>) { return d; });
  }
  const TransactionId reader = t.Child(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.AcquireRead(reader, "k"));
    lm.OnAbort(reader, {"k"});
  }
}
BENCHMARK(BM_ReadThroughVersionChain)->Arg(1)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// Fast-path micro section: TransactionId ops and the held-lock lanes.
// ---------------------------------------------------------------------

// Packed-id construction: Child() off a cached-hash parent (O(1) hash).
void BM_TxnIdChildHash(benchmark::State& state) {
  const TransactionId base = TransactionId::Root().Child(3).Child(1);
  uint32_t i = 0;
  for (auto _ : state) {
    TransactionId c = base.Child(i++ & 1023);
    benchmark::DoNotOptimize(c.Hash());
  }
}
BENCHMARK(BM_TxnIdChildHash);

// Word-wise prefix ancestor test at depth 6.
void BM_TxnIdIsAncestor(benchmark::State& state) {
  const TransactionId a = DeepId(3, 7);
  const TransactionId d = a.Child(0).Child(1).Child(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IsAncestorOf(d));
  }
}
BENCHMARK(BM_TxnIdIsAncestor);

// Engine-level repeat read: the held-lock fast lane (no shard hash, no
// conflict scan, no holder insert).
void BM_RepeatReadHeld(benchmark::State& state) {
  Database db;
  db.Preload("k", 1);
  auto txn = db.Begin();
  (void)txn->TryGet("k");
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->TryGet("k"));
  }
  txn->Abort();
}
BENCHMARK(BM_RepeatReadHeld);

// Engine-level repeat write under a held write lock.
void BM_RepeatWriteHeld(benchmark::State& state) {
  Database db;
  db.Preload("k", 0);
  auto txn = db.Begin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn->Add("k", 1));
  }
  txn->Abort();
}
BENCHMARK(BM_RepeatWriteHeld);

// Engine-level cold acquire: fresh transaction, one read, commit.
void BM_ColdTxnReadCommit(benchmark::State& state) {
  Database db;
  db.Preload("k", 1);
  for (auto _ : state) {
    auto txn = db.Begin();
    benchmark::DoNotOptimize(txn->TryGet("k"));
    (void)txn->Commit();
  }
}
BENCHMARK(BM_ColdTxnReadCommit);

// ---------------------------------------------------------------------
// --json mode: manual timing loops, written to BENCH_*.json.
// ---------------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double MeasureNsPerOp(int iters, Fn&& fn) {
  const double t0 = NowSeconds();
  for (int i = 0; i < iters; ++i) fn(i);
  return (NowSeconds() - t0) / iters * 1e9;
}

// Per-iteration untimed setup, timed body: what PauseTiming/ResumeTiming
// do for google-benchmark, for the manual --json loops.
template <typename Setup, typename Timed>
double MeasurePhasedNsPerOp(int iters, Setup&& setup, Timed&& timed) {
  double total = 0;
  for (int i = 0; i < iters; ++i) {
    setup(i);
    const double t0 = NowSeconds();
    timed(i);
    total += NowSeconds() - t0;
  }
  return total / iters * 1e9;
}

// Commit fan-out rows: a child holding 16 keys commits them to its
// parent in one batched call — with cached handles, via the string
// adapter, and the abort-side purge. Only the release call is timed.
void AddCommitFanoutRows(bench::JsonResultFile& out) {
  constexpr int kKeys = 16;
  const TransactionId parent = TransactionId::Root().Child(0);
  const TransactionId child = parent.Child(0);
  std::vector<std::string> names;
  for (int k = 0; k < kKeys; ++k) names.push_back(StrCat("k", k));
  {
    EngineStats stats;
    LockManager lm(Opts(), &stats);
    std::vector<LockManager::KeyHold> holds;
    out.Add("commit_fanout_16keys")
        .Int("keys", kKeys)
        .Num("ns_per_op",
             MeasurePhasedNsPerOp(
                 bench::Iters(20000),
                 [&](int i) {
                   if (i > 0) lm.OnAbort(parent, names);
                   holds.clear();
                   for (const auto& k : names) {
                     LockManager::HeldLock held;
                     (void)lm.AcquireWrite(
                         child, k,
                         [](std::optional<int64_t>) { return 1; }, nullptr,
                         &held);
                     holds.push_back(LockManager::KeyHold{k, held});
                   }
                 },
                 [&](int) { lm.OnCommit(child, parent, holds); }));
  }
  {
    EngineStats stats;
    LockManager lm(Opts(), &stats);
    out.Add("commit_fanout_16keys_string")
        .Int("keys", kKeys)
        .Num("ns_per_op",
             MeasurePhasedNsPerOp(
                 bench::Iters(20000),
                 [&](int i) {
                   if (i > 0) lm.OnAbort(parent, names);
                   for (const auto& k : names) {
                     (void)lm.AcquireWrite(
                         child, k,
                         [](std::optional<int64_t>) { return 1; });
                   }
                 },
                 [&](int) { lm.OnCommit(child, parent, names); }));
  }
  {
    EngineStats stats;
    LockManager lm(Opts(), &stats);
    out.Add("abort_fanout_16keys")
        .Int("keys", kKeys)
        .Num("ns_per_op",
             MeasurePhasedNsPerOp(
                 bench::Iters(20000),
                 [&](int) {
                   for (const auto& k : names) {
                     (void)lm.AcquireWrite(
                         child, k,
                         [](std::optional<int64_t>) { return 1; });
                   }
                 },
                 [&](int) { lm.OnAbort(child, names); }));
  }
}

// Resident set size of this process, from /proc/self/statm (0 where
// that file is missing).
double ResidentBytes() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return double(resident) * double(sysconf(_SC_PAGESIZE));
}

// Memory rows, per key over 2^18 keys: RSS growth across building a
// fresh Database and preloading the keys; then across one top-level
// TryGet+Add+Commit per preloaded key (the holder storage a key keeps
// once its last holder has left); then across building a second
// Database and running one top-level TryGet+Commit per never-written key
// under the default kDetect (the entry and table slots an absent read
// leaves behind, which stays until dead keys are reclaimed). They run
// first, before any other row has grown and freed the heap, and the
// first Database stays alive, so each reading is fresh growth. They keep
// their full key count in smoke mode: they are sizes, not timings. The
// key names are built before the first reading.
void AddMemoryRows(bench::JsonResultFile& out) {
  constexpr size_t kKeys = size_t{1} << 18;
  std::vector<std::string> names;
  std::vector<std::string> absent;
  names.reserve(kKeys);
  absent.reserve(kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    names.push_back(StrCat("k", k));
    absent.push_back(StrCat("a", k));
  }
  auto row = [&](const char* config, double before) {
    out.Add(config)
        .Int("keys", kKeys)
        .Num("bytes_per_key", (ResidentBytes() - before) / double(kKeys));
  };
  double before = ResidentBytes();
  Database db;
  for (const std::string& k : names) db.Preload(k, 0);
  row("preload_bytes_per_key", before);

  before = ResidentBytes();
  for (const std::string& k : names) {
    auto txn = db.Begin();
    (void)txn->TryGet(k);
    (void)txn->Add(k, 1);
    (void)txn->Commit();
  }
  row("touched_bytes_per_key", before);

  before = ResidentBytes();
  Database reads;
  for (const std::string& k : absent) {
    auto txn = reads.Begin();
    (void)txn->TryGet(k);
    (void)txn->Commit();
  }
  row("absent_read_bytes_per_key", before);
}

int RunJsonMode() {
  using bench::JsonResultFile;
  JsonResultFile out("bench_lock_manager");
  AddMemoryRows(out);

  {
    const TransactionId base = TransactionId::Root().Child(3).Child(1);
    size_t sink = 0;
    out.Add("txnid_child_hash")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(3000000), [&](int i) {
          sink ^= base.Child(static_cast<uint32_t>(i) & 1023).Hash();
        }));
    benchmark::DoNotOptimize(sink);
  }
  {
    const TransactionId a = DeepId(3, 7);
    const TransactionId d = a.Child(0).Child(1).Child(2);
    int sink = 0;
    out.Add("txnid_is_ancestor")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(3000000), [&](int) {
          sink += a.IsAncestorOf(d);
        }));
    benchmark::DoNotOptimize(sink);
  }
  {
    Database db;
    db.Preload("k", 1);
    auto txn = db.Begin();
    (void)txn->TryGet("k");
    int64_t sink = 0;
    out.Add("repeat_read_held")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(2000000), [&](int) {
          sink += txn->TryGet("k")->value_or(0);
        }));
    benchmark::DoNotOptimize(sink);
    txn->Abort();
  }
  {
    // The fast-word lane in isolation: the seqlock validation the
    // repeat_read_held path rides on, measured at the lock-manager
    // surface (no Transaction-layer key lookup / activity checks).
    EngineStats stats;
    LockManager lm(Opts(), &stats);
    lm.SetBase("k", 1);
    const TransactionId txn = TransactionId::Root().Child(0);
    LockManager::HeldLock held;
    (void)lm.AcquireRead(txn, "k", nullptr, &held);
    int64_t sink = 0;
    out.Add("repeat_read_held_fastword")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(4000000), [&](int) {
          std::optional<int64_t> v;
          (void)lm.TryFastReadLane(held, &v);
          sink += v.value_or(0);
        }));
    benchmark::DoNotOptimize(sink);
    lm.OnAbort(txn, {"k"});
  }
  {
    // A/B control: the same full-stack repeat read with the lock word
    // disabled — every key born inflated, so every repeat read takes
    // the mutex grant path.
    EngineOptions o;
    o.lock_word_enabled = false;
    Database db(o);
    db.Preload("k", 1);
    auto txn = db.Begin();
    (void)txn->TryGet("k");
    int64_t sink = 0;
    out.Add("repeat_read_held_inflated")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(2000000), [&](int) {
          sink += txn->TryGet("k")->value_or(0);
        }));
    benchmark::DoNotOptimize(sink);
    txn->Abort();
  }
  {
    Database db;
    db.Preload("k", 0);
    auto txn = db.Begin();
    out.Add("repeat_write_held")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(1000000), [&](int) {
          (void)txn->Add("k", 1);
        }));
    txn->Abort();
  }
  {
    Database db;
    db.Preload("k", 1);
    out.Add("cold_txn_read_commit")
        .Num("ns_per_op", MeasureNsPerOp(bench::Iters(300000), [&](int) {
          auto txn = db.Begin();
          (void)txn->TryGet("k");
          (void)txn->Commit();
        }));
  }
  AddCommitFanoutRows(out);
  return out.Write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (nestedtx::bench::HasFlag(argc, argv, "--json")) return RunJsonMode();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
