// E17 — the price of durability: WAL group commit under the fsync knob.
// Sweeps fsync mode (none / fdatasync / fsync) x write-set size, with 4
// committer threads on disjoint key ranges (no lock conflicts: the WAL
// is the only shared resistance) sharing one log shard, plus a wal-off
// baseline per write-set size.
//
// What the cells show: a flush leader writes at once, and records
// appended while its write+sync is in flight are cut as one group by
// the next leader — the group_commit_batches and wal_fsyncs columns
// against the fixed appends column show how far that amortizes. The
// wal-off row is the engine's native speed: the gap to it is the
// durability tax.
//
// E18 — recovery time vs checkpointing: builds a log of N commit
// records, then times Database::Recover() under full replay (one scan
// thread per shard) and after a checkpoint (snapshot + empty suffix).
// The fsync numbers depend enormously on the backing filesystem, so
// every row records the directory and filesystem it ran on.
//
// The log directory: --dir=PATH if given, else $TMPDIR, else /tmp. A
// unique subdirectory is created (and removed) per cell.
//
// Run with --json to write BENCH_bench_wal.json; the WAL counters are
// recorded per cell.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/vfs.h>
#include <unistd.h>

#include "bench_json.h"
#include "core/database.h"
#include "core/stats.h"
#include "util/strings.h"

using namespace nestedtx;

namespace {

constexpr int kThreads = 4;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --dir=PATH > $TMPDIR > /tmp. The bench fsyncs constantly; on a CI box
// /tmp is often tmpfs (no real disk sync), so letting the caller point
// at a real filesystem matters for honest numbers.
std::string BaseDir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) == 0 && argv[i][6] != '\0') {
      return argv[i] + 6;
    }
  }
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}

// Human name for the filesystem backing `path` (statfs f_type magic);
// the raw hex for anything unrecognized. Recorded in every JSON row so
// a throughput regression can be told apart from a tmpfs-vs-disk move.
std::string FilesystemName(const std::string& path) {
  struct statfs sf;
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x01021997: return "v9fs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return buf;
}

// mkdtemp under the resolved base; empty string on failure.
std::string MakeCellDir(const std::string& base) {
  std::string tmpl = base + "/nestedtx-bench-wal-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = ::mkdtemp(buf.data());
  return dir != nullptr ? std::string(dir) : std::string();
}

struct Cell {
  bool wal = true;
  WalFsyncMode mode = WalFsyncMode::kFdatasync;
  int writes = 1;  // keys per transaction
};

struct CellResult {
  double txns_per_sec = 0;
  double p50_commit_us = 0;
  double p99_commit_us = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t group_commit_batches = 0;
  int txns = 0;
};

std::string CellName(const Cell& c) {
  if (!c.wal) return StrCat("waloff_w", c.writes);
  return StrCat(WalFsyncModeName(c.mode), "_w", c.writes);
}

CellResult RunCell(const Cell& cell, const std::string& base) {
  const std::string dir = cell.wal ? MakeCellDir(base) : std::string();
  EngineOptions opts;
  if (cell.wal && !dir.empty()) {
    opts.wal_enabled = true;
    opts.wal_dir = dir;
    opts.wal_fsync_mode = cell.mode;
    // One shard: all committers share a log, so how commits group is
    // what's measured. (The default round-robins top-levels across 4
    // shards, which at 4 threads leaves every group a group of one.)
    opts.wal_shards = 1;
  }
  const int per_thread = bench::Iters(2000);

  CellResult out;
  {
    Database db(opts);
    std::vector<std::vector<double>> lat_us(kThreads);
    std::vector<std::thread> workers;
    const double t0 = NowSeconds();
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&db, &cell, &lat_us, t, per_thread] {
        lat_us[static_cast<size_t>(t)].reserve(
            static_cast<size_t>(per_thread));
        for (int i = 0; i < per_thread; ++i) {
          const double c0 = NowSeconds();
          (void)db.RunTransaction(5, [&](Transaction& txn) {
            // Disjoint per-thread keys: commit latency is pure WAL
            // (append + park on the group flush), never a lock wait.
            for (int w = 0; w < cell.writes; ++w) {
              RETURN_IF_ERROR(
                  txn.Put(StrCat("t", t, ".k", w), i));
            }
            return Status::OK();
          });
          lat_us[static_cast<size_t>(t)].push_back(
              (NowSeconds() - c0) * 1e6);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double wall = NowSeconds() - t0;

    std::vector<double> all;
    for (auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    out.txns = kThreads * per_thread;
    out.txns_per_sec = out.txns / wall;
    if (!all.empty()) {
      out.p50_commit_us = all[all.size() / 2];
      out.p99_commit_us =
          all[static_cast<size_t>(0.99 * (all.size() - 1))];
    }
    const StatsSnapshot snap = db.stats().Snapshot();
    out.wal_appends = snap.wal_appends;
    out.wal_bytes = snap.wal_bytes;
    out.wal_fsyncs = snap.wal_fsyncs;
    out.group_commit_batches = snap.group_commit_batches;
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return out;
}

// --- E18: recovery time vs log length and checkpointing ---

constexpr uint32_t kRecoveryShards = 4;
constexpr int kRecoveryKeySpace = 4096;

EngineOptions RecoveryOptions(const std::string& dir) {
  EngineOptions o;
  o.wal_enabled = true;
  o.wal_dir = dir;
  o.wal_shards = kRecoveryShards;
  // kNone: log construction and replay speed are what's measured, not
  // the build-phase sync tax (a real recovery reads a log someone else
  // paid to sync).
  o.wal_fsync_mode = WalFsyncMode::kNone;
  return o;
}

// Build a log of `records` single-key commit images over a bounded key
// space (so the snapshot stays small while the log grows linearly).
void BuildRecoveryLog(const std::string& dir, int records) {
  Database db(RecoveryOptions(dir));
  for (int i = 0; i < records; ++i) {
    (void)db.RunTransaction(5, [&](Transaction& t) {
      return t.Put(StrCat("k", i % kRecoveryKeySpace), i);
    });
  }
}

uint64_t LogBytes(const std::string& dir) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < kRecoveryShards; ++s) {
    std::error_code ec;
    const auto sz =
        std::filesystem::file_size(StrCat(dir, "/wal-", s, ".log"), ec);
    if (!ec) total += sz;
  }
  return total;
}

struct RecoveryResult {
  double recover_seconds = 0;
  uint64_t replayed = 0;
  uint64_t snapshot_keys = 0;
  uint64_t log_bytes = 0;
};

// Time one Recover() over `dir` (non-destructive for re-timing: replay
// only reads, and nothing here tears the log).
RecoveryResult TimeRecovery(const std::string& dir) {
  RecoveryResult out;
  out.log_bytes = LogBytes(dir);
  Database db(RecoveryOptions(dir));
  const double t0 = NowSeconds();
  const Status s = db.Recover();
  out.recover_seconds = NowSeconds() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "recovery cell failed: %s\n",
                 s.ToString().c_str());
    return out;
  }
  const StatsSnapshot snap = db.stats().Snapshot();
  out.replayed = snap.wal_recovery_replayed;
  out.snapshot_keys = snap.wal_snapshot_keys_loaded;
  return out;
}

void RunRecoverySweep(bench::JsonResultFile& out, const std::string& base,
                      const std::string& fsname) {
  const int records = bench::Iters(100000);
  const std::string dir = MakeCellDir(base);
  if (dir.empty()) return;
  BuildRecoveryLog(dir, records);

  std::printf("%-22s | %12s %10s %10s %9s\n", "recovery",
              "records", "seconds", "replayed", "snapkeys");
  const auto emit = [&](const std::string& name, bool checkpointed,
                        const RecoveryResult& r) {
    std::printf("%-22s | %12d %10.4f %10llu %9llu\n", name.c_str(),
                records, r.recover_seconds,
                static_cast<unsigned long long>(r.replayed),
                static_cast<unsigned long long>(r.snapshot_keys));
    std::fflush(stdout);
    out.Add(name)
        .Str("dir", dir)
        .Str("filesystem", fsname)
        .Int("records", static_cast<unsigned long long>(records))
        .Int("checkpointed", checkpointed ? 1 : 0)
        .Num("recover_seconds", r.recover_seconds)
        .Int("replayed", r.replayed)
        .Int("snapshot_keys", r.snapshot_keys)
        .Int("log_bytes", r.log_bytes);
  };

  emit(StrCat("recover_full_n", records), false, TimeRecovery(dir));
  {
    // Checkpoint the log: the next recovery loads the (bounded-key)
    // snapshot and replays an empty suffix — the E18 headline.
    Database db(RecoveryOptions(dir));
    if (db.Recover().ok()) (void)db.Checkpoint();
  }
  emit(StrCat("recover_ckpt_n", records), true, TimeRecovery(dir));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

int Run(int argc, char** argv) {
  const bool json = bench::HasFlag(argc, argv, "--json");
  const std::string base = BaseDir(argc, argv);
  const std::string fsname = FilesystemName(base);
  std::printf("log dir base: %s (%s)\n", base.c_str(), fsname.c_str());
  bench::JsonResultFile out("bench_wal");
  std::printf("%-22s | %12s %10s %10s %9s %8s %8s\n", "config",
              "txns_per_sec", "p50_us", "p99_us", "appends", "fsyncs",
              "groups");
  std::vector<Cell> cells;
  for (int writes : {1, 8}) {
    Cell off;
    off.wal = false;
    off.writes = writes;
    cells.push_back(off);
    for (WalFsyncMode mode : {WalFsyncMode::kNone, WalFsyncMode::kFdatasync,
                              WalFsyncMode::kFsync}) {
      Cell c;
      c.mode = mode;
      c.writes = writes;
      cells.push_back(c);
    }
  }
  for (const Cell& cell : cells) {
    const CellResult r = RunCell(cell, base);
    const std::string name = CellName(cell);
    std::printf("%-22s | %12.0f %10.1f %10.1f %9llu %8llu %8llu\n",
                name.c_str(), r.txns_per_sec, r.p50_commit_us,
                r.p99_commit_us,
                static_cast<unsigned long long>(r.wal_appends),
                static_cast<unsigned long long>(r.wal_fsyncs),
                static_cast<unsigned long long>(r.group_commit_batches));
    std::fflush(stdout);
    out.Add(name)
        .Str("dir", base)
        .Str("filesystem", fsname)
        .Str("fsync_mode", cell.wal ? WalFsyncModeName(cell.mode) : "off")
        .Int("writes_per_txn", static_cast<unsigned long long>(cell.writes))
        .Int("threads", kThreads)
        .Int("txns", static_cast<unsigned long long>(r.txns))
        .Num("txns_per_sec", r.txns_per_sec)
        .Num("p50_commit_us", r.p50_commit_us)
        .Num("p99_commit_us", r.p99_commit_us)
        .Int("wal_appends", r.wal_appends)
        .Int("wal_bytes", r.wal_bytes)
        .Int("wal_fsyncs", r.wal_fsyncs)
        .Int("group_commit_batches", r.group_commit_batches);
  }
  RunRecoverySweep(out, base, fsname);
  if (json) return out.Write() ? 0 : 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
