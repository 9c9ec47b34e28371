// E15 — concurrency-control shootout: detection vs. wait-die vs.
// no-wait vs. OCC across contention levels and nesting depths — and
// E16, the read-ratio sweep with no dwell.
//
// All protocols admit only serially correct executions — the locking
// family by Theorem 34 directly, OCC because validation admits exactly
// the schedules some serial order explains (a traced OCC commit is
// stamped at its serialization point; the policy-parity suite checks
// all four on traces of the code that runs) — so what differs is WHICH
// schedules each admits and what conflicts cost:
//
//   detect    — waits always; pays a graph registration per blocked
//               request and kills only real cycles. Best goodput under
//               contention, highest per-wait overhead.
//   wait-die  — kills young-on-old conflicts that would often have been
//               safe waits. No graph, no detector; aborts (and retries)
//               rise with contention, but the oldest transaction always
//               progresses, so retry loops converge.
//   no-wait   — never parks a thread. Degenerates fastest under
//               contention (every conflict is wasted work) and wins
//               when conflicts are rare: the conflict-free path carries
//               zero scheduling overhead either way, and losing waiters
//               never hold the key's mutex.
//   occ       — no locks at all until commit: reads are an acquire load
//               plus a seqlock value read, writes buffer privately.
//               Cheapest conflict-free path of the four; under write
//               contention every collision is a full transaction of
//               wasted work surfaced as a validation abort.
//
// Expected shape: E15 (50% reads) separates the protocols as keys
// shrink — detect holds goodput, prevention and OCC trade it for
// throughput. E16 sweeps read_ratio x contention with no dwell, so CC
// overhead itself dominates and OCC's lock-free path leads every cell.
//
// --protocols=occ,detect,... restricts the sweep (CI's smoke step runs
// one cell per protocol this way); --json emits the digest file.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

namespace {

constexpr CcProtocol kProtocols[] = {
    CcProtocol::kDetect, CcProtocol::kWaitDie, CcProtocol::kNoWait,
    CcProtocol::kOcc};

// Hand-parsed --protocols=a,b,c (bench_json.h's HasFlag is exact-match
// only). Unknown names are fatal: a typo silently benching nothing
// would poison CI baselines.
std::vector<CcProtocol> SelectedProtocols(int argc, char** argv) {
  const char* arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--protocols=", 12) == 0) arg = argv[i] + 12;
  }
  std::vector<CcProtocol> out;
  if (arg == nullptr) {
    out.assign(std::begin(kProtocols), std::end(kProtocols));
    return out;
  }
  std::string names(arg);
  size_t pos = 0;
  while (pos <= names.size()) {
    size_t comma = names.find(',', pos);
    if (comma == std::string::npos) comma = names.size();
    const std::string name = names.substr(pos, comma - pos);
    bool found = false;
    for (CcProtocol p : kProtocols) {
      if (name == CcProtocolName(p)) {
        out.push_back(p);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown protocol in --protocols=: '%s'\n",
                   name.c_str());
      std::exit(2);
    }
    pos = comma + 1;
  }
  return out;
}

WorkloadConfig BaseConfig() {
  WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.read_ratio = 0.5;  // write-heavy enough to make conflicts matter
  cfg.dwell_us_per_access = 100;  // Argus-style dwell; see DESIGN.md
  cfg.duration_seconds = 0.4;
  cfg.lock_timeout = std::chrono::milliseconds(200);
  return cfg;
}

struct Cell {
  const char* label;  // contention level, for the table + entry name
  int num_keys;
  double zipf_theta;
};

constexpr Cell kCells[] = {
    {"low", 256, 0.0},   // conflicts rare: protocols should tie
    {"mid", 16, 0.0},    // moderate collisions
    {"high", 4, 0.99},   // hot keys: the protocols separate
};

void Sweep(JsonResultFile* out, const std::vector<CcProtocol>& protocols) {
  for (int depth : {1, 3}) {
    std::printf("%sE15: txn/s [goodput] vs contention, depth=%d "
                "(8 threads, 50%% reads, 100us dwell)\n",
                depth == 1 ? "" : "\n", depth);
    std::printf("%6s |", "cell");
    for (CcProtocol p : protocols) {
      std::printf(" %22s", CcProtocolName(p));
    }
    std::printf("\n");
    for (const Cell& cell : kCells) {
      std::printf("%6s |", cell.label);
      for (CcProtocol p : protocols) {
        WorkloadConfig cfg = BaseConfig();
        cfg.cc_protocol = p;
        cfg.num_keys = cell.num_keys;
        cfg.zipf_theta = cell.zipf_theta;
        cfg.nesting_depth = depth;
        WorkloadResult r = RunWorkload(cfg);
        if (out != nullptr) {
          AddWorkloadEntry(*out,
                           StrCat(cell.label, "_depth", depth, "_",
                                  CcProtocolName(p)),
                           cfg, r);
        }
        std::printf(" %14.0f [%4.2f]", r.TxnPerSec(), r.Goodput());
      }
      std::printf("\n");
    }
  }
}

// E16: read-ratio x contention with zero dwell — raw CC overhead. The
// cell names read "r99_low" = 99% reads, 256 uniform keys.
void ReadRatioSweep(JsonResultFile* out,
                    const std::vector<CcProtocol>& protocols) {
  constexpr double kReadRatios[] = {0.5, 0.95, 0.99};
  std::printf("\nE16: txn/s [goodput] vs read ratio, no dwell "
              "(8 threads, depth=1)\n");
  for (double rr : kReadRatios) {
    std::printf("%8s |", StrCat("r", int(rr * 100)).c_str());
    for (CcProtocol p : protocols) {
      std::printf(" %22s", CcProtocolName(p));
    }
    std::printf("\n");
    for (const Cell& cell : kCells) {
      std::printf("%8s |", cell.label);
      for (CcProtocol p : protocols) {
        WorkloadConfig cfg = BaseConfig();
        cfg.cc_protocol = p;
        cfg.read_ratio = rr;
        cfg.dwell_us_per_access = 0;
        cfg.num_keys = cell.num_keys;
        cfg.zipf_theta = cell.zipf_theta;
        WorkloadResult r = RunWorkload(cfg);
        if (out != nullptr) {
          AddWorkloadEntry(*out,
                           StrCat("r", int(rr * 100), "_", cell.label, "_",
                                  CcProtocolName(p)),
                           cfg, r);
        }
        std::printf(" %14.0f [%4.2f]", r.TxnPerSec(), r.Goodput());
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  const std::vector<CcProtocol> protocols = SelectedProtocols(argc, argv);
  JsonResultFile out("bench_cc_shootout");
  JsonResultFile* p = json ? &out : nullptr;
  Sweep(p, protocols);
  ReadRatioSweep(p, protocols);
  if (json && !out.Write()) return 1;
  return 0;
}
