// Kill-and-recover crash storms (ISSUE: durability tentpole; DESIGN.md
// §5). A forked child runs a multi-threaded commit storm against a
// WAL-enabled database and acks every durable commit over a pipe; the
// parent SIGKILLs it mid-storm, recovers a fresh database from the log
// directory, and checks the committed-prefix oracle:
//
//   1. Acked implies recovered: every commit acknowledged before the
//      kill (RunTransaction returned OK, i.e. WaitDurable succeeded) is
//      visible after replay — each worker's key group carries a value
//      >= the worker's highest acked value.
//   2. Atomicity: a worker writes ONE value to its whole key group per
//      transaction, so after recovery the group is uniform — a torn
//      tail may drop a whole image, never half of one.
//   3. No ghosts: writes made by aborting subtransactions never reach
//      the log, killed process or not.
//   4. The shared hot counter (every transaction Adds 1) recovers to at
//      least the total number of acked commits.
//
// Runs across all four conflict protocols — the WAL sits below the CC
// seam, so detect / wait-die / no-wait / OCC all share the same
// durability contract. Labeled `crash` (fork + threads: kept out of
// sanitizer jobs; CI gives it a dedicated lane).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/failpoints.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

constexpr int kWorkers = 4;
constexpr int kGroupKeys = 3;
constexpr char kHotKey[] = "hot";

std::string GroupKey(int worker, int j) {
  return StrCat("g", worker, ".k", j);
}

std::string GhostKey(int worker) { return StrCat("ghost.", worker); }

EngineOptions StormOptions(const std::string& dir, CcProtocol protocol,
                           bool checkpointing = false) {
  EngineOptions o;
  o.cc_protocol = protocol;
  o.wal_enabled = true;
  o.wal_dir = dir;
  o.wal_shards = 2;
  o.wal_fsync_mode = WalFsyncMode::kFdatasync;
  // The checkpoint storm keeps compactions in flight the whole time, so
  // the SIGKILL lands inside snapshot writes, between the manifest
  // rename and the log truncation, mid-rotation — every window of the
  // checkpoint state machine.
  if (checkpointing) o.wal_checkpoint_every_bytes = 2048;
  return o;
}

int StressIters() {
  const char* env = std::getenv("NESTEDTX_STRESS_ITERS");
  if (env == nullptr || *env == '\0') return 1;
  const int v = std::atoi(env);
  return v >= 1 ? v : 1;
}

// Child-process body: storm until killed. Never returns on the happy
// path; _exit codes mark bugs for the parent to report.
[[noreturn]] void RunStormChild(const std::string& dir,
                                CcProtocol protocol, int ack_fd,
                                uint64_t round_seed,
                                bool checkpointing = false) {
  // Schedule diversity inside the doomed process: stretch the flush and
  // commit-inheritance critical sections so the SIGKILL lands in
  // interesting places. CI may override via NESTEDTX_FAILPOINTS.
  FailPoints::Seed(round_seed);
  FailPoints::Config delays;
  delays.delay_one_in = 4;
  delays.delay_us = 200;
  FailPoints::Enable(FailPoints::kWalFsync, delays);
  FailPoints::Enable(FailPoints::kCommitInherit, delays);
  if (checkpointing) {
    // Stretch the checkpoint critical sections too (entry and the
    // snapshot write), widening the torn-snapshot and
    // manifest-installed-prefix-not-yet-truncated kill windows.
    FailPoints::Enable(FailPoints::kWalCheckpoint, delays);
  }
  FailPoints::EnableFromEnv();

  Database db(StormOptions(dir, protocol, checkpointing));
  if (checkpointing) {
    // Beyond the byte-odometer auto-trigger, hammer explicit checkpoints
    // so one is nearly always in flight when the SIGKILL arrives. A
    // checkpoint may legitimately fail under an env-armed fault storm;
    // durability must not regress either way.
    std::thread([&db] {
      for (;;) {
        (void)db.Checkpoint();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }).detach();
  }
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&db, w, ack_fd] {
      for (int64_t v = 1;; ++v) {
        const Status s = db.RunTransaction(1000, [&](Transaction& t) {
          // One value across the whole group = the atomicity oracle.
          for (int j = 0; j < kGroupKeys; ++j) {
            if (j == 1 && v % 3 == 0) {
              // Route one write through a committed child: its image
              // must fold into the parent's single log record.
              Result<std::unique_ptr<Transaction>> child = t.BeginChild();
              RETURN_IF_ERROR(child.status());
              Status cs = (*child)->Put(GroupKey(w, j), v);
              if (cs.ok()) cs = (*child)->Commit();
              if (!cs.ok() && !(*child)->returned()) (void)(*child)->Abort();
              RETURN_IF_ERROR(cs);
            } else {
              RETURN_IF_ERROR(t.Put(GroupKey(w, j), v));
            }
          }
          if (v % 4 == 0) {
            // An aborting child writes a ghost that must NEVER recover.
            Result<std::unique_ptr<Transaction>> ghost = t.BeginChild();
            RETURN_IF_ERROR(ghost.status());
            RETURN_IF_ERROR((*ghost)->Put(GhostKey(w), v));
            RETURN_IF_ERROR((*ghost)->Abort());
          }
          return t.Add(kHotKey, 1).status();
        });
        if (!s.ok()) {
          // Retry exhaustion under a prevention storm: same value again.
          if (s.IsAborted() || s.IsDeadlock() || s.IsTimedOut()) {
            --v;
            continue;
          }
          _exit(17);  // non-retryable engine error: a real bug
        }
        // RunTransaction OK means WaitDurable succeeded: ack it. One
        // short line (< PIPE_BUF) so concurrent acks never interleave.
        char line[64];
        const int n =
            std::snprintf(line, sizeof(line), "%d %lld\n", w,
                          static_cast<long long>(v));
        if (::write(ack_fd, line, static_cast<size_t>(n)) != n) {
          _exit(18);  // parent vanished without killing us first
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  _exit(19);  // unreachable: workers loop until SIGKILL
}

struct AckLog {
  std::map<int, int64_t> max_acked;  // worker -> highest acked value
  int64_t total = 0;                 // total acked commits
};

AckLog ParseAcks(const std::string& buf) {
  AckLog log;
  size_t pos = 0;
  while (pos < buf.size()) {
    size_t nl = buf.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final line: kill landed
    int w = -1;
    long long v = 0;
    if (std::sscanf(buf.c_str() + pos, "%d %lld", &w, &v) == 2) {
      auto& cur = log.max_acked[w];
      cur = std::max<int64_t>(cur, v);
      ++log.total;
    }
    pos = nl + 1;
  }
  return log;
}

void RunKillAndRecoverRound(CcProtocol protocol, int round,
                            bool checkpointing = false) {
  char tmpl[] = "/tmp/nestedtx-crash-XXXXXX";
  char* dirp = ::mkdtemp(tmpl);
  ASSERT_NE(dirp, nullptr);
  const std::string dir = dirp;

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    RunStormChild(dir, protocol, pipefd[1],
                  /*round_seed=*/0x9e3779b9u + static_cast<uint64_t>(round),
                  checkpointing);
  }
  ::close(pipefd[1]);

  // Wait for the first ack (the storm is live), then let it run a
  // pseudo-random while and kill it mid-flight.
  char first[64];
  const ssize_t got = ::read(pipefd[0], first, sizeof(first));
  ASSERT_GT(got, 0) << "child produced no acks";
  std::this_thread::sleep_for(
      std::chrono::milliseconds(3 + (round * 7919) % 40));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
      << "child exited on its own with status " << wstatus
      << " (engine bug inside the storm)";

  // Drain every ack that made it out before the kill.
  std::string acks(first, static_cast<size_t>(got));
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
    if (n <= 0) break;
    acks.append(buf, static_cast<size_t>(n));
  }
  ::close(pipefd[0]);
  const AckLog log = ParseAcks(acks);

  // Recover in-process and check the committed-prefix oracle. (No
  // checkpointing in the recovering instance: recovery must work off
  // whatever mix of snapshot generations and log suffix the kill left.)
  Database db(StormOptions(dir, protocol));
  ASSERT_TRUE(db.Recover().ok())
      << "recovery failed over the killed process's directory";
  for (int w = 0; w < kWorkers; ++w) {
    std::optional<int64_t> uniform;
    for (int j = 0; j < kGroupKeys; ++j) {
      const auto val = db.ReadCommitted(GroupKey(w, j));
      if (j == 0) {
        uniform = val;
      } else {
        EXPECT_EQ(val, uniform)
            << "worker " << w << " group is torn after recovery";
      }
    }
    const auto it = log.max_acked.find(w);
    if (it != log.max_acked.end()) {
      ASSERT_TRUE(uniform.has_value())
          << "worker " << w << " acked " << it->second
          << " but its group is gone";
      EXPECT_GE(*uniform, it->second)
          << "worker " << w << ": acked commit lost by recovery";
    }
    EXPECT_EQ(db.ReadCommitted(GhostKey(w)), std::nullopt)
        << "aborted subtransaction's write recovered for worker " << w;
  }
  if (log.total > 0) {
    const auto hot = db.ReadCommitted(kHotKey);
    ASSERT_TRUE(hot.has_value());
    EXPECT_GE(*hot, log.total) << "hot counter lost acked increments";
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

class CrashRecoveryTest : public ::testing::TestWithParam<CcProtocol> {};

TEST_P(CrashRecoveryTest, KillAndRecoverStorm) {
  const int rounds = 2 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(StrCat("round ", round));
    RunKillAndRecoverRound(GetParam(), round);
    if (HasFatalFailure()) return;
  }
}

// The same oracle with checkpoints constantly in flight: the SIGKILL
// can land mid-snapshot (torn .snap.tmp never installed), between the
// manifest rename and the log truncation (snapshot + full log — replay
// is idempotent), or mid-rotation. Every window must recover to the
// committed prefix; the fuzzy scan + fix-up must never publish a
// snapshot missing an acked commit <= its cut.
TEST_P(CrashRecoveryTest, KillDuringCheckpointStorm) {
  const int rounds = 2 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(StrCat("checkpoint round ", round));
    RunKillAndRecoverRound(GetParam(), round, /*checkpointing=*/true);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CrashRecoveryTest,
                         ::testing::Values(CcProtocol::kDetect,
                                           CcProtocol::kWaitDie,
                                           CcProtocol::kNoWait,
                                           CcProtocol::kOcc),
                         [](const ::testing::TestParamInfo<CcProtocol>& i) {
                           switch (i.param) {
                             case CcProtocol::kDetect:
                               return "Detect";
                             case CcProtocol::kWaitDie:
                               return "WaitDie";
                             case CcProtocol::kNoWait:
                               return "NoWait";
                             case CcProtocol::kOcc:
                               return "Occ";
                             default:
                               return "Other";
                           }
                         });

}  // namespace
}  // namespace nestedtx
