// Seeded, deterministic fault injection for the lock-wait subsystem.
//
// A fail point is a named site in the engine where a stress test can
// induce the rare schedules the normal test suite cannot reach: delays
// that stretch critical sections, spurious condition-variable wakeups,
// and forced Status::Deadlock / Status::TimedOut on paths that normally
// fail only under real contention. Sites are compiled in unconditionally;
// when no site is armed the per-site cost is a single relaxed atomic
// load, so the hooks are safe to leave on hot paths.
//
// Determinism: decisions are pure functions of (seed, site, per-site hit
// counter) via splitmix64, so a fixed seed yields the same decision
// sequence at each site across runs (modulo thread interleaving of the
// counter, which is exactly the nondeterminism the stress tests explore).
//
// Process-global by design — fail points cut across Database instances —
// so tests must DisableAll() when done (and must not arm sites from
// concurrent test binaries sharing a process, which gtest never does).
#ifndef NESTEDTX_CORE_FAILPOINTS_H_
#define NESTEDTX_CORE_FAILPOINTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace nestedtx {

class FailPoints {
 public:
  enum Site : int {
    kLockGrant = 0,   // after a lock wait resolves, before the grant
    kWaitWakeup,      // each wakeup inside the lock-wait loop
    kCommitInherit,   // inside the per-key commit (lock inheritance)
    kAbortPurge,      // inside the per-key abort (version discard)
    kBeginTxn,        // transaction begin (BeginChild / retry-loop begin)
    kRetryBackoff,    // RetryExecutor backoff between attempts
    kWalAppend,       // WAL commit-image append (before buffering)
    kWalFsync,        // WAL flush leader, before write+sync of a group
    kWalRecover,      // Database::Recover: entry, and each replayed record
    kWalCheckpoint,   // Checkpoint: entry, and the snapshot-file write
    kNumSites,
  };

  /// Injection rates are "one in N" hit counts; 0 disables that action.
  struct Config {
    uint32_t delay_one_in = 0;            // induced sleep at the site
    uint32_t delay_us = 100;              // length of the induced sleep
    uint32_t spurious_wakeup_one_in = 0;  // kWaitWakeup: truncated wait
    uint32_t deadlock_one_in = 0;         // forced Status::Deadlock
    uint32_t timeout_one_in = 0;          // forced Status::TimedOut
    uint32_t io_error_one_in = 0;         // forced Status::IoError
    // kWalFsync: the flush leader writes only half the group then marks
    // the shard broken — a torn record a crashed process would leave.
    // kWalCheckpoint: the snapshot file is written half-length (torn)
    // and never installed; the checkpoint fails, the log stays whole.
    uint32_t short_write_one_in = 0;
  };

  static void Enable(Site site, const Config& config);
  static void DisableAll();
  /// Reseed the decision stream and zero the hit counters.
  static void Seed(uint64_t seed);

  /// Arm sites from the NESTEDTX_FAILPOINTS environment variable, so CI
  /// chaos jobs can reconfigure a storm without recompiling. Grammar
  /// (sites separated by ';', parameters by ','):
  ///
  ///   NESTEDTX_FAILPOINTS="lock_grant:deadlock_one_in=8,delay_one_in=16;
  ///                        wait_wakeup:spurious_wakeup_one_in=4"
  ///
  /// Site names: lock_grant, wait_wakeup, commit_inherit, abort_purge,
  /// begin_txn, retry_backoff, wal_append, wal_fsync, wal_recover,
  /// wal_checkpoint, or `all` (every site gets the config).
  /// Parameter keys are the Config fields. `seed=N` as a parameter of any
  /// group reseeds the decision stream. Values are unsigned decimal (or
  /// 0x hex); one that is empty, signed, or too wide for its field (32
  /// bits, 64 for the seed) skips its group. Unknown names/keys are
  /// reported on stderr and skipped. Returns the number of sites armed (0 when the
  /// variable is unset or empty); already-armed sites are overwritten.
  static int EnableFromEnv();
  /// Parse one NESTEDTX_FAILPOINTS-grammar spec (testable core of
  /// EnableFromEnv).
  static int EnableFromSpec(const std::string& spec);

  /// Canonical lowercase site name (the env-config vocabulary).
  static const char* SiteName(Site site);

  static bool Armed(Site site) {
    return (armed_mask_.load(std::memory_order_relaxed) & (1u << site)) !=
           0;
  }

  /// Sleep at the site if the config and dice say so.
  static void MaybeDelay(Site site) {
    if (Armed(site)) DelaySlow(site);
  }

  /// kWaitWakeup: true when this wait should be artificially truncated
  /// (the waiter re-evaluates early, as if spuriously woken).
  static bool MaybeSpuriousWakeup(Site site) {
    return Armed(site) && SpuriousSlow(site);
  }

  /// OK, or a forced Deadlock/TimedOut/IoError to return from the site.
  static Status MaybeFail(Site site) {
    if (!Armed(site)) return Status::OK();
    return FailSlow(site);
  }

  /// WAL flush sites: true when this flush should tear its group (write
  /// a prefix of the buffer, then act crashed).
  static bool MaybeShortWrite(Site site) {
    return Armed(site) && ShortWriteSlow(site);
  }

  /// Total injections fired since the last Seed()/DisableAll() (delays,
  /// spurious wakeups, and forced errors) — lets tests assert the storm
  /// actually stormed.
  static uint64_t InjectionCount();

 private:
  static void DelaySlow(Site site);
  static bool SpuriousSlow(Site site);
  static Status FailSlow(Site site);
  static bool ShortWriteSlow(Site site);
  // The n-th decision at `site` for action `action_salt`: true once per
  // `one_in` hits on average, deterministically in (seed, site, n).
  static bool Decide(Site site, uint32_t one_in, uint64_t action_salt);

  static std::atomic<uint32_t> armed_mask_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_FAILPOINTS_H_
