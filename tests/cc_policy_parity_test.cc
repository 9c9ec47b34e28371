// Policy-parity storms: the same order-inverting write meshes the
// deadlock storm suite runs against detection, executed under every
// protocol the CC seam offers (detect / wait-die / no-wait / occ).
//
// Theorem 34's serial-correctness argument is policy-agnostic — it
// quantifies over every schedule the R/W locking discipline admits, and
// the policies only choose WHICH admitted schedule unfolds — so the
// traced storms here must validate under the mechanized checker for all
// of them, unchanged. Traced OCC runs the same word-validating commit
// as untraced OCC and stamps it at its serialization point, so the
// checker certifies the commit that actually runs. The traced storm
// also reads a key outside each transaction's write set, so OCC's
// unlocked-read validation reaches the checker.
// The drain invariants are per-policy: detection's wait graph must be
// empty and it never kills by prevention; the prevention
// protocols must end with a zero deadlock counter (they have no
// detector to bump it); OCC must end with zero deadlocks, zero
// prevention kills, zero lock grants and zero key inflations (it never
// takes a lock; conflicts are validation aborts); and in every case
// an empty park table, no doomed roots, and committed state equal to
// exactly the committed writes.
//
// NESTEDTX_STRESS_ITERS scales per-thread transaction counts (default
// 1); CI's TSan job runs the suite at scale 1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "core/failpoints.h"
#include "serial/data_type.h"
#include "tx/well_formed.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

int StressScale() {
  const char* env = std::getenv("NESTEDTX_STRESS_ITERS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v > 0 ? v : 1;
}

constexpr CcProtocol kAllProtocols[] = {
    CcProtocol::kDetect, CcProtocol::kWaitDie, CcProtocol::kNoWait,
    CcProtocol::kOcc};

struct StormSpec {
  int threads = 8;
  int txns_per_thread = 0;  // callers set this, pre-scaled
  int num_keys = 4;
  int writes_per_txn = 3;
  // Top-level reads of keys outside the write set, before the writes.
  int reads_per_txn = 0;
  bool nested = false;           // wrap each write in a subtransaction
  double voluntary_abort_p = 0;  // per-attempt child abort probability
  int max_attempts = 1000;
};

struct StormOutcome {
  uint64_t committed = 0;
  uint64_t gave_up = 0;
};

// Order-inverted hot-key writers (the canonical deadlock generator under
// detection; under prevention, the canonical mutual-kill generator).
StormOutcome RunStorm(Database& db, const StormSpec& spec) {
  std::vector<std::string> keys;
  for (int k = 0; k < spec.num_keys; ++k) keys.push_back(StrCat("key", k));
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> gave_up{0};
  std::atomic<int> at_gate{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&db, &spec, &keys, &committed, &gave_up, &at_gate,
                          t] {
      Rng rng(0xCC9A11u + 7919u * static_cast<uint64_t>(t));
      at_gate.fetch_add(1);
      while (at_gate.load() < spec.threads) std::this_thread::yield();
      std::vector<size_t> order(keys.size());
      for (int i = 0; i < spec.txns_per_thread; ++i) {
        for (size_t j = 0; j < order.size(); ++j) order[j] = j;
        for (size_t j = order.size(); j > 1; --j) {
          std::swap(order[j - 1], order[rng.Uniform(j)]);
        }
        Status s = db.RunTransaction(
            spec.max_attempts, [&](Transaction& tx) -> Status {
              for (int r = 0; r < spec.reads_per_txn; ++r) {
                const std::string& key =
                    keys[order[static_cast<size_t>(spec.writes_per_txn + r)]];
                RETURN_IF_ERROR(tx.TryGet(key).status());
              }
              for (int w = 0; w < spec.writes_per_txn; ++w) {
                const std::string& key = keys[order[static_cast<size_t>(w)]];
                if (spec.nested) {
                  RETURN_IF_ERROR(Database::RunNested(
                      tx, 4, [&](Transaction& child) -> Status {
                        RETURN_IF_ERROR(child.Add(key, 1).status());
                        if (spec.voluntary_abort_p > 0 &&
                            rng.Bernoulli(spec.voluntary_abort_p)) {
                          return Status::Aborted("induced child abort");
                        }
                        return Status::OK();
                      }));
                } else {
                  RETURN_IF_ERROR(tx.Add(key, 1).status());
                }
                if (rng.Bernoulli(0.125)) {
                  std::this_thread::sleep_for(std::chrono::microseconds(20));
                }
              }
              return Status::OK();
            });
        (s.ok() ? committed : gave_up).fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  StormOutcome out;
  out.committed = committed.load();
  out.gave_up = gave_up.load();
  return out;
}

// Drain invariants, policy-aware. The NumWaiters probe goes through the
// ConflictPolicy interface (prevention policies report 0 by
// construction; detection reports its graph).
void CheckDrained(Database& db, const StormSpec& spec,
                  const StormOutcome& out, CcProtocol protocol) {
  LockManager& lm = db.manager().locks();
  EXPECT_EQ(lm.policy().NumWaiters(), 0u);
  EXPECT_EQ(lm.ParkedWaiterCount(), 0u);
  EXPECT_EQ(lm.DoomedRootCount(), 0u);
  const StatsSnapshot snap = db.stats().Snapshot();
  switch (protocol) {
    case CcProtocol::kDetect:
      EXPECT_EQ(snap.prevention_aborts, 0u) << snap.ToString();
      break;
    case CcProtocol::kWaitDie:
    case CcProtocol::kNoWait:
      // No detector exists to find a cycle — and no cycle exists to
      // find (wait-die's waits are acyclic by the age order; no-wait
      // never waits at all).
      EXPECT_EQ(snap.deadlocks, 0u) << snap.ToString();
      break;
    case CcProtocol::kOcc:
      // Lock-free execution, traced or not: no lock is ever granted and
      // no key leaves the word regime, so conflicts surface only as
      // validation aborts at commit, never as deadlocks or prevention
      // kills (the commit lock phase acquires in sorted key order).
      EXPECT_EQ(snap.deadlocks, 0u) << snap.ToString();
      EXPECT_EQ(snap.prevention_aborts, 0u) << snap.ToString();
      EXPECT_EQ(snap.lock_grants, 0u) << snap.ToString();
      EXPECT_EQ(snap.lock_word_inflations, 0u) << snap.ToString();
      break;
  }
  uint64_t sum = 0;
  for (int k = 0; k < spec.num_keys; ++k) {
    sum += static_cast<uint64_t>(
        db.ReadCommitted(StrCat("key", k)).value_or(0));
  }
  EXPECT_EQ(sum, out.committed * static_cast<uint64_t>(spec.writes_per_txn))
      << snap.ToString();
}

EngineOptions ProtocolOptions(CcProtocol protocol) {
  EngineOptions o;
  o.cc_protocol = protocol;
  // Wait-die still parks (old-on-young waits); give those waits the same
  // generous deadline the detection storms use. No-wait never parks.
  o.lock_timeout = std::chrono::milliseconds(2000);
  return o;
}

class CcPolicyParityTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::DisableAll(); }
};

TEST_F(CcPolicyParityTest, FlatMeshAllProtocols) {
  for (CcProtocol protocol : kAllProtocols) {
    SCOPED_TRACE(CcProtocolName(protocol));
    Database db(ProtocolOptions(protocol));
    StormSpec spec;
    spec.txns_per_thread = 150 * StressScale();
    StormOutcome out = RunStorm(db, spec);
    // Every protocol drains the mesh completely: detection resolves its
    // cycles, wait-die's oldest transaction always progresses (retried
    // transactions re-enter younger, so the age floor only rises), and
    // no-wait converges under the per-attempt jitter scopes.
    EXPECT_EQ(out.gave_up, 0u);
    EXPECT_EQ(out.committed,
              uint64_t{8} * static_cast<uint64_t>(spec.txns_per_thread));
    CheckDrained(db, spec, out, protocol);
    // The mesh must actually have collided, whatever form the collision
    // takes under this protocol (OCC collisions are validation aborts).
    const StatsSnapshot snap = db.stats().Snapshot();
    EXPECT_GT(snap.lock_waits + snap.deadlocks + snap.prevention_aborts +
                  snap.occ_validation_aborts,
              0u)
        << snap.ToString();
  }
}

TEST_F(CcPolicyParityTest, NestedMeshAllProtocols) {
  for (CcProtocol protocol : kAllProtocols) {
    SCOPED_TRACE(CcProtocolName(protocol));
    Database db(ProtocolOptions(protocol));
    StormSpec spec;
    spec.txns_per_thread = 100 * StressScale();
    spec.nested = true;
    StormOutcome out = RunStorm(db, spec);
    EXPECT_EQ(out.gave_up, 0u);
    CheckDrained(db, spec, out, protocol);
  }
}

TEST_F(CcPolicyParityTest, NestedAbortStormAllProtocols) {
  // Voluntary child aborts on top of the mesh: the abort-path purge and
  // the doom machinery run identically under every policy (they never
  // consult it), so the atomicity sum must hold for all three.
  for (CcProtocol protocol : kAllProtocols) {
    SCOPED_TRACE(CcProtocolName(protocol));
    Database db(ProtocolOptions(protocol));
    StormSpec spec;
    spec.txns_per_thread = 75 * StressScale();
    spec.nested = true;
    spec.voluntary_abort_p = 0.3;
    StormOutcome out = RunStorm(db, spec);
    EXPECT_EQ(out.gave_up, 0u);
    CheckDrained(db, spec, out, protocol);
    EXPECT_GT(db.stats().Snapshot().txns_aborted, 0u);
  }
}

TEST_F(CcPolicyParityTest, FailpointStormAllProtocols) {
  // Injected delays and spurious wakeups around the wait/wake sites, per
  // protocol. (No injected deadlocks/timeouts: those would blur the
  // per-protocol counter assertions CheckDrained makes.)
  for (CcProtocol protocol : kAllProtocols) {
    SCOPED_TRACE(CcProtocolName(protocol));
    FailPoints::Seed(0xCC0DEu);
    FailPoints::Config grant;
    grant.delay_one_in = 16;
    grant.delay_us = 50;
    FailPoints::Enable(FailPoints::kLockGrant, grant);
    FailPoints::Config wakeup;
    wakeup.spurious_wakeup_one_in = 8;
    wakeup.delay_one_in = 16;
    wakeup.delay_us = 50;
    FailPoints::Enable(FailPoints::kWaitWakeup, wakeup);

    Database db(ProtocolOptions(protocol));
    StormSpec spec;
    spec.txns_per_thread = 50 * StressScale();
    StormOutcome out = RunStorm(db, spec);
    FailPoints::DisableAll();
    EXPECT_EQ(out.gave_up, 0u);
    CheckDrained(db, spec, out, protocol);
  }
}

// Theorem 34 across the protocol axis: survivors of each policy's kill
// rule must still form a serially correct execution under the
// mechanized checker — the discipline, not the policy, carries the
// theorem.
void ValidateTrace(Database& db) {
  ASSERT_NE(db.trace(), nullptr);
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  Status wf = CheckConcurrentWellFormed(*st, alpha);
  ASSERT_TRUE(wf.ok()) << wf.ToString();
  Status sc = CheckSeriallyCorrectForAll(*st, alpha, {});
  EXPECT_TRUE(sc.ok()) << sc.ToString();
}

TEST_F(CcPolicyParityTest, TracedStormsSeriallyCorrectAllProtocols) {
  for (CcProtocol protocol : kAllProtocols) {
    SCOPED_TRACE(CcProtocolName(protocol));
    EngineOptions o = ProtocolOptions(protocol);
    o.lock_timeout = std::chrono::milliseconds(300);
    Database db(o);
    ASSERT_TRUE(db.EnableTracing().ok());
    // Kept small: checker cost grows with schedule length, and under
    // no-wait every killed attempt adds abort events to the trace.
    StormSpec spec;
    spec.threads = 3;
    spec.txns_per_thread = 8;
    spec.num_keys = 3;
    spec.writes_per_txn = 2;
    spec.reads_per_txn = 1;
    spec.nested = true;
    spec.voluntary_abort_p = 0.2;
    StormOutcome out = RunStorm(db, spec);
    EXPECT_EQ(out.committed + out.gave_up,
              uint64_t{3} * static_cast<uint64_t>(spec.txns_per_thread));
    CheckDrained(db, spec, out, protocol);
    ValidateTrace(db);
  }
}

}  // namespace
}  // namespace nestedtx
