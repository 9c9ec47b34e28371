#include "core/cc_policy.h"


#include "util/strings.h"

namespace nestedtx {
namespace {

// Deadlock detection: the engine's historical wait machinery, now
// policy-private. Owns the wait-for graph; a registration that would
// close a cycle kills the requester.
class DetectPolicy : public ConflictPolicy {
 public:
  explicit DetectPolicy(const char* name = CcProtocolName(CcProtocol::kDetect))
      : name_(name) {}

  Decision OnConflict(const TransactionId& txn,
                      const std::vector<TransactionId>& holders) override {
    Decision d;
    const Status reg = graph_.AddWait(txn, holders);
    if (!reg.ok()) {
      // The registration would have closed a cycle; the rejected AddWait
      // erased any previous edges, so nothing is registered.
      d.action = Decision::Action::kAbort;
      d.status = reg;
      return d;
    }
    d.registered = true;
    return d;
  }

  void OnWaitEnd(const TransactionId& txn) override {
    graph_.RemoveWait(txn);
  }

  void OnTransactionEnd(const TransactionId& txn) override {
    graph_.RemoveWait(txn);
  }

  size_t NumWaiters() const override { return graph_.NumWaiters(); }

  WaitGraph* graph() override { return &graph_; }

  const char* Name() const override { return name_; }

 private:
  const char* name_;
  WaitGraph graph_;
};

// Wait-die prevention. Stateless: the decision is a pure function of
// the requester's and holders' ids. The requester waits iff it is older
// than EVERY conflicting holder under the TransactionId lexicographic
// order — cross-tree, path[0] (the top-level begin ordinal) decides, so
// age is begin order; within a tree a prefix orders before its
// extensions, so a parent blocked on its own live descendant counts as
// "older" and waits (that wait resolves when the child returns — the
// same relation the detection graph never edges). Every wait therefore
// runs strictly young->old along a total order: the wait relation is
// acyclic and deadlock cannot form.
class WaitDiePolicy : public ConflictPolicy {
 public:
  Decision OnConflict(const TransactionId& txn,
                      const std::vector<TransactionId>& holders) override {
    Decision d;
    for (const TransactionId& h : holders) {
      if (!(txn < h)) {
        d.action = Decision::Action::kAbort;
        d.prevention = true;
        d.status = Status::Deadlock(
            StrCat(txn, " dies (wait-die: conflicts with older ", h, ")"));
        return d;
      }
    }
    return d;  // older than every holder: wait
  }

  const char* Name() const override {
    return CcProtocolName(CcProtocol::kWaitDie);
  }
};

// No-wait prevention: any conflict is an immediate retryable abort.
class NoWaitPolicy : public ConflictPolicy {
 public:
  Decision OnConflict(const TransactionId& txn,
                      const std::vector<TransactionId>& holders) override {
    Decision d;
    d.action = Decision::Action::kAbort;
    d.prevention = true;
    d.status = Status::Deadlock(StrCat(
        txn, " dies (no-wait: ", holders.size(), " conflicting holders)"));
    return d;
  }

  const char* Name() const override {
    return CcProtocolName(CcProtocol::kNoWait);
  }
};

}  // namespace

std::unique_ptr<ConflictPolicy> MakeConflictPolicy(
    const EngineOptions& options) {
  switch (options.cc_protocol) {
    case CcProtocol::kDetect:
      return std::make_unique<DetectPolicy>();
    case CcProtocol::kWaitDie:
      return std::make_unique<WaitDiePolicy>();
    case CcProtocol::kNoWait:
      return std::make_unique<NoWaitPolicy>();
    case CcProtocol::kOcc:
      // The optimistic path never consults the policy (no locks, no
      // conflicts until commit); only the traced replay commit runs
      // through the grant paths, and it acquires in sorted key order —
      // deadlock-free by construction — so a waiting (detection) policy
      // is correct there and keeps the kOcc drain invariant
      // (deadlocks == 0 and prevention_aborts == 0).
      return std::make_unique<DetectPolicy>(
          CcProtocolName(CcProtocol::kOcc));
  }
  return std::make_unique<DetectPolicy>();
}

}  // namespace nestedtx
