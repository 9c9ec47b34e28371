// Engine trace recording: maps a live multithreaded engine execution into
// the formal model's event vocabulary, so the Lemma 33 serial-correctness
// checker can validate *real* engine runs — a self-verifying mode.
//
// Mapping. Each engine transaction is a transaction of the model (ids are
// already hierarchical); each Get/Put/Add/Delete is an access child of
// its transaction, modelled as an access to a "cell" object (one per
// distinct key). An access's whole lifecycle
//   REQUEST_CREATE, CREATE, REQUEST_COMMIT(v), COMMIT, REPORT_COMMIT(v),
//   INFORM_COMMIT_AT(X)
// is one group of consecutive sequence numbers, stamped where the engine
// orders the access against other transactions' accesses to the key:
//   - Locking protocols emit it at lock-grant time under the key's mutex,
//     where the state change happens, so the per-object order is the
//     order the lock manager enforced (tracing turns their lock-word
//     lanes off). INFORM_{COMMIT,ABORT}_AT events are emitted in the
//     per-key commit/abort handlers, again under the key mutex.
//   - OCC runs its real commit. LockManager::OccCommit reserves one block
//     at its serialization point; once the commit succeeds the block gets
//     the buffered ops' access groups, REQUEST_COMMIT, COMMIT and one
//     INFORM_COMMIT_AT per key (ordering argument at OccCommit).
// Transaction lifecycle events are emitted by Begin/Commit/Abort.
//
// The recorded sequence, sorted by its global sequence numbers, is a
// schedule of the R/W Locking system over the SystemType reconstructed by
// BuildSystemType() — which is what CheckSeriallyCorrectForAll consumes.
//
// Supported modes: kMossRW, kExclusive, kSerial. (kFlat2PL takes locks in
// the top-level's name and has no per-subtransaction recovery, so it does
// not correspond to a R/W Locking system.)
#ifndef NESTEDTX_CORE_TRACE_RECORDER_H_
#define NESTEDTX_CORE_TRACE_RECORDER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tx/event.h"
#include "tx/system_type.h"
#include "util/status.h"

namespace nestedtx {

/// Everything the recorder needs to know about one access, captured at
/// grant time.
struct AccessTraceInfo {
  TransactionId access_id;  // child id allocated by the transaction
  uint32_t op_code = 0;     // "cell" op code (ops::kRead etc.)
  Value op_arg = 0;
};

/// A run of consecutive sequence numbers reserved ahead of its events.
struct TraceBlock {
  uint64_t size = 0;   // events it holds (set by the caller)
  uint64_t first = 0;  // first sequence number (set by the reserver)
};

class EngineTraceRecorder {
 public:
  /// Events in one access group (see header comment).
  static constexpr uint64_t kAccessGroupEvents = 6;

  EngineTraceRecorder();

  /// Reserve `n` consecutive global sequence numbers and return the
  /// first. One fetch_add and no mutex, so it may run under a MICRO bit.
  uint64_t Reserve(uint64_t n) { return seq_.fetch_add(n); }

  /// Record `e` at a sequence number obtained from Reserve.
  void EmitAt(uint64_t seq, const Event& e);

  /// Thread-safe append of one event (stamps a global sequence number).
  void Emit(const Event& e) { EmitAt(Reserve(1), e); }

  /// Emit the full access group (see header comment) for a granted
  /// access on `key` that returned `value`. Called under the key mutex.
  void EmitAccess(const std::string& key, const AccessTraceInfo& info,
                  Value value) {
    EmitAccessAt(Reserve(kAccessGroupEvents), key, info, value);
  }

  /// Write that group at seq .. seq + kAccessGroupEvents - 1, reserved
  /// by the caller (EmitAccess, or a traced OCC commit's block).
  void EmitAccessAt(uint64_t seq, const std::string& key,
                    const AccessTraceInfo& info, Value value);

  /// Object id for `key`, assigning one on first sight (thread-safe).
  ObjectId ObjectFor(const std::string& key);

  /// Record a preloaded committed value (must precede any access).
  void RecordPreload(const std::string& key, Value value);

  /// The recorded schedule, in global order.
  Schedule Snapshot() const;

  /// Reconstruct the SystemType this trace is a schedule of: every
  /// transaction observed, every access with its object/kind/op, one
  /// "cell" object per key with its preloaded initial value.
  Result<SystemType> BuildSystemType() const;

 private:
  ObjectId ObjectForLocked(const std::string& key);

  mutable std::mutex mutex_;
  std::vector<std::pair<uint64_t, Event>> events_;
  std::atomic<uint64_t> seq_{0};

  std::map<std::string, ObjectId> object_by_key_;
  std::vector<std::string> key_by_object_;
  std::map<ObjectId, Value> initial_values_;
  struct AccessMeta {
    ObjectId object;
    AccessKind kind;
    OpDescriptor op;
  };
  std::map<TransactionId, AccessMeta> accesses_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_TRACE_RECORDER_H_
