#include "core/trace_recorder.h"

#include <algorithm>
#include <set>

#include "serial/data_type.h"
#include "util/strings.h"

namespace nestedtx {

EngineTraceRecorder::EngineTraceRecorder() {
  // The environment exists before everything else.
  Emit(Event::Create(TransactionId::Root()));
}

void EngineTraceRecorder::EmitAt(uint64_t seq, const Event& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.emplace_back(seq, e);
}

void EngineTraceRecorder::EmitAccessAt(uint64_t seq, const std::string& key,
                                       const AccessTraceInfo& info,
                                       Value value) {
  const TransactionId& a = info.access_id;
  std::lock_guard<std::mutex> lock(mutex_);
  const ObjectId x = ObjectForLocked(key);
  // Record the classification for BuildSystemType (idempotent per id).
  const bool is_read = info.op_code == ops::kRead;
  accesses_.emplace(a, AccessMeta{x,
                                  is_read ? AccessKind::kRead
                                          : AccessKind::kWrite,
                                  OpDescriptor{info.op_code, info.op_arg}});
  // The whole access lifecycle, on consecutive sequence numbers: the
  // generic scheduler is free to run these back-to-back, and the engine
  // effectively does.
  events_.emplace_back(seq, Event::RequestCreate(a));
  events_.emplace_back(seq + 1, Event::Create(a));
  events_.emplace_back(seq + 2, Event::RequestCommit(a, value));
  events_.emplace_back(seq + 3, Event::Commit(a));
  events_.emplace_back(seq + 4, Event::ReportCommit(a, value));
  events_.emplace_back(seq + 5, Event::InformCommitAt(x, a));
}

ObjectId EngineTraceRecorder::ObjectFor(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ObjectForLocked(key);
}

ObjectId EngineTraceRecorder::ObjectForLocked(const std::string& key) {
  auto it = object_by_key_.find(key);
  if (it != object_by_key_.end()) return it->second;
  const ObjectId x = static_cast<ObjectId>(key_by_object_.size());
  object_by_key_.emplace(key, x);
  key_by_object_.push_back(key);
  return x;
}

void EngineTraceRecorder::RecordPreload(const std::string& key,
                                        Value value) {
  std::lock_guard<std::mutex> lock(mutex_);
  initial_values_[ObjectForLocked(key)] = value;
}

Schedule EngineTraceRecorder::Snapshot() const {
  std::vector<std::pair<uint64_t, Event>> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = events_;
  }
  std::sort(copy.begin(), copy.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Schedule out;
  out.reserve(copy.size());
  for (auto& [n, e] : copy) {
    (void)n;
    out.push_back(std::move(e));
  }
  return out;
}

Result<SystemType> EngineTraceRecorder::BuildSystemType() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Collect every transaction id that appears, plus all its ancestors.
  std::set<TransactionId> ids;
  for (const auto& [n, e] : events_) {
    (void)n;
    if (e.txn.IsRoot()) continue;
    for (const TransactionId& a : e.txn.AncestorsToRoot()) {
      if (!a.IsRoot()) ids.insert(a);
    }
  }
  // std::set orders ids lexicographically = parents before children and
  // child indices ascending, which is exactly the order the builder's
  // sequential index assignment needs to reproduce the same ids.
  SystemTypeBuilder b;
  for (size_t x = 0; x < key_by_object_.size(); ++x) {
    auto iv = initial_values_.find(static_cast<ObjectId>(x));
    b.AddObject(key_by_object_[x], "cell",
                iv == initial_values_.end() ? kAbsentValue : iv->second);
  }
  for (const TransactionId& id : ids) {
    const TransactionId parent = id.Parent();
    const uint32_t index = id.back();
    auto acc = accesses_.find(id);
    // Explicit indices: child slots consumed by operations that never ran
    // (failed lock acquisitions) leave gaps, which the builder skips.
    if (acc != accesses_.end()) {
      b.AddAccessAt(parent, index, acc->second.object, acc->second.kind,
                    acc->second.op);
    } else {
      b.AddInternalAt(parent, index);
    }
  }
  SystemType st = b.Build();
  RETURN_IF_ERROR(st.Validate());
  return st;
}

}  // namespace nestedtx
