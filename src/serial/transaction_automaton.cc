#include "serial/transaction_automaton.h"

#include "util/strings.h"

namespace nestedtx {

ScriptedTransaction::ScriptedTransaction(const SystemType* st,
                                         TransactionId self,
                                         ScriptOptions options)
    : st_(st),
      self_(std::move(self)),
      options_(options),
      checker_(self_) {}

std::string ScriptedTransaction::name() const { return self_.ToString(); }

bool ScriptedTransaction::IsOperation(const Event& e) const {
  return IsTransactionEvent(e, self_);
}

bool ScriptedTransaction::IsOutput(const Event& e) const {
  if (!IsOperation(e)) return false;
  return e.kind == EventKind::kRequestCreate ||
         e.kind == EventKind::kRequestCommit;
}

Value ScriptedTransaction::AggregateValue() const {
  // Unsigned wraparound: report values span the whole int64 range.
  uint64_t sum = 0;
  for (const auto& [child, v] : reports_) sum += static_cast<uint64_t>(v);
  return static_cast<Value>(sum);
}

std::vector<Event> ScriptedTransaction::EnabledOutputs() const {
  std::vector<Event> out;
  if (!created_ || commit_requested_) return out;

  const auto& children = st_->Children(self_);
  const bool all_reported = reports_.size() == requested_.size();

  for (const TransactionId& child : children) {
    if (requested_.count(child)) continue;
    if (options_.sequential_children && !all_reported) break;
    out.push_back(Event::RequestCreate(child));
    if (options_.sequential_children) break;  // one at a time
  }

  if (!options_.never_commit && requested_.size() == children.size() &&
      all_reported) {
    out.push_back(Event::RequestCommit(self_, AggregateValue()));
  }
  return out;
}

Status ScriptedTransaction::Apply(const Event& e) {
  if (!IsOperation(e)) {
    return Status::InvalidArgument(
        StrCat(name(), ": ", e, " is not my operation"));
  }
  if (IsOutput(e)) {
    // Enabled-check for outputs.
    bool enabled = false;
    for (const Event& cand : EnabledOutputs()) {
      if (cand == e) {
        enabled = true;
        break;
      }
    }
    if (!enabled) {
      return Status::FailedPrecondition(
          StrCat(name(), ": output ", e, " not enabled"));
    }
  }
  // The scripted transaction preserves well-formedness by construction;
  // feeding the checker both documents and enforces it.
  RETURN_IF_ERROR(checker_.Feed(e));

  switch (e.kind) {
    case EventKind::kCreate:
      created_ = true;
      break;
    case EventKind::kRequestCreate:
      requested_.insert(e.txn);
      break;
    case EventKind::kReportCommit:
      reports_[e.txn] = e.value;
      break;
    case EventKind::kReportAbort:
      reports_[e.txn] = 0;
      break;
    case EventKind::kRequestCommit:
      commit_requested_ = true;
      break;
    default:
      break;
  }
  return Status::OK();
}

}  // namespace nestedtx
