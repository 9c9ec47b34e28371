// Sorted small-vector set/map keyed by TransactionId, replacing the
// per-key std::set / std::map in the lock manager. Holder counts per key
// are tiny in practice (a handful of concurrent readers, an ancestor
// chain of writers), so a contiguous sorted vector beats a node-based
// tree: no per-element allocation, cache-friendly scans, and the same
// ordered iteration the conflict scan and trace emission rely on.
#ifndef NESTEDTX_CORE_ID_SMALL_SET_H_
#define NESTEDTX_CORE_ID_SMALL_SET_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "tx/transaction_id.h"

namespace nestedtx {

/// Outcome of the ReplaceWithAncestor operations below.
enum class ReplaceOutcome {
  kAbsent,    // `from` was not present; nothing changed
  kMerged,    // `from` erased; `to` was already present (size shrank)
  kReplaced,  // `to` took `from`'s place (new element, same size)
};

/// Sorted unique vector of TransactionId.
class IdSet {
 public:
  /// Insert `id` if absent. Returns true iff the set changed.
  bool Insert(const TransactionId& id) {
    auto it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it != v_.end() && *it == id) return false;
    v_.insert(it, id);
    return true;
  }

  /// Erase `from` and ensure `to` is present, in one pass. `to` must be a
  /// proper ancestor of `from` (so it sorts strictly before it) — the
  /// commit-inheritance shape. When no element sorts between the two this
  /// is a single in-place overwrite, versus an erase-memmove plus an
  /// insert-memmove for Erase + Insert.
  ReplaceOutcome ReplaceWithAncestor(const TransactionId& from,
                                     const TransactionId& to) {
    auto it_from = std::lower_bound(v_.begin(), v_.end(), from);
    if (it_from == v_.end() || !(*it_from == from)) {
      return ReplaceOutcome::kAbsent;
    }
    auto it_to = std::lower_bound(v_.begin(), it_from, to);
    if (it_to != it_from && *it_to == to) {
      v_.erase(it_from);
      return ReplaceOutcome::kMerged;
    }
    std::move_backward(it_to, it_from, it_from + 1);
    *it_to = to;
    return ReplaceOutcome::kReplaced;
  }

  /// Erase `id` if present. Returns true iff the set changed.
  bool Erase(const TransactionId& id) {
    auto it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it == v_.end() || !(*it == id)) return false;
    v_.erase(it);
    return true;
  }

  bool Contains(const TransactionId& id) const {
    auto it = std::lower_bound(v_.begin(), v_.end(), id);
    return it != v_.end() && *it == id;
  }

  /// Erase every element matching `pred`. Returns the number erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (size_t i = 0; i < v_.size();) {
      if (pred(v_[i])) {
        v_.erase(v_.begin() + i);
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  std::vector<TransactionId>::const_iterator begin() const {
    return v_.begin();
  }
  std::vector<TransactionId>::const_iterator end() const { return v_.end(); }

 private:
  std::vector<TransactionId> v_;
};

/// Sorted vector map TransactionId -> optional<int64_t> (a version slot;
/// nullopt is a stored deletion, distinct from "no entry"). Doubles as
/// the lock manager's write-holder set: a key's write holders and its
/// version owners are always the same transactions (every write grant
/// stores a version, every release removes or inherits it), so one
/// sorted structure serves both and each grant or release walks one
/// vector instead of two parallel ones.
class VersionMap {
 public:
  struct Entry {
    TransactionId id;
    std::optional<int64_t> value;
  };

  /// Insert-or-assign. Returns true iff `id` was newly inserted.
  bool Put(const TransactionId& id, std::optional<int64_t> value) {
    auto it = LowerBound(id);
    if (it != v_.end() && it->id == id) {
      it->value = value;
      return false;
    }
    v_.insert(it, Entry{id, value});
    return true;
  }

  bool Contains(const TransactionId& id) const {
    auto it = const_cast<VersionMap*>(this)->LowerBound(id);
    return it != v_.end() && it->id == id;
  }

  /// Remove `id`'s entry and return its value; outer nullopt when `id`
  /// has no entry (the inner optional is the stored version, which may
  /// itself be a stored deletion).
  std::optional<std::optional<int64_t>> TryTake(const TransactionId& id) {
    auto it = LowerBound(id);
    if (it == v_.end() || !(it->id == id)) return std::nullopt;
    std::optional<std::optional<int64_t>> out(it->value);
    v_.erase(it);
    return out;
  }

  /// Move `from`'s entry to key `to`, keeping the value — the combined
  /// holder-replace and version-rekey of commit inheritance. `to` must
  /// be a proper ancestor of `from` (so it sorts strictly before it).
  /// On kMerged, `to`'s previous value is overwritten by `from`'s (the
  /// child's version wins on inherit); kAbsent means `from` had no
  /// entry and nothing changed.
  ReplaceOutcome ReplaceWithAncestor(const TransactionId& from,
                                     const TransactionId& to) {
    auto it_from = LowerBound(from);
    if (it_from == v_.end() || !(it_from->id == from)) {
      return ReplaceOutcome::kAbsent;
    }
    auto it_to = std::lower_bound(
        v_.begin(), it_from, to,
        [](const Entry& e, const TransactionId& k) { return e.id < k; });
    if (it_to != it_from && it_to->id == to) {
      it_to->value = it_from->value;
      v_.erase(it_from);
      return ReplaceOutcome::kMerged;
    }
    std::optional<int64_t> value = std::move(it_from->value);
    std::move_backward(it_to, it_from, it_from + 1);
    it_to->id = to;
    it_to->value = std::move(value);
    return ReplaceOutcome::kReplaced;
  }

  /// Erase every entry whose id matches `pred`. Returns the number
  /// erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (size_t i = 0; i < v_.size();) {
      if (pred(v_[i].id)) {
        v_.erase(v_.begin() + i);
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  std::vector<Entry>::const_iterator begin() const { return v_.begin(); }
  std::vector<Entry>::const_iterator end() const { return v_.end(); }

 private:
  std::vector<Entry>::iterator LowerBound(const TransactionId& id) {
    return std::lower_bound(
        v_.begin(), v_.end(), id,
        [](const Entry& e, const TransactionId& k) { return e.id < k; });
  }

  std::vector<Entry> v_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_ID_SMALL_SET_H_
