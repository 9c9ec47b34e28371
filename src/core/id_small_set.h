// Sorted small-vector set/map keyed by TransactionId, replacing the
// per-key std::set / std::map in the lock manager. Holder counts per key
// are tiny in practice (a handful of concurrent readers, an ancestor
// chain of writers), so a contiguous sorted vector beats a node-based
// tree: no per-element allocation, cache-friendly scans, and the same
// ordered iteration the conflict scan and trace emission rely on.
//
// Holder storage leaves with the last holder. Each set is a 16-byte
// header {pointer, size, capacity} over one holder block, and the block
// goes back the moment the set empties — on every erase path (Erase,
// EraseIf, TryTake, a kMerged ReplaceWithAncestor), so a key nobody
// holds owns no heap memory, however many keys were ever locked. Blocks
// come in kHolderBlockClasses size classes (64, 128, 256 and 512 bytes;
// a set that outgrows 512 bytes doubles on the plain heap) and recycle
// through a per-thread cache: one stack of block pointers per class,
// holding at most kCachedHolderBlocks blocks (2 KiB of thread-local
// slots in all) and spilling to the heap beyond that. So an insert into
// an empty set pops a block its thread freed moments ago — no heap call,
// no load from the block itself, and a line the core already holds. A
// block may be freed on a thread other than the one that took it; each
// thread only ever touches its own cache. A thread's cache is drained at
// thread exit, and from then on that thread's blocks go straight to and
// from the heap (static destructors, such as a global engine's, run
// after the main thread's cache is gone).
#ifndef NESTEDTX_CORE_ID_SMALL_SET_H_
#define NESTEDTX_CORE_ID_SMALL_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "tx/transaction_id.h"

namespace nestedtx {

inline constexpr size_t kHolderBlockClasses = 4;
inline constexpr uint32_t kCachedHolderBlocks = 64;  // per class, per thread

constexpr size_t HolderBlockBytes(size_t cls) { return size_t{64} << cls; }

namespace holder_blocks {

// One thread's cache, zero-initialized: a stack of free blocks per class.
// `limit` starts at 0, so a thread caches nothing until its first Take
// arms the cache (TakeSlow), and the exit drain sets it back to 0.
struct ThreadCache {
  void* slot[kHolderBlockClasses][kCachedHolderBlocks];
  uint32_t count[kHolderBlockClasses];
  uint32_t limit;  // kCachedHolderBlocks once armed, 0 before and after
  bool armed;      // the exit drain is registered (or has already run)
};
inline constinit thread_local ThreadCache tl_cache{};

// An empty stack: arm the cache on a thread's first call, then allocate.
void* TakeSlow(size_t cls);

inline void* Take(size_t cls) {
  ThreadCache& c = tl_cache;
  const uint32_t n = c.count[cls];
  if (n == 0) return TakeSlow(cls);
  c.count[cls] = n - 1;
  void* b = c.slot[cls][n - 1];
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(b, HolderBlockBytes(cls));
#endif
  return b;
}

inline void Give(void* block, size_t cls) {
  ThreadCache& c = tl_cache;
  const uint32_t n = c.count[cls];
  if (n >= c.limit) {
    ::operator delete(block);
    return;
  }
  c.slot[cls][n] = block;
  c.count[cls] = n + 1;
#if defined(__SANITIZE_ADDRESS__)
  // A cached block is freed memory: a stale holder pointer into it
  // still trips ASan, as it would on a heap block.
  ASAN_POISON_MEMORY_REGION(block, HolderBlockBytes(cls));
#endif
}

}  // namespace holder_blocks

/// The sorted sets' storage: a contiguous array in one holder block,
/// returned when the last element leaves.
template <typename T>
class HolderVector {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  HolderVector() = default;
  HolderVector(const HolderVector&) = delete;
  HolderVector& operator=(const HolderVector&) = delete;
  ~HolderVector() {
    if (data_ == nullptr) return;
    std::destroy(data_, data_ + size_);
    Free(data_, cap_);
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  /// Construct an element at `pos` (begin() <= pos <= end()), shifting
  /// the tail up by one. `args` must not refer to an element.
  template <typename... Args>
  void Emplace(T* pos, Args&&... args) {
    const uint32_t i = static_cast<uint32_t>(pos - data_);
    if (size_ == cap_) {
      if (data_ == nullptr) {
        data_ = Allocate(0, &cap_);
      } else {
        GrowAround(i);
      }
    } else if (i != size_) {
      ::new (data_ + size_) T(std::move(data_[size_ - 1]));
      std::move_backward(data_ + i, data_ + size_ - 1, data_ + size_);
      std::destroy_at(data_ + i);
    }
    ::new (data_ + i) T(std::forward<Args>(args)...);
    ++size_;
  }

  /// Erase the element at `pos`.
  void Erase(T* pos) {
    std::move(pos + 1, end(), pos);
    std::destroy_at(data_ + --size_);
    if (size_ == 0) ReleaseBlock();
  }

  /// Erase every element matching `pred`, keeping the order of the rest.
  /// Returns the number erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    uint32_t kept = 0;
    for (uint32_t i = 0; i < size_; ++i) {
      if (pred(data_[i])) continue;
      if (kept != i) data_[kept] = std::move(data_[i]);
      ++kept;
    }
    const size_t erased = size_ - kept;
    std::destroy(data_ + kept, data_ + size_);
    size_ = kept;
    if (size_ == 0 && data_ != nullptr) ReleaseBlock();
    return erased;
  }

 private:
  // Capacity of size class `cls` (0 when a T does not fit in it).
  static constexpr uint32_t ClassCapacity(size_t cls) {
    return static_cast<uint32_t>(HolderBlockBytes(cls) / sizeof(T));
  }

  // The block after one of capacity `cap`: the first size class that
  // holds more, else twice as many elements on the plain heap.
  static T* Allocate(uint32_t cap, uint32_t* new_cap) {
    for (size_t c = 0; c < kHolderBlockClasses; ++c) {
      if (ClassCapacity(c) > cap) {
        *new_cap = ClassCapacity(c);
        return static_cast<T*>(holder_blocks::Take(c));
      }
    }
    *new_cap = 2 * cap;
    return static_cast<T*>(::operator new(size_t{*new_cap} * sizeof(T)));
  }

  static void Free(T* block, uint32_t cap) {
    for (size_t c = 0; c < kHolderBlockClasses; ++c) {
      if (ClassCapacity(c) == cap) {
        holder_blocks::Give(block, c);
        return;
      }
    }
    ::operator delete(block);
  }

  // Move the elements into the next block, leaving slot `i` unbuilt. Out
  // of line: a grant on an empty set, the common case, never grows.
  [[gnu::noinline]] void GrowAround(uint32_t i) {
    uint32_t cap = 0;
    T* fresh = Allocate(cap_, &cap);
    std::uninitialized_move(data_, data_ + i, fresh);
    std::uninitialized_move(data_ + i, data_ + size_, fresh + i + 1);
    std::destroy(data_, data_ + size_);
    Free(data_, cap_);
    data_ = fresh;
    cap_ = cap;
  }

  void ReleaseBlock() {
    Free(data_, cap_);
    data_ = nullptr;
    cap_ = 0;
  }

  T* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
};

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
    TransactionId* it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it != v_.end() && *it == id) return false;
    v_.Emplace(it, id);
    return true;
  }

  /// Erase `from` and ensure `to` is present, in one pass. `to` must be a
  /// proper ancestor of `from` (so it sorts strictly before it) — the
  /// commit-inheritance shape. When no element sorts between the two this
  /// is a single in-place overwrite, versus an erase-memmove plus an
  /// insert-memmove for Erase + Insert.
  ReplaceOutcome ReplaceWithAncestor(const TransactionId& from,
                                     const TransactionId& to) {
    TransactionId* it_from = std::lower_bound(v_.begin(), v_.end(), from);
    if (it_from == v_.end() || !(*it_from == from)) {
      return ReplaceOutcome::kAbsent;
    }
    TransactionId* it_to = std::lower_bound(v_.begin(), it_from, to);
    if (it_to != it_from && *it_to == to) {
      v_.Erase(it_from);
      return ReplaceOutcome::kMerged;
    }
    std::move_backward(it_to, it_from, it_from + 1);
    *it_to = to;
    return ReplaceOutcome::kReplaced;
  }

  /// Erase `id` if present. Returns true iff the set changed.
  bool Erase(const TransactionId& id) {
    TransactionId* it = std::lower_bound(v_.begin(), v_.end(), id);
    if (it == v_.end() || !(*it == id)) return false;
    v_.Erase(it);
    return true;
  }

  bool Contains(const TransactionId& id) const {
    const TransactionId* it = std::lower_bound(v_.begin(), v_.end(), id);
    return it != v_.end() && *it == id;
  }

  /// Erase every element matching `pred`. Returns the number erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    return v_.EraseIf(pred);
  }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  /// Elements the holder block has room for (0: the set owns no block).
  size_t capacity() const { return v_.capacity(); }
  const TransactionId* begin() const { return v_.begin(); }
  const TransactionId* end() const { return v_.end(); }

 private:
  HolderVector<TransactionId> v_;
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
    Entry* it = LowerBound(id);
    if (it != v_.end() && it->id == id) {
      it->value = value;
      return false;
    }
    v_.Emplace(it, Entry{id, value});
    return true;
  }

  bool Contains(const TransactionId& id) const {
    const Entry* it = const_cast<VersionMap*>(this)->LowerBound(id);
    return it != v_.end() && it->id == id;
  }

  /// Remove `id`'s entry and return its value; outer nullopt when `id`
  /// has no entry (the inner optional is the stored version, which may
  /// itself be a stored deletion).
  std::optional<std::optional<int64_t>> TryTake(const TransactionId& id) {
    Entry* it = LowerBound(id);
    if (it == v_.end() || !(it->id == id)) return std::nullopt;
    std::optional<std::optional<int64_t>> out(it->value);
    v_.Erase(it);
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
    Entry* it_from = LowerBound(from);
    if (it_from == v_.end() || !(it_from->id == from)) {
      return ReplaceOutcome::kAbsent;
    }
    Entry* it_to = std::lower_bound(
        v_.begin(), it_from, to,
        [](const Entry& e, const TransactionId& k) { return e.id < k; });
    if (it_to != it_from && it_to->id == to) {
      it_to->value = it_from->value;
      v_.Erase(it_from);
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
    return v_.EraseIf([&](const Entry& e) { return pred(e.id); });
  }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  /// Entries the holder block has room for (0: the map owns no block).
  size_t capacity() const { return v_.capacity(); }
  const Entry* begin() const { return v_.begin(); }
  const Entry* end() const { return v_.end(); }

 private:
  Entry* LowerBound(const TransactionId& id) {
    return std::lower_bound(
        v_.begin(), v_.end(), id,
        [](const Entry& e, const TransactionId& k) { return e.id < k; });
  }

  HolderVector<Entry> v_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_ID_SMALL_SET_H_
