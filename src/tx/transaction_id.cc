#include "tx/transaction_id.h"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace nestedtx {

TransactionId::TransactionId(const uint32_t* path, uint32_t n) {
  hash_ = HashRange(path, n, kFnvOffset);
  // copy_n, not memcpy: `path` is null for an empty vector.
  std::copy_n(path, n, MutableAlloc(n));
}

TransactionId::TransactionId(const uint32_t* path, uint32_t n,
                             size_t prefix_hash, uint32_t extra) {
  hash_ = (prefix_hash ^ extra) * kFnvPrime;
  uint32_t* dst = MutableAlloc(n + 1);
  std::memcpy(dst, path, size_t{n} * 4);
  dst[n] = extra;
}

TransactionId TransactionId::Child(uint32_t index) const {
  return TransactionId(data(), size_, hash_, index);
}

TransactionId TransactionId::Parent() const {
  assert(!IsRoot() && "T0 has no parent");
  return TransactionId(data(), size_ - 1);
}

TransactionId TransactionId::Lca(const TransactionId& other) const {
  const uint32_t* a = data();
  const uint32_t* b = other.data();
  const uint32_t n = size_ < other.size_ ? size_ : other.size_;
  uint32_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return TransactionId(a, i);
}

std::vector<TransactionId> TransactionId::AncestorsToRoot() const {
  std::vector<TransactionId> out;
  out.reserve(size_ + 1);
  const uint32_t* p = data();
  for (uint32_t n = size_;; --n) {
    out.push_back(TransactionId(p, n));
    if (n == 0) break;
  }
  return out;
}

TransactionId TransactionId::ChildOfAncestorToward(
    const TransactionId& ancestor) const {
  assert(ancestor.IsProperAncestorOf(*this));
  return TransactionId(data(), ancestor.size_ + 1);
}

std::string TransactionId::ToString() const {
  std::string out = "T0";
  const uint32_t* p = data();
  for (uint32_t i = 0; i < size_; ++i) {
    out += '.';
    out += std::to_string(p[i]);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const TransactionId& id) {
  return os << id.ToString();
}

}  // namespace nestedtx
