// Heap allocations on the locking Transaction's access path. A top-level
// transaction's per-key bookkeeping is its key inventory, which reserves
// room for 16 keys on first insert, so a transaction of up to 16 keys
// allocates the handle and the inventory and nothing else once the
// engine's per-thread caches are warm.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/database.h"
#include "util/strings.h"

// Global new/delete overrides counting every heap allocation the calling
// thread makes (the engine's own helper threads, if any, count apart).
namespace {
thread_local size_t g_alloc_count = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace nestedtx {
namespace {

// One top-level transaction that reads and adds each key, then commits.
// Returns the heap allocations it made, or SIZE_MAX if an operation
// failed.
size_t AllocationsOfOneTransaction(Database& db,
                                   const std::vector<std::string>& keys) {
  const size_t before = g_alloc_count;
  {
    std::unique_ptr<Transaction> t = db.Begin();
    for (const std::string& key : keys) {
      if (!t->TryGet(key).ok() || !t->Add(key, 1).ok()) return SIZE_MAX;
    }
    if (!t->Commit().ok()) return SIZE_MAX;
  }
  return g_alloc_count - before;
}

TEST(TransactionAllocTest, TwelveKeyTransactionMakesTwoAllocations) {
  EngineOptions o;
  o.metrics_enabled = true;
  o.span_sample_one_in = 0;
  o.wal_enabled = false;
  Database db(o);
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(StrCat("k", i));
    db.Preload(keys.back(), i);
  }
  // Warm-up: the thread's holder-block cache, stat slot and release
  // scratch are filled by the first transaction.
  ASSERT_NE(AllocationsOfOneTransaction(db, keys), SIZE_MAX);
  const size_t allocs = AllocationsOfOneTransaction(db, keys);
  // The handle and the key inventory.
  EXPECT_LE(allocs, 2u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(db.ReadCommitted(keys[i]).value(), i + 2);
  }
}

}  // namespace
}  // namespace nestedtx
