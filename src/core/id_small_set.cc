#include "core/id_small_set.h"

namespace nestedtx {
namespace holder_blocks {
namespace {

// Drains this thread's cache at thread exit. Its first use registers the
// destructor, so a thread that never takes a holder block registers
// nothing. After the drain `limit` is 0 and `armed` stays set: every
// later Give on this thread frees to the heap and every Take allocates
// there.
struct CacheReaper {
  CacheReaper() = default;
  CacheReaper(const CacheReaper&) = delete;
  CacheReaper& operator=(const CacheReaper&) = delete;
  ~CacheReaper() {
    ThreadCache& c = tl_cache;
    c.limit = 0;
    for (size_t cls = 0; cls < kHolderBlockClasses; ++cls) {
      while (c.count[cls] > 0) {
        void* b = c.slot[cls][--c.count[cls]];
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(b, HolderBlockBytes(cls));
#endif
        ::operator delete(b);
      }
    }
  }
  bool used = false;  // written on arming, so arming constructs the reaper
};
thread_local CacheReaper tl_reaper;

}  // namespace

void* TakeSlow(size_t cls) {
  ThreadCache& c = tl_cache;
  if (!c.armed) {
    tl_reaper.used = true;
    c.armed = true;
    c.limit = kCachedHolderBlocks;
  }
  return ::operator new(HolderBlockBytes(cls));
}

}  // namespace holder_blocks
}  // namespace nestedtx
