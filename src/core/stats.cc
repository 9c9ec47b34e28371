#include "core/stats.h"

#include <sstream>

namespace nestedtx {

uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

const char* StatCounterName(StatCounter c) {
  switch (c) {
#define NESTEDTX_STAT_NAME(id, field) \
  case id:                            \
    return #field;
    NESTEDTX_STAT_COUNTERS(NESTEDTX_STAT_NAME)
#undef NESTEDTX_STAT_NAME
    case kStatNumCounters:
      break;
  }
  return "?";
}

uint64_t StatsSnapshot::Value(StatCounter c) const {
  switch (c) {
#define NESTEDTX_STAT_VALUE(id, field) \
  case id:                             \
    return field;
    NESTEDTX_STAT_COUNTERS(NESTEDTX_STAT_VALUE)
#undef NESTEDTX_STAT_VALUE
    case kStatNumCounters:
      break;
  }
  return 0;
}

StatsSnapshot EngineStats::Snapshot() const {
  uint64_t sums[kStatNumCounters] = {};
  for (const Stripe& s : stripes_) {
    for (int i = 0; i < kStatNumCounters; ++i) {
      sums[i] += s.c[i].load(std::memory_order_relaxed);
    }
  }
  StatsSnapshot out;
#define NESTEDTX_STAT_ASSIGN(id, field) out.field = sums[id];
  NESTEDTX_STAT_COUNTERS(NESTEDTX_STAT_ASSIGN)
#undef NESTEDTX_STAT_ASSIGN
  // Fold the fast-lane counters into the aggregate accounting (a fast
  // lane bumps only its own counter; see the header's X-list comment).
  const uint64_t fast_reads = out.fast_read_grants + out.fast_read_reacquires;
  const uint64_t fast_writes =
      out.fast_write_grants + out.fast_write_reacquires;
  out.lock_grants += fast_reads + fast_writes;
  out.reads += fast_reads;
  out.writes += fast_writes;
  // Likewise fold the OCC per-access counters: an optimistic read/write
  // bumps only occ_reads/occ_writes (no lock grant is involved, so
  // nothing folds into lock_grants).
  out.reads += out.occ_reads;
  out.writes += out.occ_writes;
  return out;
}

void EngineStats::Reset() {
  for (Stripe& s : stripes_) {
    for (int i = 0; i < kStatNumCounters; ++i) {
      s.c[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::string StatsSnapshot::ToString() const {
  // Generated from the counter list: every counter appears, by its
  // canonical name, with no opportunity to forget one (PR 4 added four
  // counters to the old hand-written format by hand; never again).
  std::ostringstream oss;
  bool first = true;
  for (int i = 0; i < kStatNumCounters; ++i) {
    const StatCounter c = static_cast<StatCounter>(i);
    if (!first) oss << ' ';
    first = false;
    oss << StatCounterName(c) << '=' << Value(c);
  }
  return oss.str();
}

}  // namespace nestedtx
