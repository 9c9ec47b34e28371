#include "core/failpoints.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "util/strings.h"

namespace nestedtx {

namespace {

// Per-site mutable state. Configs are read under the mutex on the armed
// slow path only; the unarmed fast path never touches them.
struct SiteState {
  FailPoints::Config config;
  std::atomic<uint64_t> hits{0};
};

std::mutex g_config_mutex;
SiteState g_sites[FailPoints::kNumSites];
std::atomic<uint64_t> g_seed{0x5eedf01d5eedf01dULL};
std::atomic<uint64_t> g_injections{0};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::atomic<uint32_t> FailPoints::armed_mask_{0};

void FailPoints::Enable(Site site, const Config& config) {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  g_sites[site].config = config;
  g_sites[site].hits.store(0, std::memory_order_relaxed);
  armed_mask_.fetch_or(1u << site, std::memory_order_relaxed);
}

void FailPoints::DisableAll() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  armed_mask_.store(0, std::memory_order_relaxed);
  for (SiteState& s : g_sites) {
    s.config = Config{};
    s.hits.store(0, std::memory_order_relaxed);
  }
  g_injections.store(0, std::memory_order_relaxed);
}

void FailPoints::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  g_seed.store(seed, std::memory_order_relaxed);
  for (SiteState& s : g_sites) s.hits.store(0, std::memory_order_relaxed);
  g_injections.store(0, std::memory_order_relaxed);
}

uint64_t FailPoints::InjectionCount() {
  return g_injections.load(std::memory_order_relaxed);
}

bool FailPoints::Decide(Site site, uint32_t one_in, uint64_t action_salt) {
  if (one_in == 0) return false;
  const uint64_t n =
      g_sites[site].hits.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = SplitMix64(g_seed.load(std::memory_order_relaxed) ^
                                (static_cast<uint64_t>(site) << 56) ^
                                (action_salt << 48) ^ n);
  if (h % one_in != 0) return false;
  g_injections.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FailPoints::DelaySlow(Site site) {
  Config cfg;
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    cfg = g_sites[site].config;
  }
  if (Decide(site, cfg.delay_one_in, /*action_salt=*/1)) {
    std::this_thread::sleep_for(std::chrono::microseconds(cfg.delay_us));
  }
}

bool FailPoints::SpuriousSlow(Site site) {
  Config cfg;
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    cfg = g_sites[site].config;
  }
  return Decide(site, cfg.spurious_wakeup_one_in, /*action_salt=*/2);
}

const char* FailPoints::SiteName(Site site) {
  switch (site) {
    case kLockGrant:
      return "lock_grant";
    case kWaitWakeup:
      return "wait_wakeup";
    case kCommitInherit:
      return "commit_inherit";
    case kAbortPurge:
      return "abort_purge";
    case kBeginTxn:
      return "begin_txn";
    case kRetryBackoff:
      return "retry_backoff";
    case kWalAppend:
      return "wal_append";
    case kWalFsync:
      return "wal_fsync";
    case kWalRecover:
      return "wal_recover";
    case kWalCheckpoint:
      return "wal_checkpoint";
    case kNumSites:
      break;
  }
  return "?";
}

namespace {

// "site" | "all" -> site list; empty on unknown name.
std::vector<FailPoints::Site> SitesNamed(const std::string& name) {
  std::vector<FailPoints::Site> out;
  for (int s = 0; s < FailPoints::kNumSites; ++s) {
    const auto site = static_cast<FailPoints::Site>(s);
    if (name == "all" || name == FailPoints::SiteName(site)) {
      out.push_back(site);
    }
  }
  return out;
}

// "key=value" into a Config (or the shared seed); false on unknown key
// or malformed value. strtoull alone would read "" as 0 and wrap "-1" to
// its maximum, so a value must start with a digit and fit its field: 32
// bits for the Config fields, 64 for the seed.
bool ApplyParam(const std::string& param, FailPoints::Config* cfg,
                bool* reseed, uint64_t* seed) {
  const size_t eq = param.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = param.substr(0, eq);
  const char* text = param.c_str() + eq + 1;
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno == ERANGE || *end != '\0') return false;
  if (key == "seed") {
    *reseed = true;
    *seed = value;
    return true;
  }
  uint32_t* field = nullptr;
  if (key == "delay_one_in") {
    field = &cfg->delay_one_in;
  } else if (key == "delay_us") {
    field = &cfg->delay_us;
  } else if (key == "spurious_wakeup_one_in") {
    field = &cfg->spurious_wakeup_one_in;
  } else if (key == "deadlock_one_in") {
    field = &cfg->deadlock_one_in;
  } else if (key == "timeout_one_in") {
    field = &cfg->timeout_one_in;
  } else if (key == "io_error_one_in") {
    field = &cfg->io_error_one_in;
  } else if (key == "short_write_one_in") {
    field = &cfg->short_write_one_in;
  } else {
    return false;
  }
  if (value > std::numeric_limits<uint32_t>::max()) return false;
  *field = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

int FailPoints::EnableFromSpec(const std::string& spec) {
  int armed = 0;
  bool reseed = false;
  uint64_t seed = 0;
  for (const std::string& group : Split(spec, ';')) {
    if (group.empty()) continue;
    const size_t colon = group.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "failpoints: no ':' in group '%s', skipped\n",
                   group.c_str());
      continue;
    }
    const std::vector<Site> sites = SitesNamed(group.substr(0, colon));
    if (sites.empty()) {
      std::fprintf(stderr, "failpoints: unknown site in '%s', skipped\n",
                   group.c_str());
      continue;
    }
    Config cfg;
    bool ok = true;
    for (const std::string& param : Split(group.substr(colon + 1), ',')) {
      if (param.empty()) continue;
      if (!ApplyParam(param, &cfg, &reseed, &seed)) {
        std::fprintf(stderr, "failpoints: bad param '%s', group skipped\n",
                     param.c_str());
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (Site site : sites) {
      Enable(site, cfg);
      ++armed;
    }
  }
  // Seed last: Enable() zeroes per-site hit counters, Seed() zeroes the
  // injection tally too, so the armed storm starts from a clean stream.
  if (reseed) Seed(seed);
  return armed;
}

int FailPoints::EnableFromEnv() {
  const char* env = std::getenv("NESTEDTX_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return 0;
  return EnableFromSpec(env);
}

Status FailPoints::FailSlow(Site site) {
  Config cfg;
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    cfg = g_sites[site].config;
  }
  if (Decide(site, cfg.deadlock_one_in, /*action_salt=*/3)) {
    return Status::Deadlock("failpoint-injected deadlock");
  }
  if (Decide(site, cfg.timeout_one_in, /*action_salt=*/4)) {
    return Status::TimedOut("failpoint-injected timeout");
  }
  if (Decide(site, cfg.io_error_one_in, /*action_salt=*/5)) {
    return Status::IoError("failpoint-injected io error");
  }
  return Status::OK();
}

bool FailPoints::ShortWriteSlow(Site site) {
  Config cfg;
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    cfg = g_sites[site].config;
  }
  return Decide(site, cfg.short_write_one_in, /*action_salt=*/6);
}

}  // namespace nestedtx
