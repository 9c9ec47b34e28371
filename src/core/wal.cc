#include "core/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <unordered_map>

#include "core/failpoints.h"
#include "util/cleanup.h"
#include "util/strings.h"

namespace nestedtx {

namespace {

constexpr char kMagic[8] = {'N', 'T', 'X', 'W', 'A', 'L', '0', '1'};
constexpr size_t kMagicLen = sizeof(kMagic);
constexpr char kSnapMagic[8] = {'N', 'T', 'X', 'C', 'K', 'P', 'T', '1'};
constexpr char kManifestMagic[8] = {'N', 'T', 'X', 'M', 'A', 'N', '0', '1'};
constexpr char kManifestName[] = "CHECKPOINT";
// Footer sentinel inside the last snapshot frame: its presence (plus the
// entry count matching the header) proves the snapshot file is complete.
constexpr uint64_t kSnapFooterMagic = 0x46'54'50'4b'43'58'54'4eULL;
// Entries per snapshot frame: small enough that a torn write is caught
// frame-by-frame, large enough that CRC framing overhead stays trivial.
constexpr uint32_t kSnapBatch = 512;
// Flush IO is chunked so a SIGKILL mid-flush can tear a group at a
// record boundary OR mid-record — exactly the tails recovery must
// truncate. (A single giant write() would usually land atomically on a
// local fs and starve the crash tests of torn tails.)
constexpr size_t kWriteChunk = 4096;
// Bound on a frame's payload length: recovery treats anything larger as
// a torn/corrupt tail rather than attempting the allocation, so appends
// and snapshot writes never produce one.
constexpr uint32_t kMaxRecordLen = 64u << 20;
// Read window of the log walk (checkpoint fix-up and Recover) and the
// rotation copy: neither holds more of a shard file than this in memory.
constexpr size_t kWalkChunk = size_t{1} << 20;
// How long an ack spins on another thread's flush before it parks:
// riding the group its own shard is writing, and waiting on another
// shard whose floor is still at or below its seq (that shard's own
// committer is usually mid-flush). A flush in `none` mode is one
// write() of about a microsecond, while a condition-variable round
// trip costs tens of microseconds on a virtualized host. Waiters skip
// the spin when the flush-latency EWMA exceeds the bound (the fsync
// modes), so they do not burn a core on a millisecond sync.
constexpr uint64_t kRideSpinNs = 50'000;
constexpr uint64_t kCutSpinNs = 5'000;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Spin until done() holds (true) or the monotonic clock reaches
// `deadline_ns` (false).
template <typename Done>
bool SpinUntil(uint64_t deadline_ns, const Done& done) {
  for (;;) {
    if (done()) return true;
    if (MonotonicNowNs() >= deadline_ns) return false;
    CpuRelax();
  }
}

// Slicing-by-8 tables for the reflected 0xEDB88320 polynomial: t[0] is
// the bytewise table, and t[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table loads fold eight bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t WalCrc32(const char* data, size_t n) {
  const Crc32Tables& t = Crc32Table();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint32_t lo = 0;
      uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

namespace {

uint32_t DecodeU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t DecodeU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

Status Errno(const char* op, const std::string& path) {
  return Status::IoError(std::string(op) + " failed for " + path + ": " +
                         std::strerror(errno));
}

// One decoded commit record (recovery and checkpoint fix-up). Carries
// where its frame starts in its shard file so the consistent cut can
// truncate records above the first global seq gap.
struct RecoveredRecord {
  uint64_t seq = 0;
  size_t frame_start = 0;
  std::vector<WalWrite> writes;
};

// Payload length of the record frame at `frame`, given that `avail`
// bytes are readable from there; 0 on a framing violation (a header
// that does not fit, an impossible length, a frame running past
// `avail`, or a CRC mismatch).
uint32_t FrameLen(const char* frame, size_t avail) {
  if (avail < 8) return 0;
  const uint32_t len = DecodeU32(frame);
  if (len < 12 || len > kMaxRecordLen || size_t{8} + len > avail) return 0;
  if (WalCrc32(frame + 8, len) != DecodeU32(frame + 4)) return 0;
  return len;
}

// Decode a CRC-valid payload (u64 seq, u32 nwrites, writes) into `rec`.
// False when the frame is nonsense that slipped past the CRC.
bool DecodeRecord(const char* payload, uint32_t len, RecoveredRecord* rec) {
  rec->seq = DecodeU64(payload);
  const uint32_t nwrites = DecodeU32(payload + 8);
  // A write is at least 5 bytes (u32 klen + u8 has_value), so a count
  // the frame cannot hold is corruption that slipped past the
  // (non-cryptographic) CRC — treat it as a torn tail rather than
  // attempting a multi-GB reserve.
  if (nwrites > (len - 12) / 5) return false;
  size_t p = 12;
  rec->writes.reserve(nwrites);
  for (uint32_t i = 0; i < nwrites; ++i) {
    if (p + 4 > len) return false;
    const uint32_t klen = DecodeU32(payload + p);
    p += 4;
    if (p + klen + 1 > len) return false;
    WalWrite w;
    w.key.assign(payload + p, klen);
    p += klen;
    const uint8_t has = static_cast<uint8_t>(payload[p]);
    p += 1;
    if (has != 0) {
      if (p + 8 > len) return false;
      w.value = static_cast<int64_t>(DecodeU64(payload + p));
      p += 8;
    }
    rec->writes.push_back(std::move(w));
  }
  return p == len;
}

// pread exactly `n` bytes at `off` into `buf`, short only at EOF
// (EINTR-safe). Returns the byte count read.
Result<size_t> PreadFull(int fd, const std::string& path, char* buf,
                         size_t n, size_t off) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path);
    }
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return got;
}

Status WriteAll(int fd, const std::string& path, const char* data,
                size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

// Append bytes [begin, end) of file `from` to file `to` through a
// kWalkChunk buffer (the rotation's copy into its tmp file).
Status CopyRange(int from, const std::string& from_path, size_t begin,
                 size_t end, int to, const std::string& to_path) {
  std::string buf;
  while (begin < end) {
    buf.resize(std::min(kWalkChunk, end - begin));
    Result<size_t> got =
        PreadFull(from, from_path, buf.data(), buf.size(), begin);
    if (!got.ok()) return got.status();
    if (*got != buf.size()) {
      return Status::IoError("short read while rotating " + from_path);
    }
    RETURN_IF_ERROR(WriteAll(to, to_path, buf.data(), buf.size()));
    begin += buf.size();
  }
  return Status::OK();
}

// A bounded read window over the first `end` bytes of a shard file: the
// log walk reads a file through it without materializing it.
class FileWindow {
 public:
  FileWindow(int fd, const std::string& path, size_t end)
      : fd_(fd), path_(path), end_(end) {}

  // Bytes [off, off + n) of the file, or nullptr when they run past
  // `end` (or past the file).
  Result<const char*> At(size_t off, size_t n) {
    if (off + n > end_) return static_cast<const char*>(nullptr);
    if (off < base_ || off + n > base_ + buf_.size()) {
      buf_.resize(std::min(std::max(n, kWalkChunk), end_ - off));
      Result<size_t> got =
          PreadFull(fd_, path_, buf_.data(), buf_.size(), off);
      if (!got.ok()) return got.status();
      buf_.resize(*got);
      base_ = off;
      if (*got < n) return static_cast<const char*>(nullptr);
    }
    return buf_.data() + (off - base_);
  }

 private:
  int fd_;
  const std::string& path_;
  size_t end_;
  size_t base_ = 0;
  std::string buf_;
};

// The one reader of the log format: a walk over the first `size` bytes
// of a shard file (stable: the checkpoint and Recover both hold
// checkpoint_mutex_). CRC- and order-checks every frame up to the first
// record above `cut`, decodes only the records in (replay_floor, cut]
// into `out`, and returns the frame of the first record above
// `trunc_floor` (<= cut), else the end of the well-framed region: the
// torn-tail boundary, 0 when the magic is missing. The checkpoint keeps
// its file from there; Recover passes no cut and no truncation floor.
Result<size_t> WalkShardFile(int fd, const std::string& path, size_t size,
                             uint64_t replay_floor, uint64_t cut,
                             uint64_t trunc_floor,
                             std::vector<RecoveredRecord>* out) {
  FileWindow file(fd, path, size);
  Result<const char*> magic = file.At(0, kMagicLen);
  if (!magic.ok()) return magic.status();
  if (*magic == nullptr || std::memcmp(*magic, kMagic, kMagicLen) != 0) {
    return size_t{0};
  }
  size_t pos = kMagicLen;
  size_t keep_from = 0;
  uint64_t prev_seq = 0;
  for (;;) {
    Result<const char*> hdr = file.At(pos, 8);
    if (!hdr.ok()) return hdr.status();
    if (*hdr == nullptr) break;
    const uint32_t claimed = DecodeU32(*hdr);
    if (claimed > kMaxRecordLen) break;
    Result<const char*> frame = file.At(pos, size_t{8} + claimed);
    if (!frame.ok()) return frame.status();
    if (*frame == nullptr) break;
    const uint32_t len = FrameLen(*frame, size_t{8} + claimed);
    if (len == 0) break;
    const uint64_t seq = DecodeU64(*frame + 8);
    if (seq <= prev_seq) break;  // file must be seq-ascending
    prev_seq = seq;
    if (keep_from == 0 && seq > trunc_floor) keep_from = pos;
    if (seq > cut) break;
    if (seq > replay_floor) {
      RecoveredRecord rec;
      rec.frame_start = pos;
      if (!DecodeRecord(*frame + 8, len, &rec)) break;
      out->push_back(std::move(rec));
    }
    pos += 8 + len;
  }
  return keep_from != 0 ? keep_from : pos;
}

// pread the whole of `fd` into `*data` (EINTR-safe; a file that shrinks
// under the read just yields the shorter image).
Status ReadWholeFile(int fd, const std::string& path, std::string* data) {
  const off_t fsize = ::lseek(fd, 0, SEEK_END);
  if (fsize < 0) return Errno("lseek", path);
  data->assign(static_cast<size_t>(fsize), '\0');
  Result<size_t> got = PreadFull(fd, path, data->data(), data->size(), 0);
  if (!got.ok()) return got.status();
  data->resize(*got);
  return Status::OK();
}

// fsync the directory containing `path` so a just-renamed entry is
// durable (no-op failure tolerance: some filesystems refuse dir fsync).
void SyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

const char* WalFsyncModeName(WalFsyncMode mode) {
  switch (mode) {
    case WalFsyncMode::kNone:
      return "none";
    case WalFsyncMode::kFdatasync:
      return "fdatasync";
    case WalFsyncMode::kFsync:
      return "fsync";
  }
  return "?";
}

WriteAheadLog::WriteAheadLog(const EngineOptions& options,
                             EngineStats* stats, MetricsRegistry* metrics)
    : options_(options), stats_(stats), metrics_(metrics) {
  const uint32_t nshards = std::max<uint32_t>(1, options_.wal_shards);
  if (options_.wal_dir.empty()) {
    open_status_ = Status::InvalidArgument("wal_dir is empty");
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.wal_dir, ec);
  if (ec) {
    open_status_ = Status::IoError("cannot create wal_dir " +
                                   options_.wal_dir + ": " + ec.message());
    return;
  }
  shards_.reserve(nshards);
  for (uint32_t i = 0; i < nshards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->path =
        options_.wal_dir + "/wal-" + std::to_string(i) + ".log";
    // O_APPEND: writes always land at EOF, including after recovery's
    // ftruncate moved it.
    sh->fd = ::open(sh->path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (sh->fd < 0) {
      open_status_ = Errno("open", sh->path);
      shards_.push_back(std::move(sh));
      break;
    }
    const off_t size = ::lseek(sh->fd, 0, SEEK_END);
    if (size == 0) {
      if (::write(sh->fd, kMagic, kMagicLen) !=
          static_cast<ssize_t>(kMagicLen)) {
        open_status_ = Errno("write magic", sh->path);
      }
    }
    shards_.push_back(std::move(sh));
  }
}

WriteAheadLog::~WriteAheadLog() {
  FlushAll();
  for (auto& sh : shards_) {
    if (sh->fd >= 0) ::close(sh->fd);
  }
}

Status WriteAheadLog::OpenStatus() const { return open_status_; }

Result<WalTicket> WriteAheadLog::AppendImage(
    uint64_t shard_hint, const std::vector<WalWrite>& writes,
    bool release_follows) {
  thread_local std::string body;
  body.clear();
  AppendU32(&body, static_cast<uint32_t>(writes.size()));
  for (const WalWrite& w : writes) {
    AppendU32(&body, static_cast<uint32_t>(w.key.size()));
    body.append(w.key);
    body.push_back(w.value.has_value() ? '\1' : '\0');
    if (w.value.has_value()) {
      AppendU64(&body, static_cast<uint64_t>(*w.value));
    }
  }
  return AppendRecord(shard_hint, body, release_follows);
}

Result<WalTicket> WriteAheadLog::AppendRecord(uint64_t shard_hint,
                                              const std::string& body,
                                              bool release_follows) {
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWalAppend));
  FailPoints::MaybeDelay(FailPoints::kWalAppend);
  if (!open_status_.ok()) return open_status_;
  // Recovery reads a longer frame as a torn tail and drops every record
  // above its seq gap, so refuse the image before it takes a seq.
  if (body.size() + 8 > kMaxRecordLen) {
    return Status::InvalidArgument(
        StrCat("commit image of ", body.size(),
               " bytes exceeds the log's record bound of ", kMaxRecordLen));
  }
  Shard& sh = *shards_[shard_hint % shards_.size()];
  WalTicket ticket;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.broken) return sh.broken_status;
    // An idle shard announces a lower bound for the seq it is about to
    // take BEFORE taking it, so no waiter above that seq can read the
    // shard as clear while this record is still being buffered (the
    // cross-shard cut argument in wal.h).
    const bool idle = sh.pending_floor.load(std::memory_order_relaxed) == 0;
    if (idle) {
      sh.pending_floor.store(next_seq_.load(std::memory_order_relaxed) + 1,
                             std::memory_order_seq_cst);
    }
    // Seq assigned under the shard mutex: the shard file stays
    // internally seq-ascending, so tail truncation removes a seq-suffix
    // of the shard, never a hole.
    const uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_seq_cst) + 1;
    appended_.store(true, std::memory_order_relaxed);
    const size_t before = sh.buffer.size();
    AppendU32(&sh.buffer, static_cast<uint32_t>(body.size() + 8));
    // CRC covers seq || body; seq is framed inside the payload.
    thread_local std::string payload;
    payload.clear();
    AppendU64(&payload, seq);
    payload.append(body);
    AppendU32(&sh.buffer, WalCrc32(payload.data(), payload.size()));
    sh.buffer.append(payload);
    sh.buffered_seq = seq;
    if (sh.buffer_min_seq == 0) sh.buffer_min_seq = seq;
    if (idle) sh.pending_floor.store(seq, std::memory_order_release);
    if (release_follows) sh.unreleased.push_back(seq);
    ticket.shard = static_cast<uint32_t>(shard_hint % shards_.size());
    ticket.seq = seq;
    const uint64_t added = sh.buffer.size() - before;
    bytes_since_checkpoint_.fetch_add(added, std::memory_order_relaxed);
    if (stats_ != nullptr) {
      stats_->Add(kStatWalAppends);
      stats_->Add(kStatWalBytes, added);
    }
  }
  return ticket;
}

void WriteAheadLog::NoteCommitReleased(const WalTicket& ticket) {
  if (ticket.seq == 0) return;
  // Un-pin the record from the checkpoint truncation floor: its effects
  // are installed now, so a fuzzy checkpoint scan no longer needs the
  // log copy to repair a missed install.
  Shard& sh = *shards_[ticket.shard % shards_.size()];
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it =
      std::find(sh.unreleased.begin(), sh.unreleased.end(), ticket.seq);
  if (it != sh.unreleased.end()) {
    *it = sh.unreleased.back();
    sh.unreleased.pop_back();
  }
}

Status WriteAheadLog::WriteAndSync(Shard& sh, const std::string& group) {
  // Any forced failure at the flush site surfaces as IoError: unlike the
  // append site (where a Deadlock/TimedOut pre-install is a fine abort
  // reason), a flush failure breaks the shard, and a broken shard must
  // read as an IO condition, not a retryable scheduling artifact.
  const Status fp = FailPoints::MaybeFail(FailPoints::kWalFsync);
  if (!fp.ok()) {
    return fp.IsIoError()
               ? fp
               : Status::IoError("failpoint-injected flush failure");
  }
  // The injected delay models a slow device, so it counts as flush
  // latency (and feeds the EWMA the waiters spin or park by).
  const uint64_t start_ns = MonotonicNowNs();
  FailPoints::MaybeDelay(FailPoints::kWalFsync);
  size_t limit = group.size();
  bool torn = false;
  if (FailPoints::MaybeShortWrite(FailPoints::kWalFsync)) {
    // Model a crash mid-flush: write roughly half the group (often
    // mid-record), then act dead. The shard goes sticky-broken in
    // FlushLocked, so nothing is ever appended after the tear — just
    // like a real process death.
    limit = group.size() / 2;
    torn = true;
  }
  size_t off = 0;
  while (off < limit) {
    const size_t n = std::min(kWriteChunk, limit - off);
    const ssize_t w = ::write(sh.fd, group.data() + off, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("write", sh.path);
    }
    off += static_cast<size_t>(w);
  }
  if (torn) {
    return Status::IoError("failpoint-injected short write (torn tail)");
  }
  switch (options_.wal_fsync_mode) {
    case WalFsyncMode::kNone:
      break;
    case WalFsyncMode::kFdatasync:
      if (::fdatasync(sh.fd) != 0) return Errno("fdatasync", sh.path);
      if (stats_ != nullptr) stats_->Add(kStatWalFsyncs);
      break;
    case WalFsyncMode::kFsync:
      if (::fsync(sh.fd) != 0) return Errno("fsync", sh.path);
      if (stats_ != nullptr) stats_->Add(kStatWalFsyncs);
      break;
  }
  const uint64_t elapsed = MonotonicNowNs() - start_ns;
  if (metrics_ != nullptr) metrics_->Record(kHistWalFsyncNs, elapsed);
  // EWMA (alpha = 1/8) of flush latency, feeding the waiters'
  // spin-or-park choice. Racy read-modify-write across concurrent
  // leaders is fine: the estimate is advisory.
  const uint64_t cur = fsync_ewma_ns_.load(std::memory_order_relaxed);
  fsync_ewma_ns_.store(cur == 0 ? elapsed : cur - cur / 8 + elapsed / 8,
                       std::memory_order_relaxed);
  if (stats_ != nullptr) stats_->Add(kStatGroupCommitBatches);
  return Status::OK();
}

bool WriteAheadLog::FlushFitsSpin(uint64_t spin_ns) const {
  return fsync_ewma_ns_.load(std::memory_order_relaxed) <= spin_ns;
}

void WriteAheadLog::BreakLocked(Shard& sh, uint64_t lost_floor,
                                Status why) {
  sh.broken = true;
  sh.broken_status = std::move(why);
  // Never cleared: waiters at or above the floor keep failing the
  // one-load check and reach the locked path, which reports the loss.
  sh.pending_floor.store(lost_floor != 0 ? lost_floor : 1,
                         std::memory_order_release);
}

Status WriteAheadLog::FlushLocked(Shard& sh,
                                  std::unique_lock<std::mutex>& lk) {
  std::string group;
  group.swap(sh.buffer);
  const uint64_t hi = sh.buffered_seq;
  const uint64_t lo = sh.buffer_min_seq;
  sh.buffer_min_seq = 0;
  if (group.empty()) {
    sh.flushed_seq.store(
        std::max(sh.flushed_seq.load(std::memory_order_relaxed), hi),
        std::memory_order_release);
    return Status::OK();
  }
  // pending_floor stays `lo`, the group's floor, while it is in flight.
  lk.unlock();
  const Status s = WriteAndSync(sh, group);
  lk.lock();
  if (s.ok()) {
    sh.flushed_seq.store(
        std::max(sh.flushed_seq.load(std::memory_order_relaxed), hi),
        std::memory_order_release);
    // Only what was buffered behind the group is pending now.
    sh.pending_floor.store(sh.buffer_min_seq, std::memory_order_release);
    // Automatic-checkpoint kick, from the flush leader as the bytes
    // odometer crosses the threshold. The trigger only nudges the
    // engine's background checkpoint thread — never blocks — and
    // checkpoint_running_ keeps a slow checkpoint from being re-kicked
    // by every flush behind it.
    if (options_.wal_checkpoint_every_bytes > 0 && checkpoint_trigger_ &&
        !checkpoint_running_.load(std::memory_order_relaxed) &&
        bytes_since_checkpoint_.load(std::memory_order_relaxed) >=
            options_.wal_checkpoint_every_bytes) {
      checkpoint_trigger_();
    }
  } else {
    // Everything in the failed group — and anything buffered behind it
    // while the IO ran — is lost; `lo` is the smallest such seq. No
    // commit at or above it can ever be acknowledged durable again.
    BreakLocked(sh, lo, s);
  }
  return s;
}

Status WriteAheadLog::LeadFlushLocked(Shard& sh,
                                      std::unique_lock<std::mutex>& lk) {
  sh.flushing.store(true, std::memory_order_relaxed);
  const Status s = FlushLocked(sh, lk);
  sh.flushing.store(false, std::memory_order_release);
  sh.cv.notify_all();
  return s;
}

Status WriteAheadLog::EnsureShardDurableThrough(Shard& sh,
                                                uint64_t bound) {
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    // Lowest seq not yet durable here; on a broken shard, its lost
    // floor (1 when the loss bound is unknown).
    const uint64_t floor = sh.pending_floor.load(std::memory_order_relaxed);
    if (floor == 0 || floor > bound) return Status::OK();
    if (sh.broken) {
      // Records <= bound sit at/above the lost floor: gone forever, so
      // the cut is unreachable. An unknown floor poisons every ack
      // rather than let one leak through.
      return Status::DurabilityLost(sh.broken_status.message());
    }
    if (sh.flushing.load(std::memory_order_relaxed)) {
      sh.cv.wait(lk);
      continue;
    }
    // No leader on this shard and it holds records below our cut: flush
    // it ourselves — everything we need is already buffered (seq
    // assignment is atomic with buffering, and any append after ours
    // gets a larger seq). A failure parks in shard state; loop re-checks.
    LeadFlushLocked(sh, lk);
  }
}

Status WriteAheadLog::WaitDurable(const WalTicket& ticket) {
  if (ticket.seq == 0) return Status::OK();
  Shard& own = *shards_[ticket.shard % shards_.size()];
  if (own.flushed_seq.load(std::memory_order_acquire) < ticket.seq) {
    std::unique_lock<std::mutex> lk(own.mu);
    uint64_t ride_deadline = 0;  // set when the ride's spin starts
    for (;;) {
      if (own.flushed_seq.load(std::memory_order_relaxed) >= ticket.seq) {
        break;
      }
      if (own.broken) {
        // Our record is in the lost set (it would have flushed first
        // otherwise, per-shard seqs being ascending):
        // installed but never durable — the caller must not retry.
        return Status::DurabilityLost(own.broken_status.message());
      }
      if (own.flushing.load(std::memory_order_relaxed)) {
        // A leader is already cutting a group; ride or retry after it.
        // Its write() is usually shorter than a cv round trip, so spin
        // on the atomic mirror first, parking once the spin runs out.
        if (ride_deadline == 0 && FlushFitsSpin(kRideSpinNs)) {
          ride_deadline = MonotonicNowNs() + kRideSpinNs;
        }
        if (ride_deadline != 0 && MonotonicNowNs() < ride_deadline) {
          lk.unlock();
          SpinUntil(ride_deadline, [&] {
            return own.flushed_seq.load(std::memory_order_acquire) >=
                       ticket.seq ||
                   !own.flushing.load(std::memory_order_acquire);
          });
          lk.lock();
          continue;
        }
        if (stats_ != nullptr) stats_->Add(kStatWalRiderParks);
        own.cv.wait(lk);
        continue;
      }
      // Become the flush leader and write at once: the group is
      // everything buffered so far, and whatever is appended while the
      // write is in flight forms the next one. A failure parks in shard
      // state; the loop re-checks.
      LeadFlushLocked(own, lk);
    }
  }
  // Own shard durable through our seq; now close the cross-shard cut:
  // no record below us may still be pending anywhere, or a crash now
  // would replay this commit without a dependency it may have read. One
  // seq_cst load of a shard's pending floor settles it when nothing <=
  // our seq is pending there (the argument is in wal.h); otherwise spin
  // briefly, since that shard's own committer is usually mid-flush, and
  // only then take its mutex to ride or run its flush.
  Status s;
  uint64_t load_clears = 0;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    if (&sh == &own) continue;
    const auto clear = [&] {
      const uint64_t floor =
          sh.pending_floor.load(std::memory_order_seq_cst);
      return floor == 0 || floor > ticket.seq;
    };
    if (clear()) {
      ++load_clears;
      continue;
    }
    if (FlushFitsSpin(kCutSpinNs) &&
        SpinUntil(MonotonicNowNs() + kCutSpinNs, clear)) {
      if (stats_ != nullptr) stats_->Add(kStatWalCutSpinClears);
      continue;
    }
    if (stats_ != nullptr) stats_->Add(kStatWalCutLockedChecks);
    s = EnsureShardDurableThrough(sh, ticket.seq);
    if (!s.ok()) break;
  }
  if (stats_ != nullptr && load_clears != 0) {
    stats_->Add(kStatWalCutLoadClears, load_clears);
  }
  return s;
}

Status WriteAheadLog::FlushAll() {
  if (!open_status_.ok()) return open_status_;
  Status first;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::unique_lock<std::mutex> lk(sh.mu);
    while (sh.flushing.load(std::memory_order_relaxed)) sh.cv.wait(lk);
    if (sh.broken) {
      if (first.ok()) first = sh.broken_status;
      continue;
    }
    const Status s = LeadFlushLocked(sh, lk);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

void WriteAheadLog::SetCheckpointTrigger(std::function<void()> trigger) {
  checkpoint_trigger_ = std::move(trigger);
}

void WriteAheadLog::BreakShardForTest(uint32_t shard, uint64_t lost_floor,
                                      Status why) {
  Shard& sh = *shards_[shard % shards_.size()];
  std::lock_guard<std::mutex> lock(sh.mu);
  BreakLocked(sh, lost_floor, std::move(why));
}

Status WriteAheadLog::WriteFileAtomic(const std::string& path,
                                      const std::string& data,
                                      bool inject_short_write) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t limit = data.size();
  bool torn = false;
  if (inject_short_write &&
      FailPoints::MaybeShortWrite(FailPoints::kWalCheckpoint)) {
    // Model a crash mid-snapshot: half the bytes land, the rename never
    // happens. The torn file stays at the tmp name, unreferenced by any
    // manifest — exactly what a real crash leaves behind.
    limit = data.size() / 2;
    torn = true;
  }
  const Status ws = WriteAll(fd, tmp, data.data(), limit);
  if (!ws.ok()) {
    ::close(fd);
    return ws;
  }
  if (torn) {
    ::close(fd);
    return Status::IoError(
        "failpoint-injected short write (torn snapshot)");
  }
  if (options_.wal_fsync_mode != WalFsyncMode::kNone && ::fsync(fd) != 0) {
    const Status s = Errno("fsync", tmp);
    ::close(fd);
    return s;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  if (options_.wal_fsync_mode != WalFsyncMode::kNone) SyncDirOf(path);
  return Status::OK();
}

Status WriteAheadLog::LoadManifestLocked() {
  if (manifest_loaded_) return Status::OK();
  manifest_.clear();
  manifest_corrupt_ = false;
  const std::string path = options_.wal_dir + "/" + kManifestName;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      manifest_loaded_ = true;  // no checkpoint yet: empty manifest
      return Status::OK();
    }
    return Errno("open", path);
  }
  std::string data;
  const Status rs = ReadWholeFile(fd, path, &data);
  ::close(fd);
  RETURN_IF_ERROR(rs);
  // Any validation failure marks the manifest corrupt rather than
  // erroring here: Checkpoint can rebuild it (its snapshot is
  // self-contained), only Recover must refuse (see wal.h).
  const auto corrupt = [this] {
    manifest_.clear();
    manifest_corrupt_ = true;
    manifest_loaded_ = true;
    return Status::OK();
  };
  if (data.size() < kMagicLen + 8 ||
      std::memcmp(data.data(), kManifestMagic, kMagicLen) != 0) {
    return corrupt();
  }
  const uint32_t len = DecodeU32(data.data() + kMagicLen);
  const uint32_t crc = DecodeU32(data.data() + kMagicLen + 4);
  if (len < 4 || kMagicLen + 8 + len != data.size()) return corrupt();
  const char* payload = data.data() + kMagicLen + 8;
  if (WalCrc32(payload, len) != crc) return corrupt();
  const uint32_t ngen = DecodeU32(payload);
  if (ngen > 8) return corrupt();
  size_t p = 4;
  for (uint32_t i = 0; i < ngen; ++i) {
    if (p + 12 > len) return corrupt();
    ManifestEntry e;
    e.cut = DecodeU64(payload + p);
    p += 8;
    const uint32_t nl = DecodeU32(payload + p);
    p += 4;
    if (nl > len || p + nl > len) return corrupt();
    e.file.assign(payload + p, nl);
    p += nl;
    manifest_.push_back(std::move(e));
  }
  if (p != len) return corrupt();
  manifest_loaded_ = true;
  return Status::OK();
}

Status WriteAheadLog::StoreManifestLocked() {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(manifest_.size()));
  for (const ManifestEntry& e : manifest_) {
    AppendU64(&payload, e.cut);
    AppendU32(&payload, static_cast<uint32_t>(e.file.size()));
    payload.append(e.file);
  }
  std::string data(kManifestMagic, kMagicLen);
  AppendU32(&data, static_cast<uint32_t>(payload.size()));
  AppendU32(&data, WalCrc32(payload.data(), payload.size()));
  data.append(payload);
  return WriteFileAtomic(options_.wal_dir + "/" + kManifestName, data,
                         /*inject_short_write=*/false);
}

Status WriteAheadLog::LoadSnapshot(
    const ManifestEntry& entry,
    const std::function<void(const std::string&, std::optional<int64_t>)>&
        apply,
    uint64_t* keys_loaded) {
  *keys_loaded = 0;
  const std::string path = options_.wal_dir + "/" + entry.file;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  std::string data;
  const Status rs = ReadWholeFile(fd, path, &data);
  ::close(fd);
  RETURN_IF_ERROR(rs);
  const Status bad = Status::IoError("snapshot " + path +
                                     " is torn or corrupt");
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kSnapMagic, kMagicLen) != 0) {
    return bad;
  }
  // Validate completely before applying anything: a snapshot that fails
  // halfway must leave the store untouched so recovery can fall back to
  // the previous generation cleanly.
  std::vector<std::pair<std::string, int64_t>> entries;
  size_t pos = kMagicLen;
  uint64_t declared_keys = 0;
  bool saw_header = false;
  bool saw_footer = false;
  while (pos + 8 <= data.size()) {
    const uint32_t len = DecodeU32(data.data() + pos);
    const uint32_t crc = DecodeU32(data.data() + pos + 4);
    if (len == 0 || len > kMaxRecordLen || pos + 8 + len > data.size()) {
      return bad;
    }
    const char* payload = data.data() + pos + 8;
    if (WalCrc32(payload, len) != crc) return bad;
    pos += 8 + len;
    if (!saw_header) {
      if (len != 16) return bad;
      if (DecodeU64(payload) != entry.cut) return bad;
      declared_keys = DecodeU64(payload + 8);
      saw_header = true;
      continue;
    }
    if (len == 8 && DecodeU64(payload) == kSnapFooterMagic) {
      saw_footer = true;
      break;
    }
    if (len < 4) return bad;
    const uint32_t count = DecodeU32(payload);
    size_t p = 4;
    for (uint32_t i = 0; i < count; ++i) {
      if (p + 4 > len) return bad;
      const uint32_t klen = DecodeU32(payload + p);
      p += 4;
      if (p + klen + 8 > len) return bad;
      std::string key(payload + p, klen);
      p += klen;
      const int64_t value = static_cast<int64_t>(DecodeU64(payload + p));
      p += 8;
      entries.emplace_back(std::move(key), value);
    }
    if (p != len) return bad;
  }
  if (!saw_header || !saw_footer || pos != data.size() ||
      entries.size() != declared_keys) {
    return bad;
  }
  for (const auto& [key, value] : entries) apply(key, value);
  *keys_loaded = entries.size();
  return Status::OK();
}

Status WriteAheadLog::RotateShard(Shard& sh, size_t keep_from, size_t size,
                                  uint64_t* dropped_bytes) {
  if (keep_from <= kMagicLen) return Status::OK();  // nothing to drop
  const std::string tmp = sh.path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  bool renamed = false;
  auto cleanup = MakeCleanup([&] {
    if (fd >= 0) ::close(fd);
    if (!renamed) ::unlink(tmp.c_str());
  });
  const bool sync = options_.wal_fsync_mode != WalFsyncMode::kNone;
  // The bulk, with sh.mu dropped: below `size` the file is append-only
  // and checkpoint_mutex_ keeps any other rotation or truncation out.
  RETURN_IF_ERROR(WriteAll(fd, tmp, kMagic, kMagicLen));
  RETURN_IF_ERROR(CopyRange(sh.fd, sh.path, keep_from, size, fd, tmp));
  if (sync && ::fsync(fd) != 0) return Errno("fsync", tmp);
  std::unique_lock<std::mutex> lk(sh.mu);
  while (sh.flushing.load(std::memory_order_relaxed)) sh.cv.wait(lk);
  // A broken shard's file may end in a torn group; leave it whole for
  // recovery to judge (it poisons acks anyway).
  if (sh.broken) return Status::OK();
  // Only the bytes appended since the fix-up walk are copied here.
  const off_t end = ::lseek(sh.fd, 0, SEEK_END);
  if (end < 0) return Errno("lseek", sh.path);
  RETURN_IF_ERROR(CopyRange(sh.fd, sh.path, size, static_cast<size_t>(end),
                            fd, tmp));
  if (sync && ::fsync(fd) != 0) return Errno("fsync", tmp);
  ::close(fd);
  fd = -1;
  if (::rename(tmp.c_str(), sh.path.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  renamed = true;
  if (sync) SyncDirOf(sh.path);
  // The old O_APPEND fd now points at the unlinked inode; reopen on the
  // rotated file before releasing the shard (no append can interleave:
  // we hold sh.mu throughout).
  const int nfd = ::open(sh.path.c_str(), O_RDWR | O_APPEND, 0644);
  if (nfd < 0) {
    // Appends would silently land on the dead inode — break the shard
    // (floor unknown: nothing provably durable from here on).
    BreakLocked(sh, 0, Errno("reopen after rotate", sh.path));
    return sh.broken_status;
  }
  ::close(sh.fd);
  sh.fd = nfd;
  *dropped_bytes += keep_from - kMagicLen;
  return Status::OK();
}

Status WriteAheadLog::Checkpoint(const BaseScan& scan,
                                 CheckpointInfo* info) {
  if (info != nullptr) *info = CheckpointInfo{};
  if (!open_status_.ok()) return open_status_;
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWalCheckpoint));
  FailPoints::MaybeDelay(FailPoints::kWalCheckpoint);
  std::lock_guard<std::mutex> serialize(checkpoint_mutex_);
  checkpoint_running_.store(true, std::memory_order_relaxed);
  auto running = MakeCleanup([this] {
    checkpoint_running_.store(false, std::memory_order_relaxed);
  });
  RETURN_IF_ERROR(LoadManifestLocked());

  // 1. Replay floor F0, then the fuzzy scan of the base store. Every
  // record <= F0 was assigned before this read and is not unreleased,
  // so it finished installing before the scan starts (Preload installs
  // before it appends); the fix-up below never needs it.
  uint64_t replay_floor = next_seq_.load(std::memory_order_seq_cst);
  for (auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mu);
    for (const uint64_t s : shp->unreleased) {
      replay_floor = std::min(replay_floor, s - 1);
    }
  }
  // Commits keep installing while the scan walks the key shards;
  // whatever it misses is repaired from the log in the fix-up below.
  std::unordered_map<std::string, int64_t> image;
  scan([&image](const std::string& key, int64_t value) {
    image.insert_or_assign(key, value);
  });

  // 2. The cut C: the highest seq assigned before the scan finished.
  // Installs happen strictly after seq assignment, so the scan cannot
  // contain the effect of any record with seq > C — the image is "at
  // most C", and the fix-up makes it "exactly C".
  const uint64_t cut = next_seq_.load(std::memory_order_acquire);
  const uint64_t prev_cut = manifest_.empty() ? 0 : manifest_.front().cut;
  if (cut == 0 || cut <= prev_cut) {
    if (info != nullptr) info->skipped = true;
    return Status::OK();
  }

  // 3. Nothing <= C may still be volatile when the snapshot claims to
  // cover it (a broken shard that lost part of the cut surfaces here).
  for (auto& shp : shards_) {
    RETURN_IF_ERROR(EnsureShardDurableThrough(*shp, cut));
  }

  // 4. Truncation floor F: a record whose commit has not finished its
  // release fan-out may be missing from this scan — and from the next
  // checkpoint's scan — so its log copy must survive for the fix-up.
  // F = min(C, lowest unreleased seq - 1); in quiescence F == C. Read
  // after C, so the next checkpoint's replay floor is >= F.
  uint64_t floor = cut;
  for (auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mu);
    for (const uint64_t s : shp->unreleased) {
      if (s <= floor) floor = s - 1;
    }
  }

  // 5. Fix-up: replay the log suffix (F0, C] onto the image in seq
  // order. For each key the scan holds the effect of its last record
  // <= F0 or of a later one <= C (per-key commit order is seq order), so
  // a key written in (F0, C] ends at its last write <= C and every other
  // key was already right. Every such record is on disk: step 3 flushed
  // it, and the previous checkpoint truncated only <= its F <= F0. Each
  // shard mutex is held only to wait out a flush and record the file
  // size; below that size the file is append-only (checkpoint_mutex_
  // excludes rotation), so the walk reads it unlocked, in bounded
  // windows, and also notes where rotation will keep from.
  const size_t nshards = shards_.size();
  std::vector<size_t> walked(nshards, 0);
  std::vector<size_t> keep_from(nshards, 0);
  std::vector<RecoveredRecord> records;
  for (size_t si = 0; si < nshards; ++si) {
    Shard& sh = *shards_[si];
    {
      std::unique_lock<std::mutex> lk(sh.mu);
      while (sh.flushing.load(std::memory_order_relaxed)) sh.cv.wait(lk);
      const off_t end = ::lseek(sh.fd, 0, SEEK_END);
      if (end < 0) return Errno("lseek", sh.path);
      walked[si] = static_cast<size_t>(end);
    }
    Result<size_t> keep = WalkShardFile(sh.fd, sh.path, walked[si],
                                        replay_floor, cut, floor, &records);
    if (!keep.ok()) return keep.status();
    keep_from[si] = *keep;
  }
  std::sort(records.begin(), records.end(),
            [](const RecoveredRecord& a, const RecoveredRecord& b) {
              return a.seq < b.seq;
            });
  for (const RecoveredRecord& rec : records) {
    for (const WalWrite& w : rec.writes) {
      if (w.value.has_value()) {
        image.insert_or_assign(w.key, *w.value);
      } else {
        image.erase(w.key);
      }
    }
  }

  // 6. Snapshot to disk, CRC-framed, tmp + fsync + rename. A failure
  // here (including the injected torn write) aborts the checkpoint
  // with the log untouched — durability never regresses. An entry frame
  // holds up to kSnapBatch entries and is cut early rather than cross
  // the kMaxRecordLen that LoadSnapshot enforces; an entry no frame can
  // hold fails the checkpoint before anything is written.
  std::string snap(kSnapMagic, kMagicLen);
  const auto append_frame = [&snap](const std::string& payload) {
    AppendU32(&snap, static_cast<uint32_t>(payload.size()));
    AppendU32(&snap, WalCrc32(payload.data(), payload.size()));
    snap.append(payload);
  };
  {
    std::string header;
    AppendU64(&header, cut);
    AppendU64(&header, image.size());
    append_frame(header);
  }
  {
    std::string batch;
    uint32_t count = 0;
    std::string payload;
    const auto append_batch = [&] {
      payload.clear();
      AppendU32(&payload, count);
      payload.append(batch);
      append_frame(payload);
      batch.clear();
      count = 0;
    };
    for (const auto& [key, value] : image) {
      const size_t entry_len = 4 + key.size() + 8;
      if (4 + entry_len > kMaxRecordLen) {
        return Status::InvalidArgument(
            StrCat("a key of ", key.size(),
                   " bytes does not fit a snapshot frame"));
      }
      if (count != 0 && 4 + batch.size() + entry_len > kMaxRecordLen) {
        append_batch();
      }
      AppendU32(&batch, static_cast<uint32_t>(key.size()));
      batch.append(key);
      AppendU64(&batch, static_cast<uint64_t>(value));
      if (++count == kSnapBatch) append_batch();
    }
    if (count != 0) append_batch();
    std::string footer;
    AppendU64(&footer, kSnapFooterMagic);
    append_frame(footer);
  }
  const std::string snap_name = "ckpt-" + std::to_string(cut) + ".snap";
  RETURN_IF_ERROR(WriteFileAtomic(options_.wal_dir + "/" + snap_name,
                                  snap, /*inject_short_write=*/true));

  // 7. Install the manifest: new generation in front, keep two (the
  // previous snapshot stays on disk as the CRC-failure fallback). A
  // corrupt pre-existing manifest is simply rebuilt — the new snapshot
  // is self-contained.
  std::vector<std::string> unlink_files;
  manifest_.insert(manifest_.begin(), ManifestEntry{cut, snap_name});
  manifest_corrupt_ = false;
  while (manifest_.size() > 2) {
    unlink_files.push_back(manifest_.back().file);
    manifest_.pop_back();
  }
  const Status ms = StoreManifestLocked();
  if (!ms.ok()) {
    manifest_loaded_ = false;  // in-memory view unproven; reload later
    return ms;
  }

  // 8. Only now, with the snapshot durable AND installed, may the log
  // prefix <= F go. A crash at any earlier point left the old manifest
  // governing a whole log; a crash between rename and here just leaves
  // a longer log than necessary (recovery replays it idempotently).
  uint64_t dropped = 0;
  for (size_t si = 0; si < nshards; ++si) {
    RETURN_IF_ERROR(
        RotateShard(*shards_[si], keep_from[si], walked[si], &dropped));
  }
  for (const std::string& f : unlink_files) {
    ::unlink((options_.wal_dir + "/" + f).c_str());
  }
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  if (stats_ != nullptr) {
    stats_->Add(kStatWalCheckpoints);
    stats_->Add(kStatWalCheckpointKeys, image.size());
    if (dropped != 0) stats_->Add(kStatWalCheckpointTruncated, dropped);
    if (!records.empty()) {
      stats_->Add(kStatWalCheckpointFixupRecords, records.size());
    }
  }
  if (info != nullptr) {
    info->cut = cut;
    info->snapshot_keys = image.size();
    info->truncated_bytes = dropped;
    info->fixup_replayed = records.size();
  }
  return Status::OK();
}

Status WriteAheadLog::Recover(
    const std::function<void(const std::string& key,
                             std::optional<int64_t> value)>& apply,
    RecoveryInfo* info) {
  if (info != nullptr) *info = RecoveryInfo{};
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWalRecover));
  FailPoints::MaybeDelay(FailPoints::kWalRecover);
  if (!open_status_.ok()) return open_status_;
  if (appended_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Recover requires a fresh log (appends already issued — call "
        "Recover before any Preload or transaction)");
  }
  // Held throughout: a checkpoint reads shard files unlocked and must
  // not see them truncated under it.
  std::lock_guard<std::mutex> serialize(checkpoint_mutex_);
  // Snapshot first: newest manifest generation, falling back one
  // generation on a failed read. With no manifest the replay starts
  // from seq 1 (the pre-checkpoint behaviour).
  uint64_t snap_cut = 0;
  uint64_t snap_keys = 0;
  uint64_t newest_cut = 0;
  {
    RETURN_IF_ERROR(LoadManifestLocked());
    if (manifest_corrupt_) {
      return Status::IoError(
          "wal checkpoint manifest failed validation; the log prefix "
          "may already be truncated against its snapshots — refusing "
          "to recover silently");
    }
    newest_cut = manifest_.empty() ? 0 : manifest_.front().cut;
    Status last_snap_error;
    bool loaded = manifest_.empty();
    for (const ManifestEntry& gen : manifest_) {
      uint64_t keys = 0;
      const Status s = LoadSnapshot(gen, apply, &keys);
      if (s.ok()) {
        snap_cut = gen.cut;
        snap_keys = keys;
        loaded = true;
        break;
      }
      last_snap_error = s;  // try the previous generation
    }
    if (!loaded) {
      return Status::IoError(StrCat(
          "no checkpoint snapshot generation is readable (last error: ",
          last_snap_error.message(),
          ") and the log prefix is truncated against them — refusing "
          "to recover silently"));
    }
  }
  // Per-shard file walk (CRC + decode — the CPU-bound part), one scanner
  // thread per shard up to the hardware threads. Records the snapshot
  // covers are CRC- and order-checked but not decoded. Truncation is
  // deferred until the consistent cut is known, because records above
  // the cut must go too.
  const uint32_t nshards = static_cast<uint32_t>(shards_.size());
  std::vector<std::vector<RecoveredRecord>> shard_records(nshards);
  std::vector<size_t> shard_size(nshards, 0);
  std::vector<size_t> shard_valid(nshards, 0);
  std::vector<Status> shard_status(nshards, Status::OK());
  const auto scan_one = [&](uint32_t si) {
    Shard& sh = *shards_[si];
    std::lock_guard<std::mutex> lock(sh.mu);
    const off_t end = ::lseek(sh.fd, 0, SEEK_END);
    if (end < 0) {
      shard_status[si] = Errno("lseek", sh.path);
      return;
    }
    shard_size[si] = static_cast<size_t>(end);
    // Anything from the first framing violation on is the torn tail: a
    // crashed process tears only a suffix (records enter the buffer
    // whole and the buffer is written front to back).
    constexpr uint64_t kNoBound = std::numeric_limits<uint64_t>::max();
    Result<size_t> valid =
        WalkShardFile(sh.fd, sh.path, shard_size[si], snap_cut,
                      /*cut=*/kNoBound, /*trunc_floor=*/kNoBound,
                      &shard_records[si]);
    if (!valid.ok()) {
      shard_status[si] = valid.status();
      return;
    }
    shard_valid[si] = *valid;
  };
  const uint32_t nthreads = std::min(
      nshards, std::max(1u, std::thread::hardware_concurrency()));
  if (nthreads <= 1) {
    for (uint32_t si = 0; si < nshards; ++si) scan_one(si);
  } else {
    std::atomic<uint32_t> next_shard{0};
    std::vector<std::thread> scanners;
    scanners.reserve(nthreads);
    for (uint32_t t = 0; t < nthreads; ++t) {
      scanners.emplace_back([&] {
        for (;;) {
          const uint32_t si =
              next_shard.fetch_add(1, std::memory_order_relaxed);
          if (si >= nshards) return;
          scan_one(si);
        }
      });
    }
    for (std::thread& t : scanners) t.join();
  }
  for (const Status& s : shard_status) RETURN_IF_ERROR(s);
  // The consistent cut: seqs are assigned contiguously and each is
  // buffered atomically with its assignment, so a gap in the merged
  // sequence is a group that crashed before flushing. Everything above
  // the first gap — on any shard — may depend on the lost commit and
  // is dropped (WaitDurable never acked it: an ack at seq S waits for
  // every shard through S). Replay is a k-way merge of the per-shard
  // runs (each seq-ascending, holding only records above the snapshot
  // cut), applied in global seq order (last-writer-wins reconstructs
  // every committed value).
  std::vector<size_t> idx(nshards, 0);
  uint64_t cut = snap_cut;
  uint64_t replayed = 0;
  const bool recover_armed = FailPoints::Armed(FailPoints::kWalRecover);
  for (;;) {
    uint32_t best = nshards;
    for (uint32_t si = 0; si < nshards; ++si) {
      if (idx[si] >= shard_records[si].size()) continue;
      if (best == nshards || shard_records[si][idx[si]].seq <
                                 shard_records[best][idx[best]].seq) {
        best = si;
      }
    }
    if (best == nshards) break;
    const RecoveredRecord& rec = shard_records[best][idx[best]];
    if (rec.seq != cut + 1) break;  // gap: the rest was never acked
    if (recover_armed) {
      // Per-record injection surface: lets tests fail a recovery
      // mid-replay and assert the engine refuses to serve afterwards.
      RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWalRecover));
    }
    for (const WalWrite& w : rec.writes) apply(w.key, w.value);
    cut = rec.seq;
    ++replayed;
    ++idx[best];
  }
  if (cut < newest_cut) {
    // We fell back past a generation whose cut the log can no longer
    // reach: commits in (cut, newest_cut] were durably acknowledged
    // (the manifest attests it) but their records were truncated
    // against the unreadable snapshot. Silent loss is worse than a
    // loud failure.
    return Status::IoError(StrCat(
        "newest checkpoint snapshot is unreadable and the log cannot "
        "reach its cut ", newest_cut, " (got ", cut,
        ") — acknowledged commits would be lost; refusing to recover"));
  }
  // Physical truncation: each shard drops its torn tail AND any intact
  // record above the cut (per-shard files are seq-ascending, so both
  // are one suffix). Records below the snapshot cut stay — harmless,
  // the next replay skips them again and the next checkpoint rotates
  // them out.
  uint64_t truncated_bytes = 0;
  for (uint32_t si = 0; si < nshards; ++si) {
    Shard& sh = *shards_[si];
    std::lock_guard<std::mutex> lock(sh.mu);
    size_t keep = shard_valid[si];
    if (idx[si] < shard_records[si].size()) {
      keep = std::min(keep, shard_records[si][idx[si]].frame_start);
    }
    if (keep < shard_size[si]) {
      truncated_bytes += shard_size[si] - keep;
      if (::ftruncate(sh.fd, static_cast<off_t>(keep)) != 0) {
        return Errno("ftruncate", sh.path);
      }
      if (keep == 0 &&
          ::write(sh.fd, kMagic, kMagicLen) !=
              static_cast<ssize_t>(kMagicLen)) {
        return Errno("write magic", sh.path);
      }
    }
  }
  if (stats_ != nullptr) {
    if (replayed != 0) stats_->Add(kStatWalRecoveryReplayed, replayed);
    if (truncated_bytes != 0) {
      stats_->Add(kStatWalRecoveryTruncated, truncated_bytes);
    }
    if (snap_keys != 0) {
      stats_->Add(kStatWalSnapshotKeysLoaded, snap_keys);
    }
  }
  // Appends after recovery continue above the cut.
  uint64_t expected = 0;
  next_seq_.compare_exchange_strong(expected, cut,
                                    std::memory_order_relaxed);
  for (auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mu);
    shp->flushed_seq.store(cut, std::memory_order_release);
    shp->buffered_seq = cut;
  }
  if (info != nullptr) {
    info->snapshot_cut = snap_cut;
    info->snapshot_keys = snap_keys;
    info->replayed = replayed;
    info->cut = cut;
  }
  return Status::OK();
}

}  // namespace nestedtx
