#include "core/database.h"

#include <chrono>
#include <thread>

#include "util/cleanup.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {

namespace {

// Exponential backoff with jitter between retry attempts: under a
// persistent collision (two transactions that keep choosing each other as
// deadlock victims), desynchronizing the retries is what actually breaks
// the livelock.
void BackoffBeforeRetry(int attempt) {
  static thread_local Rng rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const int shift = attempt < 8 ? attempt : 8;
  const uint64_t ceiling_us = 50ull << shift;  // 50us .. ~12.8ms
  std::this_thread::sleep_for(
      std::chrono::microseconds(rng.Uniform(ceiling_us) + 1));
}

}  // namespace

Database::Database(EngineOptions options) : manager_(options) {
  WriteAheadLog* wal = manager_.wal();
  if (wal != nullptr && manager_.options().wal_checkpoint_every_bytes > 0) {
    wal->SetCheckpointTrigger([this] {
      {
        std::lock_guard<std::mutex> lk(ckpt_mutex_);
        ckpt_requested_ = true;
      }
      ckpt_cv_.notify_one();
    });
    checkpoint_thread_ = std::thread([this] { CheckpointThreadMain(); });
  }
}

Database::~Database() {
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ckpt_mutex_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_all();
    checkpoint_thread_.join();
  }
}

void Database::CheckpointThreadMain() {
  std::unique_lock<std::mutex> lk(ckpt_mutex_);
  for (;;) {
    ckpt_cv_.wait(lk, [&] { return ckpt_requested_ || ckpt_stop_; });
    if (ckpt_stop_) return;
    ckpt_requested_ = false;
    lk.unlock();
    // Best-effort: a failed checkpoint leaves the log whole (durability
    // never regresses) and the odometer keeps counting, so the next
    // flush re-triggers.
    (void)Checkpoint();
    lk.lock();
  }
}

Status Database::Checkpoint() {
  WriteAheadLog* wal = manager_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint requires wal_enabled and a wal_dir");
  }
  return wal->Checkpoint(
      [this](const std::function<void(const std::string&, int64_t)>& emit) {
        manager_.locks().SnapshotBase(emit);
      });
}

Status Database::EnableTracing() {
  if (manager_.options().cc_mode == CcMode::kFlat2PL) {
    return Status::InvalidArgument(
        "tracing is not supported under flat 2PL (its locking does not "
        "correspond to a R/W Locking system)");
  }
  if (manager_.stats().Snapshot().txns_begun != 0) {
    return Status::FailedPrecondition(
        "EnableTracing must be called before the first transaction");
  }
  if (trace_ == nullptr) {
    trace_ = std::make_unique<EngineTraceRecorder>();
    manager_.locks().SetTraceRecorder(trace_.get());
  }
  return Status::OK();
}

void Database::Preload(const std::string& key, int64_t value) {
  manager_.locks().SetBase(key, value);
  if (trace_ != nullptr) trace_->RecordPreload(key, value);
  WriteAheadLog* wal = manager_.wal();
  if (wal != nullptr) {
    // Best-effort: a preload is setup, not a transaction. It installs
    // before it appends, so no release follows for the checkpoint to
    // wait on, and a failed or refused append only means recovery
    // restarts from a re-run of setup. The immediate flush makes the
    // preload durable now — nothing else would flush it until the first
    // durable commit.
    std::vector<WalWrite> image;
    image.push_back(WalWrite{key, value});
    (void)wal->AppendImage(/*shard_hint=*/0, image, /*release_follows=*/false);
    (void)wal->FlushAll();
  }
}

Status Database::Recover() {
  WriteAheadLog* wal = manager_.wal();
  if (wal == nullptr) {
    return Status::FailedPrecondition(
        "Recover requires wal_enabled and a wal_dir");
  }
  if (manager_.stats().Snapshot().txns_begun != 0) {
    return Status::FailedPrecondition(
        "Recover must be called before the first transaction");
  }
  const Status s = wal->Recover(
      [this](const std::string& key, std::optional<int64_t> value) {
        manager_.locks().SetBase(key, value);
      });
  if (!s.ok() && !s.IsFailedPrecondition()) {
    // A failed replay may have installed a half-applied prefix into the
    // base store. Serving transactions over it would silently expose an
    // inconsistent state, so the engine is poisoned: every Begin()
    // returns nullptr (with this status behind manager().failure())
    // until the process restarts and recovery succeeds.
    manager_.MarkFailed(s);
  }
  return s;
}

std::optional<int64_t> Database::ReadCommitted(const std::string& key) {
  return manager_.locks().ReadBase(key);
}

std::string Database::ExportMetricsText() {
  MetricsRegistry& metrics = manager_.metrics();
  return metrics.ExportText(
      manager_.stats().Snapshot(),
      manager_.locks().CollectHotKeys(MetricsRegistry::kHotKeyTopK));
}

std::string Database::ExportMetricsJson() {
  MetricsRegistry& metrics = manager_.metrics();
  return metrics.ExportJson(
      manager_.stats().Snapshot(),
      manager_.locks().CollectHotKeys(MetricsRegistry::kHotKeyTopK));
}

Status Database::RunTransaction(int max_attempts, const TxnBody& body) {
  // Managed top-level execution passes the admission gate (no-op unless
  // configured); the slot spans all attempts so a retried transaction
  // never re-queues behind fresh arrivals.
  RETURN_IF_ERROR(manager_.AdmitTopLevel());
  auto release = MakeCleanup([this] { manager_.ReleaseTopLevel(); });
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::unique_ptr<Transaction> txn = Begin();
    if (txn == nullptr) return manager_.failure();  // engine poisoned
    Status s = body(*txn);
    if (s.ok()) {
      s = txn->Commit();
      if (s.ok()) return Status::OK();
    }
    if (!txn->returned()) txn->Abort();
    if (!Retryable(s)) return s;
    last = s;
    BackoffBeforeRetry(attempt);
  }
  return Status::Aborted(
      StrCat("transaction gave up after ", max_attempts,
             " attempts; last: ", last.ToString()));
}

Status Database::RunNested(Transaction& parent, int max_attempts,
                           const TxnBody& body) {
  Status last = Status::Internal("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Result<std::unique_ptr<Transaction>> child = parent.BeginChild();
    if (!child.ok()) return child.status();
    Status s = body(**child);
    if (s.ok()) {
      s = (*child)->Commit();
      if (s.ok()) return Status::OK();
    }
    if (!(*child)->returned()) (*child)->Abort();
    if (!Retryable(s)) return s;
    last = s;
    BackoffBeforeRetry(attempt);
  }
  return Status::Aborted(
      StrCat("subtransaction gave up after ", max_attempts,
             " attempts; last: ", last.ToString()));
}

}  // namespace nestedtx
