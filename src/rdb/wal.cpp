#include "rdb/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/trace_context.h"

namespace rdb {
namespace {

using rlscommon::Status;

constexpr uint32_t kSidecarMagic = 0x504B4352u;  // "RCKP" little-endian

void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const char* p) { uint32_t v; std::memcpy(&v, p, 4); return v; }
uint64_t GetU64(const char* p) { uint64_t v; std::memcpy(&v, p, 8); return v; }

/// Appends one frame to `out`: crc | lsn | type | len | payload. The CRC
/// covers everything after the CRC field; it stays 0 unless `checksum`
/// (a log that is never replayed has no reader to check it).
void AppendFrame(uint8_t type, uint64_t lsn, std::string_view payload, bool checksum,
                 std::string* out) {
  const std::size_t at = out->size();
  out->resize(at + kWalFrameHeaderBytes);
  char* header = out->data() + at;
  PutU32(header, 0);
  PutU64(header + 4, lsn);
  header[12] = static_cast<char>(type);
  PutU32(header + 13, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  if (checksum) {
    PutU32(out->data() + at,
           rlscommon::Crc32c(out->data() + at + 4, out->size() - at - 4));
  }
}

/// Full positional write with EINTR/partial-write handling. Returns 0 on
/// success, errno on failure; `*written` reports bytes that landed.
int PWriteAll(int fd, const char* p, std::size_t n, uint64_t offset,
              std::size_t* written) {
  *written = 0;
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
    offset += static_cast<uint64_t>(w);
    *written += static_cast<std::size_t>(w);
  }
  return 0;
}

}  // namespace

/// One parked committer: its payload, copied before the enqueue lock is
/// taken, and the LSN reserved under it. The leader frames the payload
/// (header and CRC) straight into its batch buffer. `done`/`status` are
/// guarded by the Wal's group_mu_.
struct WalGroupWaiter {
  std::string payload;
  bool durable = false;
  std::chrono::microseconds penalty{0};
  uint64_t lsn = 0;  // 0 = no frame (no file, or nothing to write)
  bool done = false;
  rlscommon::Status status;
};

Wal::CommitTicket::CommitTicket() = default;

Wal::CommitTicket::~CommitTicket() {
  // A queued waiter is referenced by the leader until it is marked
  // done; never let it die pending.
  if (pending_ && wal_) (void)wal_->CommitFinish(this);
}

Wal::Wal(std::string path, uint64_t recycle_bytes)
    : Wal(std::move(path), WalOptions{recycle_bytes, /*recovery=*/false,
                                      /*fault=*/nullptr}) {}

Wal::Wal(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {
  // Per-transaction flush is a batch of one.
  if (!options_.group_commit) options_.group_max_commits = 1;
  if (path_.empty()) return;
  // Without recovery the log is scratch space, truncated on open; with
  // it, whatever a previous incarnation left behind must be preserved.
  const int flags =
      options_.recovery ? (O_CREAT | O_RDWR) : (O_CREAT | O_WRONLY | O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    RLS_WARN("wal") << "cannot open WAL file " << path_ << ": "
                    << std::strerror(errno) << " — falling back to in-memory";
  } else if (options_.recovery) {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end > 0) file_bytes_ = static_cast<uint64_t>(end);
  }
}

Wal::~Wal() {
  if (fd_ >= 0) {
    ::close(fd_);
    // Without recovery the log is a cost model, not state: remove it. A
    // recovery log (and its checkpoint sidecar) must survive for replay.
    if (!options_.recovery) ::unlink(path_.c_str());
  }
}

void Wal::SetObserver(WalObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  observer_ = std::move(observer);
}

Status Wal::AppendLocked(std::string_view frames) {
  const uint64_t offset = file_bytes_;
  if (options_.fault) {
    // The injector sees a batch as one write, so an injected cut can
    // land inside any member frame (recovery then replays the
    // whole-frame prefix).
    const auto verdict = options_.fault->OnWrite(offset, frames.size());
    using Kind = StorageFaultInjector::WriteVerdict::Kind;
    if (verdict.kind == Kind::kError) {
      // Nothing reached the disk; the log is still consistent.
      return Status::DataLoss(std::string("WAL write: ") +
                              std::strerror(verdict.error));
    }
    if (verdict.kind == Kind::kShort) {
      std::size_t written = 0;
      (void)PWriteAll(fd_, frames.data(), verdict.allowed, offset, &written);
      if (options_.fault->crashed()) {
        // Simulated power cut: the torn frame stays on disk for recovery
        // to find, and this Wal is dead.
        poisoned_.store(true, std::memory_order_release);
        file_bytes_ = offset + written;
        return Status::DataLoss("WAL write: simulated crash after " +
                                std::to_string(written) + " bytes");
      }
      // Disk error mid-batch with the process alive: truncate the torn
      // bytes away so the log stays a clean prefix of committed frames.
      // The batch's reserved LSNs become a gap, which replay tolerates
      // (it only requires ascending LSNs, not dense ones).
      if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
        poisoned_.store(true, std::memory_order_release);
        return Status::DataLoss(std::string("WAL short write; repair failed: ") +
                                std::strerror(errno));
      }
      return Status::DataLoss(std::string("WAL short write: ") +
                              std::strerror(verdict.error));
    }
  }
  std::size_t written = 0;
  const int err = PWriteAll(fd_, frames.data(), frames.size(), offset, &written);
  if (err != 0) {
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      poisoned_.store(true, std::memory_order_release);
      return Status::DataLoss(std::string("WAL write failed; repair failed: ") +
                              std::strerror(errno));
    }
    return Status::DataLoss(std::string("WAL write: ") + std::strerror(err));
  }
  file_bytes_ = offset + frames.size();
  return Status::Ok();
}

Status Wal::SyncLocked() {
  if (options_.fault) {
    const int err = options_.fault->OnSync();
    if (err != 0) {
      // fsyncgate: a failed sync may have dropped the dirty pages.
      // Retrying would claim durability that does not exist, so the log
      // fails stop.
      poisoned_.store(true, std::memory_order_release);
      return Status::DataLoss(std::string("WAL fsync: ") + std::strerror(err));
    }
  }
  if (fd_ >= 0 && ::fdatasync(fd_) != 0) {
    poisoned_.store(true, std::memory_order_release);
    return Status::DataLoss(std::string("WAL fsync: ") + std::strerror(errno));
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Wal::CheckpointLocked(uint64_t ckpt_lsn) {
  // 1. Snapshot the committed state (the writer takes the table locks;
  //    Commit holds none).
  uint64_t snapshot_rows = 0;
  const std::string snapshot =
      checkpoint_writer_ ? checkpoint_writer_(&snapshot_rows) : std::string();

  // 2. Persist the snapshot atomically: tmp + fsync + rename. A crash
  //    before the rename leaves the old sidecar + the full log; after
  //    it, the new sidecar + (possibly still full) log — either way
  //    recovery sees a consistent pair, because frames with LSN <= the
  //    sidecar's are skipped during replay.
  const std::string ckpt_path = path_ + ".ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  int cfd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (cfd < 0) {
    return Status::DataLoss(std::string("WAL checkpoint: open ") + tmp_path +
                            ": " + std::strerror(errno));
  }
  std::string blob(20, '\0');
  PutU32(&blob[0], kSidecarMagic);
  PutU64(&blob[8], ckpt_lsn);
  PutU32(&blob[16], static_cast<uint32_t>(snapshot.size()));
  blob.append(snapshot);
  const uint32_t crc = rlscommon::Crc32c(blob.data() + 8, blob.size() - 8);
  PutU32(&blob[4], crc);
  std::size_t written = 0;
  int err = PWriteAll(cfd, blob.data(), blob.size(), 0, &written);
  if (err == 0 && ::fsync(cfd) != 0) err = errno;
  ::close(cfd);
  if (err == 0 && ::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    err = errno;
  }
  if (err != 0) {
    ::unlink(tmp_path.c_str());
    // The wrap is aborted but the log is intact; the next commit
    // retries the checkpoint.
    return Status::DataLoss(std::string("WAL checkpoint: ") +
                            std::strerror(err));
  }

  // 3. Recycle the log and stamp the covered LSN so file_bytes() and
  //    replay agree across the boundary.
  if (::ftruncate(fd_, 0) != 0) {
    poisoned_.store(true, std::memory_order_release);
    return Status::DataLoss(std::string("WAL checkpoint truncate: ") +
                            std::strerror(errno));
  }
  file_bytes_ = 0;
  std::string frame;
  AppendFrame(kWalFrameCheckpoint, ckpt_lsn, {}, /*checksum=*/true, &frame);
  Status s = AppendLocked(frame);
  if (!s.ok()) return s;
  s = SyncLocked();
  if (!s.ok()) return s;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  RLS_INFO("wal") << "checkpoint at lsn " << ckpt_lsn << " (" << snapshot_rows
                  << " rows, " << snapshot.size() << " snapshot bytes) " << path_;
  return Status::Ok();
}

Status Wal::CheckpointIfPending() {
  if (!checkpoint_pending_.load(std::memory_order_acquire)) return Status::Ok();
  // The caller (Database::MaybeCheckpoint) holds the txn gate
  // exclusively: every mutation applied to the tables belongs to a
  // transaction whose LSN is already reserved, so a snapshot stamped
  // with the highest reserved LSN skips exactly those frames at replay
  // — including ones still queued behind a leader.
  std::lock_guard<std::mutex> lock(commit_mu_);
  checkpoint_pending_.store(false, std::memory_order_release);
  if (poisoned_.load(std::memory_order_acquire) ||
      file_bytes_ <= options_.recycle_bytes) {
    return Status::Ok();
  }
  const uint64_t ckpt_lsn =
      std::max(last_lsn_, lsn_reserve_.load(std::memory_order_relaxed));
  return CheckpointLocked(ckpt_lsn);
}

Status Wal::Commit(std::string_view payload, bool durable,
                   std::chrono::microseconds penalty) {
  CommitTicket ticket;
  Status s = CommitBegin(payload, durable, penalty, &ticket);
  if (!s.ok()) return s;
  return CommitFinish(&ticket);
}

Status Wal::CommitBegin(std::string_view payload, bool durable,
                        std::chrono::microseconds penalty,
                        CommitTicket* ticket) {
  ticket->wal_ = this;
  ticket->pending_ = false;
  commits_.fetch_add(1, std::memory_order_relaxed);
  bytes_logged_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (poisoned_.load(std::memory_order_acquire)) {
    ticket->immediate_ = Status::DataLoss(
        "WAL is poisoned after an earlier sync/write failure; restart and "
        "recover");
    return ticket->immediate_;
  }
  const bool writes = fd_ >= 0 && !payload.empty();
  if (!writes && !durable) {
    // Nothing to write and nothing to sync: the commit is complete.
    ticket->immediate_ = Status::Ok();
    return ticket->immediate_;
  }
  auto waiter = std::make_unique<WalGroupWaiter>();
  waiter->durable = durable;
  waiter->penalty = penalty;
  if (writes) waiter->payload.assign(payload);
  {
    std::lock_guard<std::mutex> lock(group_mu_);
    if (writes) {
      // LSNs are reserved in enqueue order under group_mu_, so the FIFO
      // queue keeps the on-disk frames LSN-sorted.
      waiter->lsn = lsn_reserve_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    queue_.push_back(waiter.get());
  }
  group_cv_.notify_all();  // wake a lingering leader
  ticket->waiter_ = std::move(waiter);
  ticket->pending_ = true;
  return Status::Ok();
}

Status Wal::CommitFinish(CommitTicket* ticket) {
  if (!ticket->pending_) return ticket->immediate_;
  WalGroupWaiter* own = ticket->waiter_.get();
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(group_mu_);
    while (!own->done) {
      if (!leader_active_) {
        leader_active_ = true;
        LeadLocked(lock, own);
        leader_active_ = false;
        group_cv_.notify_all();  // hand leadership to a parked follower
      } else {
        group_cv_.wait(lock);
      }
    }
  }
  ticket->pending_ = false;
  const uint64_t wait_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  WalObserver observer;
  {
    std::lock_guard<std::mutex> lock(observer_mu_);
    observer = observer_;
  }
  if (observer.sync_wait) {
    observer.sync_wait(wait_us, rlscommon::CurrentTrace().trace_id);
  }
  // Stage stamp on the ambient request span: everything since the
  // db_txn stamp was spent queued behind + inside the batch sync.
  if (own->durable) rlscommon::StampHop("wal_sync");
  return own->status;
}

void Wal::LeadLocked(std::unique_lock<std::mutex>& lock, WalGroupWaiter* own) {
  while (!own->done) {
    if (options_.group_max_wait.count() > 0 &&
        queue_.size() < options_.group_max_commits) {
      // Low-load linger: trade a bounded latency floor for a fuller
      // batch. New enqueues notify, so a full batch cuts this short.
      group_cv_.wait_for(lock, options_.group_max_wait, [this] {
        return queue_.size() >= options_.group_max_commits;
      });
    }
    std::vector<WalGroupWaiter*> batch;
    std::size_t bytes = 0;
    while (!queue_.empty() && batch.size() < options_.group_max_commits) {
      WalGroupWaiter* next = queue_.front();
      const std::size_t frame_bytes =
          next->lsn > 0 ? kWalFrameHeaderBytes + next->payload.size() : 0;
      if (!batch.empty() && bytes + frame_bytes > options_.group_max_bytes) {
        break;
      }
      queue_.pop_front();
      batch.push_back(next);
      bytes += frame_bytes;
    }
    if (batch.empty()) {
      // Unreachable while own is queued, but never spin on a surprise.
      group_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    const Status s = WriteBatch(batch);
    lock.lock();
    for (WalGroupWaiter* member : batch) {
      member->status = s;
      member->done = true;
    }
    group_cv_.notify_all();
  }
}

Status Wal::WriteBatch(const std::vector<WalGroupWaiter*>& batch) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (poisoned_.load(std::memory_order_acquire)) {
    return Status::DataLoss(
        "WAL is poisoned after an earlier sync/write failure; restart and "
        "recover");
  }
  std::string& frames = batch_buf_;
  frames.clear();
  uint64_t max_lsn = 0;
  bool durable = false;
  std::chrono::microseconds penalty{0};
  for (const WalGroupWaiter* member : batch) {
    if (member->lsn > 0) {
      AppendFrame(kWalFrameTxn, member->lsn, member->payload, options_.recovery, &frames);
    }
    max_lsn = std::max(max_lsn, member->lsn);
    durable = durable || member->durable;
    penalty = std::max(penalty, member->penalty);
  }
  if (max_lsn > 0) {  // frames to write (a file is open)
    if (!options_.recovery && file_bytes_ > options_.recycle_bytes) {
      // Scratch log: restart at offset 0 instead of checkpointing.
      file_bytes_ = 0;
    }
    Status s = AppendLocked(frames);
    if (!s.ok()) return s;
    last_lsn_ = std::max(last_lsn_, max_lsn);
    if (options_.recovery && file_bytes_ > options_.recycle_bytes) {
      // Defer the checkpoint: the snapshot writer takes table locks,
      // which must not happen while committers are parked behind this
      // leader (see CheckpointIfPending).
      checkpoint_pending_.store(true, std::memory_order_release);
    }
  }
  if (durable) {
    if (fd_ >= 0) {
      Status s = SyncLocked();
      if (!s.ok()) return s;
    } else {
      syncs_.fetch_add(1, std::memory_order_relaxed);
    }
    // ONE modeled-disk penalty per sync — the whole point of group
    // commit, and per commit at cap 1. The max of the members'
    // penalties, as the slowest modeled device bounds the batch.
    if (penalty.count() > 0) {
      std::this_thread::sleep_for(penalty);
      penalty_us_charged_.fetch_add(static_cast<uint64_t>(penalty.count()),
                                    std::memory_order_relaxed);
    }
  }
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  WalObserver observer;
  {
    std::lock_guard<std::mutex> obs_lock(observer_mu_);
    observer = observer_;
  }
  if (observer.group_commit) {
    observer.group_commit(static_cast<uint64_t>(batch.size()),
                          static_cast<uint64_t>(frames.size()));
  }
  return Status::Ok();
}

Status Wal::Recover(
    uint64_t base_lsn,
    const std::function<Status(uint64_t lsn, std::string_view payload)>& apply,
    WalRecoverResult* result) {
  *result = WalRecoverResult{};
  if (!options_.recovery) {
    return Status::Unsupported("WAL recovery requires the recovery profile");
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  result->last_lsn = base_lsn;
  if (fd_ < 0) return Status::Ok();

  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    return Status::DataLoss(std::string("WAL recover: fstat: ") +
                            std::strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint64_t offset = 0;
  uint64_t last_good = 0;
  char header[kWalFrameHeaderBytes];
  std::vector<char> payload;

  while (offset + kWalFrameHeaderBytes <= size) {
    ssize_t r = ::pread(fd_, header, kWalFrameHeaderBytes,
                        static_cast<off_t>(offset));
    if (r != static_cast<ssize_t>(kWalFrameHeaderBytes)) break;  // torn tail
    const uint32_t crc = GetU32(header);
    const uint64_t lsn = GetU64(header + 4);
    const uint8_t type = static_cast<uint8_t>(header[12]);
    const uint32_t len = GetU32(header + 13);
    if (offset + kWalFrameHeaderBytes + len > size) break;  // torn tail
    payload.resize(len);
    if (len > 0) {
      r = ::pread(fd_, payload.data(), len,
                  static_cast<off_t>(offset + kWalFrameHeaderBytes));
      if (r != static_cast<ssize_t>(len)) break;  // torn tail
    }
    uint32_t actual = rlscommon::Crc32cExtend(0, header + 4,
                                              kWalFrameHeaderBytes - 4);
    actual = rlscommon::Crc32cExtend(actual, payload.data(), len);
    if (actual != crc) {
      // Corrupt frame: count it and treat it (and everything after) as
      // the torn tail. A half-written final frame lands here too when
      // its length field survived but its payload did not.
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      result->checksum_failures++;
      break;
    }
    if (type == kWalFrameCheckpoint) {
      result->checkpoint_lsn = lsn;
      if (lsn > result->last_lsn) result->last_lsn = lsn;
    } else if (type == kWalFrameTxn) {
      if (lsn > result->last_lsn) result->last_lsn = lsn;
      if (lsn > base_lsn && apply) {
        Status s = apply(lsn, len > 0 ? std::string_view(payload.data(), len)
                                      : std::string_view());
        if (!s.ok()) return s;
        result->frames_applied++;
      }
    } else {
      // Unknown frame type: corruption that happened to pass the CRC of
      // garbage is not possible (the CRC covers the type), so this is a
      // version skew; stop replay here.
      break;
    }
    offset += kWalFrameHeaderBytes + len;
    last_good = offset;
  }

  const uint64_t torn = size - last_good;
  if (torn > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(last_good)) != 0) {
      return Status::DataLoss(std::string("WAL recover: truncate: ") +
                              std::strerror(errno));
    }
    torn_tail_bytes_.fetch_add(torn, std::memory_order_relaxed);
    result->torn_tail_bytes = torn;
  }
  file_bytes_ = last_good;
  last_lsn_ = result->last_lsn;
  if (lsn_reserve_.load(std::memory_order_relaxed) < last_lsn_) {
    lsn_reserve_.store(last_lsn_, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Wal::ReadCheckpointSidecar(std::string* payload, uint64_t* lsn,
                                  bool* present) const {
  *present = false;
  *lsn = 0;
  payload->clear();
  if (path_.empty()) return Status::Ok();
  const std::string ckpt_path = path_ + ".ckpt";
  int cfd = ::open(ckpt_path.c_str(), O_RDONLY);
  if (cfd < 0) return Status::Ok();  // no sidecar: nothing checkpointed yet
  struct stat st {};
  std::string blob;
  if (::fstat(cfd, &st) == 0 && st.st_size >= 20) {
    blob.resize(static_cast<std::size_t>(st.st_size));
    ssize_t r = ::pread(cfd, blob.data(), blob.size(), 0);
    if (r != static_cast<ssize_t>(blob.size())) blob.clear();
  }
  ::close(cfd);
  if (blob.size() < 20 || GetU32(blob.data()) != kSidecarMagic) {
    return Status::DataLoss("WAL checkpoint sidecar " + ckpt_path +
                            " is malformed; ignoring it");
  }
  const uint32_t crc = GetU32(blob.data() + 4);
  const uint64_t ckpt_lsn = GetU64(blob.data() + 8);
  const uint32_t len = GetU32(blob.data() + 16);
  if (blob.size() != 20u + len ||
      rlscommon::Crc32c(blob.data() + 8, blob.size() - 8) != crc) {
    return Status::DataLoss("WAL checkpoint sidecar " + ckpt_path +
                            " failed its checksum; ignoring it");
  }
  *present = true;
  *lsn = ckpt_lsn;
  payload->assign(blob, 20, len);
  return Status::Ok();
}

uint64_t Wal::file_bytes() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return file_bytes_;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return last_lsn_;
}

}  // namespace rdb
