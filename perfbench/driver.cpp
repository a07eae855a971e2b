#include "driver.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Watchdog::Watchdog(std::chrono::seconds stall_limit)
    : stall_limit_(stall_limit), last_progress_ns_(NowNs()), thread_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Progress(const char* activity) {
  activity_.store(activity, std::memory_order_relaxed);
  Progress();
}

void Watchdog::Progress() {
  last_progress_ns_.store(NowNs(), std::memory_order_relaxed);
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(200));
    if (stop_) break;
    const int64_t idle_ns = NowNs() - last_progress_ns_.load(std::memory_order_relaxed);
    if (idle_ns > std::chrono::nanoseconds(stall_limit_).count()) {
      std::fprintf(stderr,
                   "perfbench: watchdog: no progress for %lld s during '%s'; "
                   "failing the run\n",
                   static_cast<long long>(stall_limit_.count()),
                   activity_.load(std::memory_order_relaxed));
      std::fflush(stderr);
      // Threads of the servers and clients may be the ones stuck, so
      // nothing can be joined safely: end the process here.
      std::_Exit(3);
    }
  }
}

CallDriver::CallDriver(std::vector<net::RpcClient*> connections, Watchdog* watchdog)
    : connections_(std::move(connections)), watchdog_(watchdog) {}

CallDriver::~CallDriver() {
  std::vector<Completion> ignored;
  while (in_flight_ > 0) Poll(Clock::now() + std::chrono::milliseconds(100), &ignored);
}

void CallDriver::Issue(std::size_t conn, uint16_t opcode, const std::string& payload,
                       uint64_t tag) {
  ++in_flight_;
  ++issued_;
  net::Future future = connections_[conn % connections_.size()]->BeginCall(opcode, payload);
  std::shared_ptr<Inbox> inbox = inbox_;
  future.Then([inbox, tag](const rlscommon::Status& status, const std::string& response) {
    const Clock::time_point done = Clock::now();
    {
      std::lock_guard<std::mutex> lock(inbox->mu);
      inbox->items.push_back(Completion{tag, status, response, done});
    }
    inbox->cv.notify_one();
  });
}

void CallDriver::Poll(Clock::time_point until, std::vector<Completion>* out) {
  std::unique_lock<std::mutex> lock(inbox_->mu);
  while (spin_ && inbox_->items.empty() && Clock::now() < until) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  if (inbox_->items.empty()) {
    inbox_->cv.wait_until(lock, until, [&] { return !inbox_->items.empty(); });
  }
  if (inbox_->items.empty()) return;
  in_flight_ -= inbox_->items.size();
  for (Completion& c : inbox_->items) out->push_back(std::move(c));
  inbox_->items.clear();
  lock.unlock();
  if (watchdog_) watchdog_->Progress();
}

}  // namespace perfbench
