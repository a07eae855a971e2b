// Pipelined call engine of the RLS benchmark.
//
// One generator thread issues every call through net::RpcClient::
// BeginCall over a small fixed set of connections; concurrency comes from
// pipelining, not from client threads. Completions arrive on the clients'
// receiver threads and are handed back to the generator through an inbox,
// so all checking and every follow-up call (a delete after its create's
// acknowledgement) happens on the generator thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "net/rpc.h"
#include "recorder.h"

namespace perfbench {

struct Completion {
  uint64_t tag = 0;
  rlscommon::Status status;
  std::string response;
  Clock::time_point done{};
};

/// Ends the process with a message when no progress is reported for
/// `stall_limit` while armed: a run that hangs fails instead of hanging.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds stall_limit);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Marks progress and names what the run is doing now.
  void Progress(const char* activity);
  void Progress();

 private:
  void Loop();

  std::chrono::seconds stall_limit_;
  std::atomic<int64_t> last_progress_ns_;
  std::atomic<const char*> activity_{"start"};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // declared last: uses the members above
};

class CallDriver {
 public:
  CallDriver(std::vector<net::RpcClient*> connections, Watchdog* watchdog);
  /// Waits for every call still in flight: destroying an RpcClient with
  /// calls in flight is not safe.
  ~CallDriver();
  CallDriver(const CallDriver&) = delete;
  CallDriver& operator=(const CallDriver&) = delete;

  std::size_t connections() const { return connections_.size(); }

  /// Issues one call on connection `conn`; its completion comes back
  /// from Poll() carrying `tag`.
  void Issue(std::size_t conn, uint16_t opcode, const std::string& payload,
             uint64_t tag);

  /// Appends available completions to `out`; blocks until at least one
  /// is available or `until` passes.
  void Poll(Clock::time_point until, std::vector<Completion>* out);

  std::size_t in_flight() const { return in_flight_; }
  uint64_t issued() const { return issued_; }

  /// When set, Poll spins (yielding) instead of sleeping while it waits.
  void set_spin(bool spin) { spin_ = spin; }

 private:
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Completion> items;
  };

  std::vector<net::RpcClient*> connections_;
  Watchdog* watchdog_;
  std::shared_ptr<Inbox> inbox_ = std::make_shared<Inbox>();
  std::size_t in_flight_ = 0;  // generator thread only
  bool spin_ = false;
  uint64_t issued_ = 0;
};

}  // namespace perfbench
