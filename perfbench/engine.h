// The load generator shared by the end-to-end and the traced runs:
// the workload's mix, its seeded inputs, and the check of every reply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/workload.h"
#include "deployment.h"
#include "driver.h"
#include "recorder.h"

namespace perfbench {

/// The open-loop phases' cap on outstanding calls: far above what the
/// fixed rates need, it only bounds memory if the servers stall.
inline constexpr std::size_t kOpenLoopMaxInFlight = 8192;

/// Latencies of open-loop calls, in microseconds.
struct PhaseRecorders {
  SampleRecorder query;  // point query (LRC or RLI)
  SampleRecorder write;  // single create or delete
  SampleRecorder bulk;   // one 100-item bulk call

  /// Adds every sample of `other`.
  void Merge(const PhaseRecorders& other);
  /// Adds `slice`'s median of each kind it has samples of.
  void AddMedians(PhaseRecorders& slice);
};

/// Outcome counts over the whole run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rli_answers = 0;      // LRCs named in RLI answers
  uint64_t rli_false_hits = 0;   // ... that lack the name (Bloom false positives)
  uint64_t user_bytes_written = 0;  // mapping bytes in creates and deletes
  std::vector<std::string> problems;

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

/// The workload's seeded inputs: which names each mix op touches.
class KeyPicker {
 public:
  KeyPicker(uint64_t catalog, uint64_t seed);

  /// Catalog index drawn Zipf (s = 0.99), hot ranks scattered over it.
  uint64_t Zipf();
  uint64_t Uniform(uint64_t n) { return rng_.Below(n); }
  double Roll() { return rng_.NextDouble(); }
  /// A fresh-name index never handed out before in this run, spread
  /// uniformly over the fresh corpus.
  uint64_t NextFresh();

 private:
  uint64_t catalog_;
  uint64_t stride_;
  uint64_t offset_;
  rlscommon::ZipfGenerator zipf_;
  rlscommon::Xoshiro256 rng_;
  uint64_t fresh_counter_ = 0;
  uint64_t fresh_offset_;
};

class Engine {
 public:
  /// `stream` picks one of the seed's independent key streams.
  Engine(const RunConfig& config, Deployment& deployment, Watchdog& watchdog,
         Tally& tally, uint64_t stream = 0);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Closed loop for `ops` mix ops, nothing recorded.
  void Warmup(uint64_t ops);

  /// Open loop at `rate` mix ops/s for `seconds`, with at most
  /// `max_in_flight` calls outstanding; every call's latency is charged
  /// from its due time. Returns the generator's worst lag.
  double OpenLoop(double seconds, double rate, std::size_t max_in_flight,
                  PhaseRecorders* recorders);

  /// Closed loop keeping `window` calls in flight for `seconds`.
  /// Returns completed calls per second.
  double ClosedLoop(double seconds, std::size_t window);

  /// Calls issued through the driver so far.
  uint64_t calls_issued() const { return driver_.issued(); }

 private:
  enum class CallKind : uint8_t {
    kQuery, kBulkQuery, kCreate, kDelete, kBulkCreate, kBulkDelete,
    kRliQuery, kRliBulkQuery,
  };
  struct Active {
    CallKind kind = CallKind::kQuery;
    std::vector<uint64_t> keys;  // name indices (one unless bulk)
    std::vector<int> owners;     // rli_softstate: site holding each name, -1 = none
    Clock::time_point origin{};  // latency is measured from here
  };

  void StartOp(Clock::time_point origin);
  /// Handles completions until nothing is in flight, follow-ups included.
  void Settle();
  void Issue(uint32_t slot);
  void Handle(Completion& completion);
  void CheckRliAnswer(const std::string& lfn, int owner,
                      const std::vector<std::string>& lrcs);
  std::string Lfn(const Active& op, std::size_t i) const;
  std::string Pfn(const Active& op, std::size_t i) const;
  void PickRliName(Active* op);
  uint32_t AllocSlot();

  const RunConfig& config_;
  Deployment& deployment_;
  Tally& tally_;
  KeyPicker keys_;
  CallDriver driver_;
  std::vector<Active> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Completion> completions_;
  PhaseRecorders* recorders_ = nullptr;  // null outside the open loop
  std::size_t next_rli_conn_ = 0;
  std::size_t next_conn_ = 0;
};

}  // namespace perfbench
