// Measurement primitives of the RLS benchmark: an exact percentile
// recorder and the due-time accounting of the open-loop generator.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two instants, as a double.
inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Keeps every sample, so percentiles are exact (nearest rank), not
/// bucketed like the server's power-of-two histograms.
class SampleRecorder {
 public:
  void Add(double value) {
    samples_.push_back(value);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  /// Adds every sample of `other`.
  void Merge(const SampleRecorder& other);

  /// Nearest-rank percentile: the smallest sample such that at least a
  /// fraction `q` (0 < q <= 1) of all samples is <= it. 0 when empty.
  double Percentile(double q);
  double Median() { return Percentile(0.5); }

  /// How many samples lie strictly above the `q` percentile — the
  /// tail's sample count, reported next to p99/p999.
  std::size_t CountAbove(double q);

 private:
  void Sort();

  std::vector<double> samples_;
  bool sorted_ = true;
};

/// Schedule of an open-loop phase: call i is due at start + i / rate,
/// whatever happened to earlier calls. Latency is charged from the due
/// time, so a stall (in the server or in the generator itself) raises
/// the latency of every call that was due while it lasted, instead of
/// silently delaying their send (coordinated omission).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_second);

  Clock::time_point Due(uint64_t index) const;

  /// Number of calls due at or before `now`.
  uint64_t DueBy(Clock::time_point now) const;

  /// Records that call `index` left the generator at `sent`; keeps the
  /// worst lag behind schedule.
  void NoteSent(uint64_t index, Clock::time_point sent);

  double max_lag_ms() const { return max_lag_ms_; }

 private:
  Clock::time_point start_;
  double period_ns_;
  double max_lag_ms_ = 0;
};

}  // namespace perfbench
