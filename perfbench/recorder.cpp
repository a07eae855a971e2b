#include "recorder.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

void SampleRecorder::Sort() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

void SampleRecorder::Merge(const SampleRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

double SampleRecorder::Percentile(double q) {
  if (samples_.empty()) return 0;
  Sort();
  const double n = static_cast<double>(samples_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples_.size()) rank = samples_.size();
  return samples_[rank - 1];
}

std::size_t SampleRecorder::CountAbove(double q) {
  if (samples_.empty()) return 0;
  const double threshold = Percentile(q);
  return static_cast<std::size_t>(
      samples_.end() - std::upper_bound(samples_.begin(), samples_.end(), threshold));
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_second)
    : start_(start), period_ns_(1e9 / rate_per_second) {}

Clock::time_point OpenLoopSchedule::Due(uint64_t index) const {
  return start_ + std::chrono::nanoseconds(
                      static_cast<int64_t>(static_cast<double>(index) * period_ns_));
}

uint64_t OpenLoopSchedule::DueBy(Clock::time_point now) const {
  if (now < start_) return 0;
  const double elapsed = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_).count());
  return static_cast<uint64_t>(elapsed / period_ns_) + 1;
}

void OpenLoopSchedule::NoteSent(uint64_t index, Clock::time_point sent) {
  const double lag_ms =
      std::chrono::duration<double, std::milli>(sent - Due(index)).count();
  max_lag_ms_ = std::max(max_lag_ms_, lag_ms);
}

}  // namespace perfbench
