// Tests of the benchmark's own machinery: the exact percentile recorder,
// the open-loop due-time accounting of the engine, and a short smoke run
// of every workload with every reply checked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>

#include "engine.h"
#include "recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(SampleRecorderTest, NearestRankPercentilesAreExact) {
  SampleRecorder rec;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  for (double v : values) rec.Add(v);
  EXPECT_EQ(rec.count(), 1000u);
  EXPECT_DOUBLE_EQ(rec.Percentile(0.5), 500);
  EXPECT_DOUBLE_EQ(rec.Median(), 500);
  EXPECT_DOUBLE_EQ(rec.Percentile(0.99), 990);
  EXPECT_DOUBLE_EQ(rec.Percentile(0.999), 999);
  EXPECT_DOUBLE_EQ(rec.Percentile(1.0), 1000);
  EXPECT_DOUBLE_EQ(rec.Percentile(0.0001), 1);
  EXPECT_EQ(rec.CountAbove(0.99), 10u);
  EXPECT_EQ(rec.CountAbove(0.999), 1u);
}

TEST(SampleRecorderTest, SmallAndEmptyInputs) {
  SampleRecorder empty;
  EXPECT_DOUBLE_EQ(empty.Median(), 0);
  EXPECT_EQ(empty.CountAbove(0.5), 0u);

  SampleRecorder rec;
  for (double v : {40.0, 10.0, 30.0, 20.0}) rec.Add(v);
  EXPECT_DOUBLE_EQ(rec.Median(), 20);  // rank ceil(0.5 * 4) = 2
  EXPECT_DOUBLE_EQ(rec.Percentile(0.75), 30);
  rec.Add(50);
  EXPECT_DOUBLE_EQ(rec.Median(), 30);  // rank ceil(0.5 * 5) = 3
  rec.Add(5);                          // adding after a query re-sorts
  EXPECT_DOUBLE_EQ(rec.Percentile(0.01), 5);
}

TEST(PhaseRecordersTest, SliceMediansAndMerge) {
  // A run keeps every open-loop sample (for the tails) and each slice's
  // median per call kind (for the end-to-end latencies).
  PhaseRecorders slice;
  for (double v : {30.0, 10.0, 20.0}) slice.query.Add(v);
  slice.bulk.Add(1000);
  PhaseRecorders all, medians;
  all.Merge(slice);
  medians.AddMedians(slice);
  EXPECT_EQ(all.query.count(), 3u);
  EXPECT_DOUBLE_EQ(all.query.Percentile(1.0), 30);
  EXPECT_EQ(medians.query.count(), 1u);
  EXPECT_DOUBLE_EQ(medians.query.Median(), 20);
  EXPECT_EQ(medians.write.count(), 0u);  // a kind without samples adds nothing
  EXPECT_DOUBLE_EQ(medians.bulk.Median(), 1000);
}

TEST(OpenLoopScheduleTest, CallsAreDueOnAFixedGrid) {
  const Clock::time_point start{};
  OpenLoopSchedule schedule(start, 1000);  // one call per millisecond
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_EQ(schedule.Due(5), start + std::chrono::milliseconds(5));
  EXPECT_EQ(schedule.DueBy(start), 1u);
  EXPECT_EQ(schedule.DueBy(start + std::chrono::microseconds(2500)), 3u);
}

TEST(OpenLoopScheduleTest, GeneratorLagIsRecorded) {
  const Clock::time_point start{};
  OpenLoopSchedule schedule(start, 1000);
  schedule.NoteSent(0, start);
  schedule.NoteSent(1, start + std::chrono::microseconds(1300));
  schedule.NoteSent(2, start + std::chrono::microseconds(2100));
  EXPECT_DOUBLE_EQ(schedule.max_lag_ms(), 0.3);
}

// Small sizes shared by the tests that drive real servers.
RunConfig SmallConfig(WorkloadKind kind, const std::string& workdir) {
  RunConfig config;
  config.kind = kind;
  config.seed = 11;
  config.seconds = 1;
  config.workdir = workdir;
  config.catalog = 5000;
  config.names_per_lrc = 2000;
  config.setups = 2;  // exercises the teardown between set-ups
  config.warmup_ops = 200;
  return config;
}

class ScratchDir : public ::testing::Test {
 protected:
  void SetUp() override {
    char dir[] = "perfbench_test.XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    workdir_ = std::filesystem::absolute(dir).string();
  }
  void TearDown() override { std::filesystem::remove_all(workdir_); }
  std::string workdir_;
};

using EngineTest = ScratchDir;

TEST_F(EngineTest, StalledCompletionsRaiseTheLatencyOfLaterCalls) {
  // The engine's own open loop against a real LRC, offered 1M calls/s
  // for 5 ms with at most one call in flight: each completion holds back
  // every later call. Timed from its due time, call i waits out the i
  // calls before it, so the median latency is about half the phase's
  // wall time; timed from its send (or from when the cap let it go),
  // every call would show one round trip.
  const RunConfig config = SmallConfig(WorkloadKind::kLrcReadMostly, workdir_);
  std::unique_ptr<Deployment> d;
  ASSERT_TRUE(Deployment::Create(config, workdir_, &d).ok());
  Watchdog watchdog(std::chrono::seconds(30));
  Tally tally;
  {
    Engine engine(config, *d, watchdog, tally);
    PhaseRecorders recorders;
    const Clock::time_point start = Clock::now();
    const double max_lag_ms = engine.OpenLoop(0.005, 1e6, 1, &recorders);
    const double wall_us = MicrosBetween(start, Clock::now());
    ASSERT_GT(recorders.query.count(), 1000u);
    const double round_trip_us = wall_us / recorders.query.count();
    EXPECT_GT(recorders.query.Median(), wall_us / 4);
    EXPECT_GT(recorders.query.Median(), 100 * round_trip_us);
    EXPECT_GT(recorders.query.Percentile(0.99), wall_us * 0.9);
    EXPECT_GT(max_lag_ms, wall_us / 2000);
  }
  for (const std::string& problem : tally.problems) ADD_FAILURE() << problem;
  EXPECT_EQ(tally.failed, 0u);
}

class SmokeRun : public ScratchDir,
                 public ::testing::WithParamInterface<std::tuple<WorkloadKind, bool>> {};

TEST_P(SmokeRun, EveryCallIsCheckedAndCorrect) {
  RunConfig config = SmallConfig(std::get<0>(GetParam()), workdir_);
  config.trace = std::get<1>(GetParam());
  const RunResult result = RunWorkload(config);
  ASSERT_TRUE(result.fatal.empty()) << result.fatal;
  for (const std::string& problem : result.problems) ADD_FAILURE() << problem;
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);  // failed_ratio = 0
  EXPECT_GT(result.attempted, 100u);
  ASSERT_FALSE(result.metrics.empty());
  for (const Metric& m : result.metrics) {
    EXPECT_GE(m.value, 0) << m.name;
  }
  if (!config.trace) {
    ASSERT_EQ(result.metrics.size(), 9u);
    for (const Metric& m : result.metrics) EXPECT_GT(m.value, 0) << m.name;
  }
  // The run leaves nothing behind in its scratch directory.
  EXPECT_TRUE(std::filesystem::is_empty(workdir_));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SmokeRun,
    ::testing::Combine(::testing::Values(WorkloadKind::kLrcReadMostly,
                                         WorkloadKind::kLrcDurableChurn,
                                         WorkloadKind::kRliSoftState),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(WorkloadName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_traced" : "");
    });

}  // namespace
}  // namespace perfbench
