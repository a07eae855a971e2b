#include "workloads.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "engine.h"
#include "layers.h"
#include "obs/span_recorder.h"
#include "rls/protocol.h"
#include "rls/update_manager.h"

namespace perfbench {

using rlscommon::Status;

namespace {

constexpr std::size_t kProbeBulkCalls = 400;  // per set-up, x 100 names
constexpr std::size_t kProbeWindow = 16;
constexpr int kProbeRounds = 2;  // per set-up, one full update (about 2 s) each
constexpr int kProbeBloomUpdatesPerRound = 5;
constexpr double kSliceSeconds = 0.5;  // each open-loop and capacity slice

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// A repeated measurement is reported at its quartile on the better side:
// the 25th percentile of times (slice medians, update times), the 75th
// of rates (slice capacities). Load from other tenants of the host only
// ever slows a slice down, so these read the program's own speed as long
// as a quarter of the run was undisturbed, where a median needs half.
double LowQuartile(SampleRecorder& times) { return times.Percentile(0.25); }
double HighQuartile(SampleRecorder& rates) { return rates.Percentile(0.75); }

/// Share of the time of the CPU this thread runs on (the one the whole
/// process is pinned to) that the hypervisor took: the `steal` column of
/// its /proc/stat line, since construction; 0 where not reported.
/// Printed with each run, so a reader can tell a slow run on a busy host.
class StealMeter {
 public:
  StealMeter() : label_("cpu" + std::to_string(std::max(0, ::sched_getcpu()))) {
    Read(&total_, &steal_);
  }
  double Share() const {
    uint64_t total = 0, steal = 0;
    if (!Read(&total, &steal) || total <= total_) return 0;
    return static_cast<double>(steal - steal_) / (total - total_);
  }

 private:
  bool Read(uint64_t* total, uint64_t* steal) const {
    // cpuN user nice system idle iowait irq softirq steal [guest ...]:
    // guest time is already counted in user, so only the first 8 add up.
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string label;
      fields >> label;
      if (label != label_) continue;
      *total = 0;
      for (int i = 0; i < 8; ++i) {
        uint64_t value = 0;
        if (!(fields >> value)) return false;
        *total += value;
        if (i == 7) *steal = value;
      }
      return true;
    }
    return false;
  }

  std::string label_;
  uint64_t total_ = 0;
  uint64_t steal_ = 0;
};

/// Open-loop mix ops per second: a quarter of one-CPU capacity or less,
/// so calls rarely queue behind each other.
double OpenLoopRate(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kLrcReadMostly: return 4000;
    case WorkloadKind::kLrcDurableChurn: return 150;
    case WorkloadKind::kRliSoftState: return 2000;
  }
  return 1000;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Hands memory freed by a torn-down deployment back to the OS, so the
/// peak resident size counts what a run holds, not how the allocator
/// happened to reuse the previous set-up's free lists.
void ReleaseFreedMemory() { ::malloc_trim(0); }

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Times one ForceFullUpdate() of rli_softstate LRC `site` into `out`.
void TimedUpdate(Deployment& d, std::size_t site, Tally* tally, SampleRecorder* out) {
  const Clock::time_point start = Clock::now();
  const Status s = d.lrcs()[site]->update_manager()->ForceFullUpdate();
  const double seconds = Seconds(start, Clock::now());
  ++tally->attempted;
  if (!s.ok()) {
    tally->Fail("update from " + d.lrc_urls()[site] + ": " + s.ToString());
  } else {
    out->Add(seconds);
  }
}

/// Background soft-state driver of rli_softstate: ForceFullUpdate() on
/// the uncompressed-mode LRCs round-robin, back to back, while the
/// generator runs. It works in whole rounds (one update per LRC), so
/// every run has a sample from each however slow an update is. A
/// repeated uncompressed update of a 50k-name LRC takes 10-25 s on the
/// RLI, so a run holds one round. (The Bloom-mode LRCs are updated
/// between slices.)
class UpdateLoop {
 public:
  UpdateLoop(Deployment& deployment, Watchdog& watchdog)
      : deployment_(deployment), watchdog_(watchdog) {}
  ~UpdateLoop() { Stop(); }
  UpdateLoop(const UpdateLoop&) = delete;
  UpdateLoop& operator=(const UpdateLoop&) = delete;

  void Start() {
    stop_ = false;
    finished_ = false;
    thread_ = std::thread([this] { Run(); });
  }
  /// Asks the loop to end after its current round.
  void RequestStop() { stop_ = true; }
  bool finished() const { return finished_; }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Adds the updates' outcomes to `tally` and their times to `full`
  /// (after Stop).
  void MergeInto(Tally& tally, SampleRecorder* full) const {
    full->Merge(full_);
    tally.attempted += tally_.attempted;
    tally.failed += tally_.failed;
    for (const std::string& p : tally_.problems) {
      if (tally.problems.size() < 8) tally.problems.push_back(p);
    }
  }

 private:
  void Run() {
    const std::vector<rls::RlsServer*> lrcs = deployment_.lrcs();
    do {
      for (std::size_t site = 0; site < lrcs.size(); ++site) {
        if (deployment_.lrc_modes()[site] != rls::UpdateMode::kFull) continue;
        TimedUpdate(deployment_, site, &tally_, &full_);
        watchdog_.Progress();
      }
    } while (!stop_);
    finished_ = true;
  }

  Deployment& deployment_;
  Watchdog& watchdog_;
  Tally tally_;  // the update thread's own; merged after Stop
  SampleRecorder full_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::thread thread_;
};

/// The LRC workloads' soft-state probe, after each set-up's timed phases:
/// the LRC pushes its whole state uncompressed (to a fresh RLI each time)
/// and as a Bloom filter (to the deployment's RLI), in interleaved rounds,
/// then bulk RLI queries (half held names, half never held) count Bloom
/// false hits and check for false negatives. `setup` picks the queries.
Status SoftStateProbe(const RunConfig& config, int setup, Deployment& d, Watchdog& watchdog,
                      Tally& tally, SampleRecorder* full, SampleRecorder* bloom) {
  rls::LrcStore* store = d.lrcs()[0]->lrc_store();
  const std::string url = d.lrc_urls()[0];
  auto make_config = [](rls::UpdateMode mode, const std::string& rli) {
    rls::UpdateConfig update;
    update.mode = mode;
    update.targets.push_back(rls::UpdateTarget{rli, net::LinkModel::Loopback(), {}});
    update.rpc_timeout = std::chrono::seconds(60);
    return update;
  };
  rls::UpdateManager bloom_manager(d.transport(), store, url,
                                   make_config(rls::UpdateMode::kBloom, "rli"));
  ++tally.attempted;
  Status s = bloom_manager.ForceFullUpdate();  // builds the filter once
  if (!s.ok()) return s;
  for (int round = 0; round < kProbeRounds; ++round) {
    // A fresh RLI makes every uncompressed sample a first ingest of the
    // whole LRC (a repeated one costs far more).
    watchdog.Progress("soft-state probe: full update");
    const std::string name =
        "probe-rli" + std::to_string(setup) + "-" + std::to_string(round);
    rls::RlsServerConfig rli_config;
    rli_config.address = name;
    rli_config.url = name;
    rli_config.rli.enabled = true;
    rli_config.rli.dsn = "mysql://" + name;
    s = d.env().CreateDatabase(rli_config.rli.dsn);
    if (!s.ok()) return s;
    {
      rls::RlsServer rli(d.transport(), rli_config, &d.env());
      s = rli.Start();
      if (!s.ok()) return s;
      rls::UpdateManager manager(d.transport(), store, url,
                                 make_config(rls::UpdateMode::kFull, name));
      const Clock::time_point start = Clock::now();
      ++tally.attempted;
      s = manager.ForceFullUpdate();
      if (!s.ok()) return s;
      full->Add(Seconds(start, Clock::now()));
      rli.Stop();
    }
    (void)d.env().DropDatabase(rli_config.rli.dsn);
    ReleaseFreedMemory();

    watchdog.Progress("soft-state probe: bloom updates");
    for (int i = 0; i < kProbeBloomUpdatesPerRound; ++i) {
      const Clock::time_point start = Clock::now();
      ++tally.attempted;
      s = bloom_manager.ForceFullUpdate();
      if (!s.ok()) return s;
      bloom->Add(Seconds(start, Clock::now()));
    }
  }

  watchdog.Progress("soft-state probe: RLI queries");
  net::ClientOptions options;
  options.credential.dn = kClientDn;
  options.identity = "bench-probe";
  std::unique_ptr<net::RpcClient> client;
  s = net::RpcClient::Connect(d.transport(), "rli", options, &client);
  if (!s.ok()) return s;
  KeyPicker keys(config.catalog, (config.seed ^ 0x5eed) + setup);
  const Names& names = d.names();
  std::vector<std::map<std::string, bool>> asked(kProbeBulkCalls);  // lfn -> held
  {
    CallDriver driver({client.get()}, &watchdog);
    std::vector<Completion> done;
    std::size_t issued = 0;
    while (issued < kProbeBulkCalls || driver.in_flight() > 0) {
      while (issued < kProbeBulkCalls && driver.in_flight() < kProbeWindow) {
        rls::BulkQueryRequest req;
        for (int i = 0; i < 100; ++i) {
          const bool held = keys.Roll() < 0.5;
          const uint64_t key = keys.Uniform(config.catalog);
          req.names.push_back(held ? names.catalog.LogicalName(key)
                                   : names.absent.LogicalName(key));
          asked[issued][req.names.back()] = held;
        }
        std::string payload;
        req.Encode(&payload);
        ++tally.attempted;
        driver.Issue(0, rls::kRliBulkQuery, payload, issued++);
      }
      done.clear();
      driver.Poll(Clock::now() + std::chrono::milliseconds(100), &done);
      for (Completion& c : done) {
        rls::MappingListResponse resp;
        if (!c.status.ok() || !rls::MappingListResponse::Decode(c.response, &resp).ok()) {
          tally.Fail("probe RLI bulk query: " + c.status.ToString());
          continue;
        }
        std::map<std::string, int> named;
        for (const rls::Mapping& m : resp.mappings) {
          if (m.target != url) tally.Fail("probe RLI names unknown LRC " + m.target);
          ++named[m.logical];
        }
        for (const auto& [lfn, held] : asked[c.tag]) {
          const int count = named.count(lfn) ? named[lfn] : 0;
          tally.rli_answers += count;
          if (held && count == 0) tally.Fail("probe RLI false negative for " + lfn);
          if (!held) tally.rli_false_hits += count;
        }
      }
    }
  }
  client->Close();
  return Status::Ok();
}

/// The run's correctness checks on final state: every create was
/// matched by its delete, so each LRC holds exactly its preload.
void CheckFinalState(Deployment& d, Tally& tally) {
  for (rls::RlsServer* lrc : d.lrcs()) {
    const uint64_t count = lrc->lrc_store()->LogicalNameCount();
    if (count != d.preload_per_lrc()) {
      tally.Fail(lrc->url() + " holds " + std::to_string(count) + " names, preloaded " +
                 std::to_string(d.preload_per_lrc()));
    }
  }
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Watchdog watchdog(std::chrono::seconds(30));
  const double rate = OpenLoopRate(config.kind);
  const std::filesystem::path wal_root = std::filesystem::path(config.workdir) / "wal";

  result.where.emplace_back("workload", WorkloadName(config.kind));
  result.where.emplace_back("seed", std::to_string(config.seed));
  result.where.emplace_back("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  result.where.emplace_back("fabric", "tcp://127.0.0.1 (loopback link model)");

  // Removes the run's WAL files on every way out, after the deployment
  // that writes them is gone (declared first, destroyed last).
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_wal{wal_root};
  Tally tally;
  SampleRecorder setup;
  const bool rli_workload = config.kind == WorkloadKind::kRliSoftState;
  const int setups = std::max(1, config.setups);
  const int measured_setups = rli_workload ? 1 : setups;
  SampleRecorder bloom_updates;      // rli_softstate: Bloom update times
  SampleRecorder full_updates;       // rli_softstate: uncompressed update times
  SampleRecorder probe_full;         // LRC workloads: the probe's update times
  SampleRecorder probe_bloom;
  PhaseRecorders open;               // every open-loop latency of the run
  PhaseRecorders slice_p50;          // each open-loop slice's median latencies
  SampleRecorder capacity;           // closed-loop calls/s, one per slice
  SampleRecorder untraced_capacity;  // traced run: same, recorder off
  double max_lag_ms = 0;
  LayerInputs layer_inputs;
  StealMeter steal;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < setups; ++i) {
    if (d) CheckFinalState(*d, tally);
    d.reset();
    ReleaseFreedMemory();
    std::error_code ec;
    std::filesystem::remove_all(wal_root, ec);
    std::filesystem::create_directories(wal_root, ec);
    watchdog.Progress("setup");
    const Clock::time_point start = Clock::now();
    Status s = Deployment::Create(config, wal_root.string(), &d);
    if (!s.ok()) {
      result.fatal = "setup failed: " + s.ToString();
      return result;
    }
    // Each set-up gets its own key stream; its measured phases carry on
    // from its warm-up instead of replaying the warm-up's keys.
    Engine engine(config, *d, watchdog, tally, /*stream=*/i);
    engine.Warmup(config.warmup_ops);
    setup.Add(Seconds(start, Clock::now()));
    if (i == 0) {
      result.where.emplace_back("wal_fs", FilesystemType(wal_root.string()));
      const std::string build = d->rli()->GetStatsSnapshot().build_flags;
      result.where.emplace_back("build_flags", build);
      if (build != "release") {
        result.fatal = "refusing to measure a '" + build + "' build: numbers from a debug "
                       "or sanitizer build are not data";
        return result;
      }
    }

    // Every set-up is measured for its share of the run's time, and on
    // the LRC workloads the soft-state probe follows each, so a burst of
    // outside load that covers part of the run moves only some of its
    // slices and updates. On rli_softstate only the last set-up is
    // measured, for the whole time: its measuring lasts at least one
    // round of updates, tens of seconds. The traced run's layer inputs
    // come from the last set-up.
    if (i < setups - measured_setups) continue;
    const rdb::Wal& wal = d->lrcs()[0]->lrc_store()->database()->wal();
    layer_inputs.wal_bytes_before = wal.bytes_logged();
    layer_inputs.wal_commits_before = wal.commits();
    layer_inputs.wal_syncs_before = wal.syncs();
    layer_inputs.user_bytes_before = tally.user_bytes_written;
    layer_inputs.bytes_before = ClientBytesSent(*d);
    layer_inputs.calls_before = engine.calls_issued();
    // The measured time alternates open-loop and capacity slices, so both
    // sample the same stretch of machine time. Each slice gives one value
    // per metric (its median latency of each kind, its capacity); the run
    // reports their better quartile. On rli_softstate the soft-state
    // updates run underneath, and measuring lasts until the round in
    // progress ends, so every run has samples of both uncompressed-mode
    // LRCs.
    UpdateLoop updates(*d, watchdog);
    if (rli_workload) updates.Start();
    const Clock::time_point end =
        Clock::now() +
        std::chrono::nanoseconds(static_cast<int64_t>(config.seconds / measured_setups * 1e9));
    do {
      watchdog.Progress("measuring");
      if (config.trace) {
        // Untraced capacity, then the same slice with the flight recorder
        // on (as the harness does for RLS_TRACE_JSON).
        untraced_capacity.Add(engine.ClosedLoop(kSliceSeconds, kWindow));
        obs::SpanRecorder::Global().Enable(1024);
      }
      PhaseRecorders slice;
      max_lag_ms = std::max(max_lag_ms,
                            engine.OpenLoop(kSliceSeconds, rate, kOpenLoopMaxInFlight, &slice));
      capacity.Add(engine.ClosedLoop(kSliceSeconds, kWindow));
      slice_p50.AddMedians(slice);
      open.Merge(slice);
      if (config.trace) obs::SpanRecorder::Global().Disable();
      if (rli_workload && !updates.finished()) {
        // The Bloom-mode LRCs update between slices, from this thread:
        // each update then runs beside the uncompressed ingest and no
        // query load, the same way every time.
        for (std::size_t site = 0; site < d->lrcs().size(); ++site) {
          if (d->lrc_modes()[site] == rls::UpdateMode::kBloom) {
            TimedUpdate(*d, site, &tally, &bloom_updates);
          }
        }
      }
      if (Clock::now() >= end) updates.RequestStop();
    } while (Clock::now() < end || (rli_workload && !updates.finished()));
    updates.Stop();
    updates.MergeInto(tally, &full_updates);
    layer_inputs.calls = engine.calls_issued() - layer_inputs.calls_before;
    if (!config.trace && !rli_workload) {
      // The soft-state probe follows each set-up's measuring, so the
      // measured slices and the probe's updates both spread over the run.
      // (Every phase of the engine ends with nothing in flight.)
      d->CloseConnections();
      s = SoftStateProbe(config, i, *d, watchdog, tally, &probe_full, &probe_bloom);
      if (!s.ok()) tally.Fail("soft-state probe: " + s.ToString());
    }
    // The engine drains its calls here, before the next set-up.
  }
  CheckFinalState(*d, tally);
  layer_inputs.steal = steal.Share();
  char steal_share[32];
  std::snprintf(steal_share, sizeof(steal_share), "%.3f", layer_inputs.steal);
  result.where.emplace_back("cpu_steal", steal_share);

  if (!config.trace) {
    SampleRecorder& full = rli_workload ? full_updates : probe_full;
    SampleRecorder& bloom = rli_workload ? bloom_updates : probe_bloom;
    result.metrics = {
        {"setup_s", setup.Median(), "s", setup.count()},
        {"query_p50_us", LowQuartile(slice_p50.query), "us", open.query.count()},
        {"write_p50_us", LowQuartile(slice_p50.write), "us", open.write.count()},
        {"bulk_p50_ms", LowQuartile(slice_p50.bulk) / 1000.0, "ms", open.bulk.count()},
        {"capacity_ops_s", HighQuartile(capacity), "ops/s", capacity.count()},
        {"update_full_s", LowQuartile(full), "s", full.count()},
        {"update_bloom_s", LowQuartile(bloom), "s", bloom.count()},
        {"rli_false_hit_ratio",
         tally.rli_answers ? static_cast<double>(tally.rli_false_hits) / tally.rli_answers : 0,
         "ratio", tally.rli_answers},
        {"rss_mb", PeakRssMb(), "MB", 0},
    };
  } else {
    layer_inputs.open = &open;
    layer_inputs.query_p50_us = LowQuartile(slice_p50.query);
    layer_inputs.capacity = HighQuartile(capacity);
    layer_inputs.untraced_capacity = HighQuartile(untraced_capacity);
    layer_inputs.max_lag_ms = max_lag_ms;
    MeasureLayers(config, *d, watchdog, tally, layer_inputs, &result.metrics);
    CheckFinalState(*d, tally);
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.problems = tally.problems;
  result.correct = tally.failed == 0;
  return result;
}

}  // namespace perfbench
