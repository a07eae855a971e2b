#include "layers.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

#include "bloom/bloom_filter.h"
#include "gsi/gsi.h"
#include "rdb/wal.h"
#include "rls/lrc_store.h"
#include "rls/protocol.h"
#include "rls/rli_store.h"
#include "rls/update_manager.h"

namespace perfbench {

using rlscommon::Status;

namespace {

constexpr int kPings = 2000;
constexpr int kPointCalls = 20000;
constexpr std::size_t kUpsertChunk = 10000;  // names per RLI ingest batch

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

bool Durable(const RunConfig& config) {
  return config.kind == WorkloadKind::kLrcDurableChurn;
}

/// Write calls per direct-timing series: fewer when each pays a sync.
int WriteCalls(const RunConfig& config) { return Durable(config) ? 300 : 2000; }

const rls::MetricSample* FindSample(const rls::GetStatsResponse& stats,
                                    const std::string& name,
                                    const std::string& label_a = "",
                                    const std::string& label_b = "") {
  const rls::MetricSample* best = nullptr;
  for (const rls::MetricSample& s : stats.metrics) {
    if (s.name != name) continue;
    if (!label_a.empty() && s.labels.find(label_a) == std::string::npos) continue;
    if (!label_b.empty() && s.labels.find(label_b) == std::string::npos) continue;
    if (!best || s.count > best->count) best = &s;
  }
  return best;
}

double SumValues(const rls::GetStatsResponse& stats, const std::string& name) {
  double total = 0;
  for (const rls::MetricSample& s : stats.metrics) {
    if (s.name == name) total += s.value;
  }
  return total;
}

class Output {
 public:
  explicit Output(std::vector<Metric>* out) : out_(out) {}
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    out_->push_back(Metric{name, value, unit, samples});
  }
  void Timing(const std::string& name, SampleRecorder& rec, const std::string& unit) {
    Add(name, rec.Median(), unit, rec.count());
  }

 private:
  std::vector<Metric>* out_;
};

/// The workload's own names: the catalog on the LRC workloads, the
/// first site's names on rli_softstate.
const rlscommon::NameGenerator& WorkloadCorpus(const RunConfig& config, Deployment& d) {
  return config.kind == WorkloadKind::kRliSoftState ? d.names().sites[0]
                                                    : d.names().catalog;
}

uint64_t WorkloadCorpusSize(const RunConfig& config) {
  return config.kind == WorkloadKind::kRliSoftState ? config.names_per_lrc : config.catalog;
}

void MeasureNet(Deployment& d, Tally& tally, Output* out) {
  SampleRecorder ping;
  net::RpcClient* client = d.connections()[0];
  for (int i = 0; i < kPings; ++i) {
    std::string response;
    const Clock::time_point start = Clock::now();
    ++tally.attempted;
    const Status s = client->Call(rls::kPing, "", &response);
    const Clock::time_point done = Clock::now();
    if (!s.ok() || response != "pong") {
      tally.Fail("ping: " + s.ToString());
      continue;
    }
    ping.Add(MicrosBetween(start, done));
  }
  out->Timing("net.ping_rtt_us", ping, "us");

  uint64_t retries = 0, reconnects = 0;
  for (net::RpcClient* c : d.connections()) {
    retries += c->retries();
    reconnects += c->reconnects();
  }
  double requests = 0, shed = 0;
  std::vector<rls::RlsServer*> servers = d.lrcs();
  servers.push_back(d.rli());
  for (rls::RlsServer* server : servers) {
    const rls::GetStatsResponse stats = server->GetStatsSnapshot();
    requests += SumValues(stats, "rpc_requests_total");
    shed += SumValues(stats, "rpc_shed_total");
  }
  out->Add("net.server_requests", requests, "count");
  out->Add("net.shed_total", shed, "count");
  out->Add("net.client_retries", static_cast<double>(retries), "count");
  out->Add("net.client_reconnects", static_cast<double>(reconnects), "count");
}

void MeasureGsi(const RunConfig& config, Output* out) {
  const gsi::AuthManager auth = config.kind == WorkloadKind::kRliSoftState
                                    ? gsi::AuthManager::Open()
                                    : BenchAuth();
  gsi::AuthContext context;
  (void)auth.Authenticate(gsi::Credential{kClientDn}, &context);
  const gsi::Privilege privilege = config.kind == WorkloadKind::kRliSoftState
                                       ? gsi::Privilege::kRliRead
                                       : gsi::Privilege::kLrcRead;
  const Clock::time_point start = Clock::now();
  uint64_t granted = 0;
  for (int i = 0; i < kPointCalls; ++i) {
    granted += auth.Authorize(context, privilege).ok() ? 1 : 0;
  }
  const double ns = Seconds(start, Clock::now()) * 1e9 / kPointCalls;
  out->Add("gsi.authorize_ns", granted == kPointCalls ? ns : 0, "ns", kPointCalls);
}

void MeasureLrcStore(const RunConfig& config, Deployment& d, Tally& tally, Output* out,
                     double* query_us) {
  rls::LrcStore* store = d.lrcs()[0]->lrc_store();
  const rlscommon::NameGenerator& corpus = WorkloadCorpus(config, d);
  KeyPicker keys(WorkloadCorpusSize(config), config.seed ^ 0x1a7e5);
  SampleRecorder query, create, remove, bulk_item;
  std::vector<std::string> targets;
  for (int i = 0; i < kPointCalls; ++i) {
    const uint64_t key = config.kind == WorkloadKind::kLrcReadMostly
                             ? keys.Zipf()
                             : keys.Uniform(WorkloadCorpusSize(config));
    const std::string lfn = corpus.LogicalName(key);
    const Clock::time_point start = Clock::now();
    const Status s = store->QueryLogical(lfn, &targets);
    const Clock::time_point done = Clock::now();
    if (!s.ok() || targets.size() != 1 || targets[0] != corpus.PhysicalName(key)) {
      tally.Fail("direct LRC query of " + lfn);
    }
    query.Add(MicrosBetween(start, done));
  }
  const rlscommon::NameGenerator& fresh = d.names().fresh;
  for (int i = 0; i < WriteCalls(config); ++i) {
    const uint64_t key = keys.NextFresh();
    const std::string lfn = fresh.LogicalName(key), pfn = fresh.PhysicalName(key);
    Clock::time_point start = Clock::now();
    Status s = store->CreateMapping(lfn, pfn);
    create.Add(MicrosBetween(start, Clock::now()));
    if (!s.ok()) tally.Fail("direct create: " + s.ToString());
    start = Clock::now();
    s = store->DeleteMapping(lfn, pfn);
    remove.Add(MicrosBetween(start, Clock::now()));
    if (!s.ok()) tally.Fail("direct delete: " + s.ToString());
  }
  for (int i = 0; i < WriteCalls(config) / 100 + 5; ++i) {
    std::vector<rls::Mapping> batch;
    for (int j = 0; j < 100; ++j) {
      const uint64_t key = keys.NextFresh();
      batch.push_back(rls::Mapping{fresh.LogicalName(key), fresh.PhysicalName(key)});
    }
    rls::BulkStatusResponse result;
    const Clock::time_point start = Clock::now();
    Status s = store->CreateMappings(batch, &result);
    bulk_item.Add(MicrosBetween(start, Clock::now()) / batch.size());
    if (!s.ok() || !result.failures.empty()) tally.Fail("direct bulk create");
    s = store->DeleteMappings(batch, &result);
    if (!s.ok() || !result.failures.empty()) tally.Fail("direct bulk delete");
  }
  out->Timing("rls.lrc_store.query_us", query, "us");
  out->Timing("rls.lrc_store.create_us", create, "us");
  out->Timing("rls.lrc_store.delete_us", remove, "us");
  out->Timing("rls.lrc_store.bulk_item_us", bulk_item, "us");
  *query_us = query.Median();
}

void MeasureRliStores(const RunConfig& config, Deployment& d, Tally& tally, Output* out,
                      double* query_us) {
  const rlscommon::NameGenerator& corpus = WorkloadCorpus(config, d);
  const uint64_t n = std::min<uint64_t>(WorkloadCorpusSize(config), 50000);
  std::vector<std::string> names = corpus.LogicalNames(0, n);

  const std::string dsn = "mysql://perfbench_rli_probe";
  (void)d.env().DropDatabase(dsn);
  std::unique_ptr<rls::RliRelationalStore> rli;
  Status s = d.env().CreateDatabase(dsn);
  if (s.ok()) s = rls::RliRelationalStore::Create(d.env(), dsn, &rli);
  if (!s.ok()) {
    tally.Fail("scratch RLI store: " + s.ToString());
    return;
  }
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < names.size(); i += kUpsertChunk) {
    std::vector<std::string> chunk(names.begin() + i,
                                   names.begin() + std::min(names.size(), i + kUpsertChunk));
    s = rli->UpsertBatch(chunk, "lrc", 1);
    if (!s.ok()) tally.Fail("direct UpsertBatch: " + s.ToString());
  }
  out->Add("rls.rli_store.upsert_us_per_name",
           Seconds(start, Clock::now()) * 1e6 / static_cast<double>(names.size()), "us",
           names.size());

  // Bloom side: one filter per site (the workload's corpus on the LRC
  // workloads), probed half with held names, half with absent ones.
  rls::RliBloomStore bloom_store;
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(n);
  for (const std::string& name : names) filter.Insert(name);
  bloom_store.StoreFilter("lrc", filter);

  KeyPicker keys(n, config.seed ^ 0xb100);
  SampleRecorder rel_query, bloom_query;
  std::vector<std::string> lrcs;
  for (int i = 0; i < kPointCalls; ++i) {
    const std::string& held = names[keys.Uniform(n)];
    lrcs.clear();
    Clock::time_point t = Clock::now();
    s = rli->Query(held, &lrcs);
    rel_query.Add(MicrosBetween(t, Clock::now()));
    if (!s.ok() || lrcs != std::vector<std::string>{"lrc"}) tally.Fail("direct RLI query");
    const std::string probe =
        i % 2 == 0 ? held : d.names().absent.LogicalName(keys.Uniform(n));
    lrcs.clear();
    t = Clock::now();
    s = bloom_store.Query(probe, &lrcs);
    bloom_query.Add(MicrosBetween(t, Clock::now()));
    if (i % 2 == 0 && (!s.ok() || lrcs.empty())) tally.Fail("direct Bloom false negative");
  }
  out->Timing("rls.rli_store.query_us", rel_query, "us");
  out->Timing("rls.rli_bloom.query_us", bloom_query, "us");
  rli.reset();
  (void)d.env().DropDatabase(dsn);
  if (config.kind == WorkloadKind::kRliSoftState) *query_us = rel_query.Median();
}

void MeasureUpdates(Deployment& d, Output* out) {
  uint64_t names_sent = 0, bytes_sent = 0;
  for (rls::RlsServer* lrc : d.lrcs()) {
    if (!lrc->update_manager()) continue;
    const rls::UpdateStats stats = lrc->update_manager()->stats();
    names_sent += stats.names_sent;
    bytes_sent += stats.bytes_sent;
  }
  out->Add("rls.update.names_sent", static_cast<double>(names_sent), "count");
  out->Add("rls.update.bytes_sent", static_cast<double>(bytes_sent), "bytes");
  const rls::GetStatsResponse stats = d.rli()->GetStatsSnapshot();
  const rls::MetricSample* lag = FindSample(stats, "ss_receive_lag_us");
  out->Add("rls.update.receive_lag_us", lag ? static_cast<double>(lag->p50_us) : 0, "us",
           lag ? lag->count : 0);
}

void NativeAdd(dbapi::Connection& conn, const std::string& lfn, const std::string& pfn,
               Tally& tally) {
  using rdb::Value;
  sql::ResultSet rs;
  Status s = conn.Begin();
  if (s.ok()) s = conn.Execute("SELECT id FROM t_lfn WHERE name = ?", {Value::String(lfn)}, &rs);
  if (s.ok()) s = conn.Execute("INSERT INTO t_lfn (name, ref) VALUES (?, 1)", {Value::String(lfn)}, &rs);
  const int64_t lfn_id = rs.last_insert_id;
  if (s.ok()) s = conn.Execute("SELECT id FROM t_pfn WHERE name = ?", {Value::String(pfn)}, &rs);
  if (s.ok()) s = conn.Execute("INSERT INTO t_pfn (name, ref) VALUES (?, 1)", {Value::String(pfn)}, &rs);
  const int64_t pfn_id = rs.last_insert_id;
  if (s.ok()) {
    s = conn.Execute("INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                     {Value::Int(lfn_id), Value::Int(pfn_id)}, &rs);
  }
  if (s.ok()) s = conn.Commit();
  if (!s.ok()) tally.Fail("native add: " + s.ToString());
}

void NativeDelete(dbapi::Connection& conn, const std::string& lfn, const std::string& pfn,
                  Tally& tally) {
  using rdb::Value;
  sql::ResultSet rs;
  Status s = conn.Begin();
  if (s.ok()) s = conn.Execute("SELECT id FROM t_lfn WHERE name = ?", {Value::String(lfn)}, &rs);
  const int64_t lfn_id = s.ok() && !rs.empty() ? rs.at(0, 0).AsInt() : 0;
  if (s.ok()) s = conn.Execute("SELECT id FROM t_pfn WHERE name = ?", {Value::String(pfn)}, &rs);
  const int64_t pfn_id = s.ok() && !rs.empty() ? rs.at(0, 0).AsInt() : 0;
  if (s.ok()) {
    s = conn.Execute("DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                     {Value::Int(lfn_id), Value::Int(pfn_id)}, &rs);
  }
  if (s.ok()) s = conn.Execute("DELETE FROM t_lfn WHERE id = ?", {Value::Int(lfn_id)}, &rs);
  if (s.ok()) s = conn.Execute("DELETE FROM t_pfn WHERE id = ?", {Value::Int(pfn_id)}, &rs);
  if (s.ok()) s = conn.Commit();
  if (!s.ok() || lfn_id == 0 || pfn_id == 0) tally.Fail("native delete: " + s.ToString());
}

void MeasureSql(const RunConfig& config, Deployment& d, Tally& tally, Output* out) {
  const rlscommon::NameGenerator& corpus = WorkloadCorpus(config, d);
  SampleRecorder select, add, remove;
  {
    // The LRC's own point query, on the live LRC database.
    std::unique_ptr<dbapi::Connection> conn;
    Status s = dbapi::Connection::Open(d.env(), "mysql://" + d.lrc_urls()[0], &conn);
    if (!s.ok()) {
      tally.Fail("open LRC database: " + s.ToString());
      return;
    }
    KeyPicker keys(WorkloadCorpusSize(config), config.seed ^ 0x5e1ec7);
    for (int i = 0; i < kPointCalls; ++i) {
      const uint64_t key = keys.Uniform(WorkloadCorpusSize(config));
      sql::ResultSet rs;
      const Clock::time_point start = Clock::now();
      s = conn->Execute(
          "SELECT t_pfn.name FROM t_lfn"
          " JOIN t_map ON t_lfn.id = t_map.lfn_id"
          " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
          " WHERE t_lfn.name = ?",
          {rdb::Value::String(corpus.LogicalName(key))}, &rs);
      select.Add(MicrosBetween(start, Clock::now()));
      if (!s.ok() || rs.size() != 1) tally.Fail("native point select");
    }
  }
  {
    // The LRC's add and delete transactions, on a scratch database with
    // the workload's flush policy.
    const std::string dsn = "mysql://perfbench_sql_probe";
    rdb::BackendProfile profile = d.lrcs()[0]->lrc_store()->database()->profile();
    Status s = d.env().CreateDatabaseWithProfile(dsn, profile,
                                                 d.wal_dir() + "/sql_probe.wal");
    std::unique_ptr<rls::LrcStore> schema;
    if (s.ok()) s = rls::LrcStore::Create(d.env(), dsn, &schema);
    std::unique_ptr<dbapi::Connection> conn;
    if (s.ok()) s = dbapi::Connection::Open(d.env(), dsn, &conn);
    if (!s.ok()) {
      tally.Fail("scratch SQL database: " + s.ToString());
      return;
    }
    const rlscommon::NameGenerator& fresh = d.names().fresh;
    for (int i = 0; i < WriteCalls(config); ++i) {
      const std::string lfn = fresh.LogicalName(i), pfn = fresh.PhysicalName(i);
      Clock::time_point start = Clock::now();
      NativeAdd(*conn, lfn, pfn, tally);
      add.Add(MicrosBetween(start, Clock::now()));
      start = Clock::now();
      NativeDelete(*conn, lfn, pfn, tally);
      remove.Add(MicrosBetween(start, Clock::now()));
    }
    conn.reset();
    schema.reset();
    (void)d.env().DropDatabase(dsn);
  }
  out->Timing("sql.point_select_us", select, "us");
  out->Timing("sql.add_txn_us", add, "us");
  out->Timing("sql.delete_txn_us", remove, "us");
}

void MeasureWalCounters(Deployment& d, const LayerInputs& in, Tally& tally,
                        Output* out) {
  // Deltas over the traced phases, read before any direct call writes.
  rdb::Wal& wal = d.lrcs()[0]->lrc_store()->database()->wal();
  const uint64_t commits = wal.commits() - in.wal_commits_before;
  const uint64_t syncs = wal.syncs() - in.wal_syncs_before;
  out->Add("rdb.wal.commits_per_sync", syncs ? static_cast<double>(commits) / syncs : 0,
           "ratio", syncs);
  const rls::MetricSample* wait =
      FindSample(d.lrcs()[0]->GetStatsSnapshot(), "wal_sync_wait_us");
  out->Add("rdb.wal.sync_wait_us", wait ? static_cast<double>(wait->p50_us) : 0, "us",
           wait ? wait->count : 0);
  const uint64_t wal_bytes = wal.bytes_logged() - in.wal_bytes_before;
  const uint64_t user_bytes = tally.user_bytes_written - in.user_bytes_before;
  out->Add("rdb.wal.bytes_per_user_byte",
           user_bytes ? static_cast<double>(wal_bytes) / user_bytes : 0, "ratio");
}

void MeasureRdb(const RunConfig& config, Deployment& d, const LayerInputs& in,
                Tally& tally, Output* out) {
  rdb::Database* db = d.lrcs()[0]->lrc_store()->database();
  const uint64_t wal_bytes = db->wal().bytes_logged() - in.wal_bytes_before;
  // A commit of the workload's mean payload on a scratch log, with the
  // workload's flush policy.
  const uint64_t commits = db->wal().commits() - in.wal_commits_before;
  const std::size_t payload_bytes =
      commits ? std::max<std::size_t>(16, wal_bytes / commits) : 256;
  const std::string payload(payload_bytes, 'w');
  const rdb::BackendProfile& profile = db->profile();
  rdb::WalOptions options;
  options.recovery = profile.wal_recovery;
  options.group_commit = profile.wal_group_commit;
  SampleRecorder commit;
  {
    rdb::Wal wal(d.wal_dir() + "/commit_probe.wal", options);
    for (int i = 0; i < WriteCalls(config); ++i) {
      const Clock::time_point start = Clock::now();
      const Status s = wal.Commit(payload, profile.durable_flush, std::chrono::microseconds(0));
      commit.Add(MicrosBetween(start, Clock::now()));
      if (!s.ok()) tally.Fail("direct WAL commit: " + s.ToString());
    }
  }
  out->Timing("rdb.wal.commit_us", commit, "us");

  // The device floor: a 4 KiB write plus fdatasync on the WAL filesystem.
  SampleRecorder sync;
  const std::string path = d.wal_dir() + "/fdatasync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
  if (fd >= 0) {
    const std::string block(4096, 's');
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point start = Clock::now();
      const bool ok = ::pwrite(fd, block.data(), block.size(), 0) ==
                          static_cast<ssize_t>(block.size()) &&
                      ::fdatasync(fd) == 0;
      sync.Add(MicrosBetween(start, Clock::now()));
      if (!ok) tally.Fail("fdatasync probe");
    }
    ::close(fd);
    ::unlink(path.c_str());
  } else {
    tally.Fail("fdatasync probe: cannot open " + path);
  }
  out->Timing("rdb.fdatasync_us", sync, "us");
}

void MeasureBloom(const RunConfig& config, Deployment& d, Tally& tally, Output* out) {
  // Filters summarize one LRC: the catalog, or a Bloom-mode site.
  const bool rli = config.kind == WorkloadKind::kRliSoftState;
  const rlscommon::NameGenerator& corpus = rli ? d.names().sites[2] : d.names().catalog;
  const uint64_t n = d.preload_per_lrc();
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(n);
  for (uint64_t i = 0; i < n; ++i) filter.Insert(corpus.LogicalName(i));
  out->Add("bloom.filter_bytes", static_cast<double>(filter.SerializedBytes()), "bytes");

  KeyPicker keys(n, config.seed ^ 0xb10f);
  std::vector<std::string> probes;
  for (int i = 0; i < kPointCalls * 5; ++i) {
    probes.push_back(i % 2 == 0 ? corpus.LogicalName(keys.Uniform(n))
                                : d.names().absent.LogicalName(keys.Uniform(n)));
  }
  uint64_t hits = 0;
  const Clock::time_point start = Clock::now();
  for (const std::string& key : probes) hits += filter.Contains(key) ? 1 : 0;
  const double ns = Seconds(start, Clock::now()) * 1e9 / static_cast<double>(probes.size());
  if (hits < probes.size() / 2) tally.Fail("Bloom filter false negative");
  out->Add("bloom.contains_ns", ns, "ns", probes.size());

  rls::RlsServer* lrc = d.lrcs()[rli ? 2 : 0];
  rls::UpdateConfig update;
  update.mode = rls::UpdateMode::kBloom;
  rls::UpdateManager manager(d.transport(), lrc->lrc_store(), lrc->url(), update);
  SampleRecorder build;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t = Clock::now();
    const Status s = manager.RebuildBloomFilter();
    build.Add(Seconds(t, Clock::now()));
    if (!s.ok()) tally.Fail("RebuildBloomFilter: " + s.ToString());
  }
  out->Timing("bloom.build_s", build, "s");
}

void MeasureStages(const RunConfig& config, Deployment& d, Output* out) {
  // rpc_stage_latency_us{method,stage} p50s, recorded while the flight
  // recorder was on, for the workload's point query and single write.
  const bool rli = config.kind == WorkloadKind::kRliSoftState;
  const rls::GetStatsResponse query_stats =
      rli ? d.rli()->GetStatsSnapshot() : d.lrcs()[0]->GetStatsSnapshot();
  const rls::GetStatsResponse write_stats = d.lrcs()[0]->GetStatsSnapshot();
  const std::string query_method = rli ? "rli_query_lfn" : "lrc_query_lfn";
  const rls::MetricSample* handler =
      FindSample(query_stats, "rpc_request_latency_us", obs::Label("method", query_method));
  out->Add("net.handler_p50_us", handler ? static_cast<double>(handler->p50_us) : 0, "us",
           handler ? handler->count : 0);
  for (const char* stage :
       {"admission", "queue_wait", "auth", "db_txn", "wal_sync", "handler", "reply"}) {
    const rls::MetricSample* q = FindSample(query_stats, "rpc_stage_latency_us",
                                            obs::Label("method", query_method),
                                            obs::Label("stage", stage));
    out->Add(std::string("stage.query.") + stage + "_p50_us",
             q ? static_cast<double>(q->p50_us) : 0, "us", q ? q->count : 0);
    const rls::MetricSample* w = FindSample(write_stats, "rpc_stage_latency_us",
                                            obs::Label("method", "lrc_create"),
                                            obs::Label("stage", stage));
    out->Add(std::string("stage.write.") + stage + "_p50_us",
             w ? static_cast<double>(w->p50_us) : 0, "us", w ? w->count : 0);
  }
}

}  // namespace

uint64_t ClientBytesSent(Deployment& d) {
  uint64_t total = 0;
  for (net::RpcClient* c : d.connections()) total += c->bytes_sent();
  return total;
}

void MeasureLayers(const RunConfig& config, Deployment& d, Watchdog& watchdog,
                   Tally& tally, const LayerInputs& in, std::vector<Metric>* metrics) {
  Output out(metrics);
  PhaseRecorders& open = *in.open;

  out.Add("net.request_bytes_per_op",
          in.calls ? static_cast<double>(ClientBytesSent(d) - in.bytes_before) / in.calls : 0,
          "bytes", in.calls);
  out.Add("client.query_p99_us", open.query.Percentile(0.99), "us", open.query.count());
  out.Add("client.query_p99_beyond", static_cast<double>(open.query.CountAbove(0.99)), "count");
  out.Add("client.query_p999_us", open.query.Percentile(0.999), "us", open.query.count());
  out.Add("client.query_p999_beyond", static_cast<double>(open.query.CountAbove(0.999)),
          "count");
  out.Add("client.write_p99_us", open.write.Percentile(0.99), "us", open.write.count());
  out.Add("client.write_p99_beyond", static_cast<double>(open.write.CountAbove(0.99)), "count");
  out.Add("harness.lag_ms_max", in.max_lag_ms, "ms");
  out.Add("harness.cpu_steal", in.steal, "ratio");
  out.Add("harness.tracing_overhead",
          in.capacity > 0 ? in.untraced_capacity / in.capacity : 0, "ratio");
  MeasureStages(config, d, &out);
  MeasureWalCounters(d, in, tally, &out);

  watchdog.Progress("layers: net");
  MeasureNet(d, tally, &out);
  watchdog.Progress("layers: gsi");
  MeasureGsi(config, &out);
  watchdog.Progress("layers: lrc store");
  double query_us = 0;
  MeasureLrcStore(config, d, tally, &out, &query_us);
  watchdog.Progress("layers: rli stores");
  MeasureRliStores(config, d, tally, &out, &query_us);
  out.Add("net.rpc_overhead_us", in.query_p50_us - query_us, "us", open.query.count());
  MeasureUpdates(d, &out);
  watchdog.Progress("layers: sql");
  MeasureSql(config, d, tally, &out);
  watchdog.Progress("layers: rdb");
  MeasureRdb(config, d, in, tally, &out);
  watchdog.Progress("layers: bloom");
  MeasureBloom(config, d, tally, &out);
}

}  // namespace perfbench
