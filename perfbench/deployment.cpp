#include "deployment.h"

namespace perfbench {

using rlscommon::Status;

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kLrcReadMostly: return "lrc_read_mostly";
    case WorkloadKind::kLrcDurableChurn: return "lrc_durable_churn";
    case WorkloadKind::kRliSoftState: return "rli_softstate";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind kind : {WorkloadKind::kLrcReadMostly, WorkloadKind::kLrcDurableChurn,
                            WorkloadKind::kRliSoftState}) {
    if (name == WorkloadName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

gsi::AuthManager BenchAuth() {
  gsi::Gridmap gridmap;
  (void)gridmap.AddEntry("/O=Grid/OU=other.example.org/CN=.*", "guest");
  (void)gridmap.AddEntry("/O=Grid/OU=perfbench.example.org/CN=.*", "bench");
  gsi::Acl acl;
  (void)acl.AddEntry("guest", {gsi::Privilege::kLrcRead});
  (void)acl.AddEntry("/O=Grid/OU=admins.example.org/CN=.*",
                     {gsi::Privilege::kAdmin, gsi::Privilege::kStats});
  (void)acl.AddEntry("bench", {gsi::Privilege::kLrcRead, gsi::Privilege::kLrcWrite,
                               gsi::Privilege::kStats});
  return gsi::AuthManager::Secured(std::move(gridmap), std::move(acl));
}

Status Deployment::Create(const RunConfig& config, const std::string& wal_dir,
                          std::unique_ptr<Deployment>* out) {
  std::unique_ptr<Deployment> d(new Deployment());
  d->wal_dir_ = wal_dir;
  Status s = d->Build(config);
  if (!s.ok()) return s;
  *out = std::move(d);
  return Status::Ok();
}

Deployment::~Deployment() {
  CloseConnections();
  // LRCs first: their update managers hold connections to the RLI.
  for (auto& lrc : lrcs_) lrc->Stop();
  lrcs_.clear();
  if (rli_) rli_->Stop();
  rli_.reset();
}

void Deployment::CloseConnections() {
  for (auto& client : clients_) client->Close();
  clients_.clear();
}

std::vector<rls::RlsServer*> Deployment::lrcs() const {
  std::vector<rls::RlsServer*> out;
  for (const auto& lrc : lrcs_) out.push_back(lrc.get());
  return out;
}

std::vector<net::RpcClient*> Deployment::connections() const {
  std::vector<net::RpcClient*> out;
  for (const auto& client : clients_) out.push_back(client.get());
  return out;
}

Status Deployment::StartLrc(const std::string& name, rdb::BackendProfile profile,
                            rls::UpdateConfig update, gsi::AuthManager auth) {
  rls::RlsServerConfig config;
  config.address = name;
  config.url = name;
  config.auth = std::move(auth);
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://" + name;
  config.lrc.update = std::move(update);
  config.lrc.wal_recovery = profile.wal_recovery;
  config.lrc.wal_group_commit = profile.wal_group_commit;
  Status s = env_.CreateDatabaseWithProfile(config.lrc.dsn, profile,
                                            wal_dir_ + "/" + name + ".wal");
  if (!s.ok()) return s;
  auto server = std::make_unique<rls::RlsServer>(transport_.get(), config, &env_);
  s = server->Start();
  if (!s.ok()) return s;
  lrc_urls_.push_back(name);
  lrc_modes_.push_back(config.lrc.update.mode);
  lrcs_.push_back(std::move(server));
  return Status::Ok();
}

Status Deployment::Build(const RunConfig& config) {
  transport_ = net::MakeTransport("tcp://127.0.0.1");
  if (!transport_) return Status::Internal("no TCP transport");

  // Every workload has an RLI: the soft-state target. It keeps a
  // relational store for uncompressed updates and accepts Bloom updates.
  rls::RlsServerConfig rli_config;
  rli_config.address = "rli";
  rli_config.url = "rli";
  rli_config.rli.enabled = true;
  rli_config.rli.dsn = "mysql://rli";
  rli_config.rli.accept_bloom = true;
  Status s = env_.CreateDatabase(rli_config.rli.dsn);
  if (!s.ok()) return s;
  rli_ = std::make_unique<rls::RlsServer>(transport_.get(), rli_config, &env_);
  s = rli_->Start();
  if (!s.ok()) return s;

  const bool rli_workload = config.kind == WorkloadKind::kRliSoftState;
  rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
  profile.durable_flush = false;
  if (config.kind == WorkloadKind::kLrcDurableChurn) {
    // Every commit pays a real fdatasync; no modeled disk penalty.
    profile.durable_flush = true;
    profile.durable_flush_penalty = std::chrono::microseconds(0);
    profile.wal_recovery = true;
    profile.wal_group_commit = true;
  }

  if (!rli_workload) {
    preload_per_lrc_ = config.catalog;
    s = StartLrc("lrc", profile, rls::UpdateConfig{}, BenchAuth());
    if (!s.ok()) return s;
    const rlscommon::NameGenerator& gen = names_.catalog;
    s = lrcs_[0]->lrc_store()->BulkLoad(config.catalog, [&](uint64_t i) {
      return rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)};
    });
    if (!s.ok()) return s;
  } else {
    preload_per_lrc_ = config.names_per_lrc;
    const rls::UpdateMode modes[] = {rls::UpdateMode::kFull, rls::UpdateMode::kFull,
                                     rls::UpdateMode::kBloom, rls::UpdateMode::kBloom};
    for (int i = 0; i < 4; ++i) {
      const std::string name = "site" + std::to_string(i);
      names_.sites.emplace_back(name);
      rls::UpdateConfig update;
      update.mode = modes[i];
      update.targets.push_back(rls::UpdateTarget{"rli", net::LinkModel::Loopback(), {}});
      // A 10k-name chunk of a repeated full update takes seconds to
      // ingest on the RLI, longer than the default 5 s RPC deadline.
      update.rpc_timeout = std::chrono::seconds(60);
      s = StartLrc(name, profile, update, gsi::AuthManager::Open());
      if (!s.ok()) return s;
      const rlscommon::NameGenerator& gen = names_.sites.back();
      s = lrcs_.back()->lrc_store()->BulkLoad(config.names_per_lrc, [&](uint64_t n) {
        return rls::Mapping{gen.LogicalName(n), gen.PhysicalName(n)};
      });
      if (!s.ok()) return s;
    }
    // The RLI must know every name before the first query: no false
    // negatives is checked from the first call on.
    for (auto& lrc : lrcs_) {
      s = lrc->update_manager()->ForceFullUpdate();
      if (!s.ok()) return s;
    }
  }

  net::ClientOptions options;
  options.credential.dn = kClientDn;
  options.link = net::LinkModel::Loopback();
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::string target = lrc_urls_[0];
    if (rli_workload && c + 1 < kConnections) target = "rli";
    options.identity = "bench-client-" + std::to_string(c);
    std::unique_ptr<net::RpcClient> client;
    s = net::RpcClient::Connect(transport_.get(), target, options, &client);
    if (!s.ok()) return s;
    clients_.push_back(std::move(client));
  }
  return Status::Ok();
}

}  // namespace perfbench
