// The servers, databases and connections one benchmark run drives.
//
// Every workload runs real rls::RlsServers over the epoll TCP fabric on
// 127.0.0.1 with the loopback link model (no modeled delay). The load
// generator uses at most kConnections pipelined RpcClients.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/workload.h"
#include "dbapi/dbapi.h"
#include "driver.h"
#include "gsi/gsi.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "rls/rls_server.h"

namespace perfbench {

inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kWindow = 64;  // closed-loop calls in flight

enum class WorkloadKind { kLrcReadMostly, kLrcDurableChurn, kRliSoftState };

const char* WorkloadName(WorkloadKind kind);
bool ParseWorkload(const std::string& name, WorkloadKind* out);

/// Everything that shapes one run. The defaults are the benchmark's;
/// tests shrink the sizes for smoke runs.
struct RunConfig {
  WorkloadKind kind = WorkloadKind::kLrcReadMostly;
  uint64_t seed = 1;
  double seconds = 15;     // measured time, in alternating open-loop and capacity slices
  bool trace = false;      // per-layer run instead of the end-to-end run
  std::string workdir;     // scratch directory for WAL and probe files
  uint64_t catalog = 200000;        // LRC workloads: preloaded mappings
  uint64_t names_per_lrc = 50000;   // rli_softstate: names per LRC
  int setups = 3;          // set-ups per run; setup_s is their median
  uint64_t warmup_ops = 1000;
};

/// The DN every benchmark client presents, and the one the LRC's
/// gridmap and ACL admit.
inline const char* kClientDn = "/O=Grid/OU=perfbench.example.org/CN=Bench Client";

/// The gridmap + ACL policy of the LRC workloads (GSI auth on).
gsi::AuthManager BenchAuth();

/// Names of the catalogs the workloads use. Stable for a given index.
struct Names {
  rlscommon::NameGenerator catalog{"catalog"};
  rlscommon::NameGenerator fresh{"fresh"};
  rlscommon::NameGenerator absent{"absent"};
  std::vector<rlscommon::NameGenerator> sites;  // one corpus per RLI-side LRC
};

class Deployment {
 public:
  /// Builds the workload's servers, preloads them, connects the
  /// clients. Databases keep their WAL files under `wal_dir`.
  static rlscommon::Status Create(const RunConfig& config, const std::string& wal_dir,
                                  std::unique_ptr<Deployment>* out);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  net::Transport* transport() { return transport_.get(); }
  dbapi::Environment& env() { return env_; }
  const Names& names() const { return names_; }

  /// LRC servers: one on the LRC workloads, four on rli_softstate.
  std::vector<rls::RlsServer*> lrcs() const;
  /// The RLI: the soft-state probe's on the LRC workloads.
  rls::RlsServer* rli() const { return rli_.get(); }

  /// The generator's connections (kConnections of them). On the LRC
  /// workloads all go to the LRC; on rli_softstate the first
  /// kConnections-1 go to the RLI and the last to LRC 0.
  std::vector<net::RpcClient*> connections() const;

  /// LRC URLs in order (the names RLI answers carry).
  const std::vector<std::string>& lrc_urls() const { return lrc_urls_; }
  /// UpdateMode of each rli_softstate LRC (kFull, kFull, kBloom, kBloom).
  const std::vector<rls::UpdateMode>& lrc_modes() const { return lrc_modes_; }

  /// Mapping count each LRC was preloaded with.
  uint64_t preload_per_lrc() const { return preload_per_lrc_; }

  const std::string& wal_dir() const { return wal_dir_; }

  /// Closes every connection (callers drain their calls first).
  void CloseConnections();

 private:
  Deployment() = default;
  rlscommon::Status Build(const RunConfig& config);
  rlscommon::Status StartLrc(const std::string& name, rdb::BackendProfile profile,
                             rls::UpdateConfig update, gsi::AuthManager auth);

  std::unique_ptr<net::Transport> transport_;
  dbapi::Environment env_;
  Names names_;
  std::string wal_dir_;
  std::vector<std::unique_ptr<rls::RlsServer>> lrcs_;
  std::unique_ptr<rls::RlsServer> rli_;
  std::vector<std::string> lrc_urls_;
  std::vector<rls::UpdateMode> lrc_modes_;
  std::vector<std::unique_ptr<net::RpcClient>> clients_;
  uint64_t preload_per_lrc_ = 0;
};

}  // namespace perfbench
