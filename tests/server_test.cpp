// Client-API tests against the common server: every operation family of
// Table 1, plus ACL enforcement, the common-server role configuration and
// the per-opcode contract (privilege, role, admission lane and cost).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/clock.h"
#include "obs/trace.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class ServerTest : public ::testing::Test {
 protected:
  static std::string UniqueName(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  void SetUp() override {
    RlsServerConfig config;
    config.address = UniqueName("rls:");
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + UniqueName("srv_lrc");
    ASSERT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    server_ = std::make_unique<RlsServer>(&network_, config, &env_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(LrcClient::Connect(&network_, config.address, {}, &client_).ok());
  }

  net::Network network_;
  dbapi::Environment env_;
  std::unique_ptr<RlsServer> server_;
  std::unique_ptr<LrcClient> client_;
};

TEST_F(ServerTest, PingAndStats) {
  ASSERT_TRUE(client_->Ping().ok());
  GetStatsResponse stats;
  ASSERT_TRUE(client_->GetStats(&stats).ok());
  EXPECT_EQ(stats.vitals.lfn_count, 0u);
}

TEST_F(ServerTest, MappingLifecycleOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Add("lfn1", "pfnB").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(client_->Query("lfn1", &targets).ok());
  EXPECT_EQ(targets.size(), 2u);
  ASSERT_TRUE(client_->Exists("lfn1").ok());
  ASSERT_TRUE(client_->Delete("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Delete("lfn1", "pfnB").ok());
  EXPECT_EQ(client_->Exists("lfn1").code(), ErrorCode::kNotFound);
  EXPECT_EQ(client_->Query("lfn1", &targets).code(), ErrorCode::kNotFound);
}

TEST_F(ServerTest, ReverseAndWildcardQueries) {
  ASSERT_TRUE(client_->Create("lfn://e/r1/f1", "gsiftp://s/a").ok());
  ASSERT_TRUE(client_->Create("lfn://e/r1/f2", "gsiftp://s/a").ok());
  std::vector<std::string> logicals;
  ASSERT_TRUE(client_->QueryTarget("gsiftp://s/a", &logicals).ok());
  EXPECT_EQ(logicals.size(), 2u);
  std::vector<Mapping> mappings;
  ASSERT_TRUE(client_->WildcardQuery("lfn://e/r1/*", 0, &mappings).ok());
  EXPECT_EQ(mappings.size(), 2u);
}

TEST_F(ServerTest, BulkOperations) {
  std::vector<Mapping> mappings;
  for (int i = 0; i < 100; ++i) {
    mappings.push_back(Mapping{"bulk" + std::to_string(i), "p" + std::to_string(i)});
  }
  BulkStatusResponse result;
  ASSERT_TRUE(client_->BulkCreate(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 100u);
  EXPECT_TRUE(result.failures.empty());

  // Re-creating reports per-item failures without failing the batch.
  ASSERT_TRUE(client_->BulkCreate(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failures.size(), 100u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kAlreadyExists);

  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("bulk" + std::to_string(i));
  std::vector<Mapping> found;
  ASSERT_TRUE(client_->BulkQuery(names, &found).ok());
  EXPECT_EQ(found.size(), 100u);

  ASSERT_TRUE(client_->BulkDelete(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 100u);
  GetStatsResponse stats;
  ASSERT_TRUE(client_->GetStats(&stats).ok());
  EXPECT_EQ(stats.vitals.lfn_count, 0u);
}

TEST_F(ServerTest, BulkQuerySkipsMissingNames) {
  ASSERT_TRUE(client_->Create("present", "p").ok());
  std::vector<Mapping> found;
  ASSERT_TRUE(client_->BulkQuery({"present", "absent"}, &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].logical, "present");
}

TEST_F(ServerTest, AttributesOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(
      client_->AttributeDefine("size", AttrObject::kTarget, AttrType::kInt).ok());
  ASSERT_TRUE(client_->AttributeAdd("pfnA", "size", AttrObject::kTarget,
                                    AttrValue::Int(4096)).ok());
  std::vector<Attribute> attrs;
  ASSERT_TRUE(client_->AttributeQuery("pfnA", AttrObject::kTarget, &attrs).ok());
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].value.int_value, 4096);

  ASSERT_TRUE(client_->AttributeModify("pfnA", "size", AttrObject::kTarget,
                                       AttrValue::Int(8192)).ok());
  std::vector<Attribute> found;
  ASSERT_TRUE(client_->AttributeSearch("size", AttrObject::kTarget, AttrCmp::kGt,
                                       AttrValue::Int(5000), &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "pfnA");

  ASSERT_TRUE(client_->AttributeDelete("pfnA", "size", AttrObject::kTarget).ok());
  ASSERT_TRUE(client_->AttributeQuery("pfnA", AttrObject::kTarget, &attrs).ok());
  EXPECT_TRUE(attrs.empty());
  ASSERT_TRUE(client_->AttributeUndefine("size", AttrObject::kTarget).ok());
}

TEST_F(ServerTest, BulkAttributesOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Create("lfn2", "pfnB").ok());
  ASSERT_TRUE(
      client_->AttributeDefine("checksum", AttrObject::kTarget, AttrType::kString).ok());
  std::vector<AttrValueRequest> items(2);
  items[0].object_name = "pfnA";
  items[0].attr_name = "checksum";
  items[0].object = AttrObject::kTarget;
  items[0].value = AttrValue::Str("aaa");
  items[1].object_name = "pfnB";
  items[1].attr_name = "checksum";
  items[1].object = AttrObject::kTarget;
  items[1].value = AttrValue::Str("bbb");
  BulkStatusResponse result;
  ASSERT_TRUE(client_->BulkAttributeAdd(items, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_TRUE(client_->BulkAttributeDelete(items, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
}

TEST_F(ServerTest, RliManagementOps) {
  std::vector<std::string> rlis;
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  EXPECT_TRUE(rlis.empty());
  ASSERT_TRUE(client_->RliAdd("rli:managed").ok());
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  ASSERT_EQ(rlis.size(), 1u);
  EXPECT_EQ(rlis[0], "rli:managed");
  ASSERT_TRUE(client_->RliRemove("rli:managed").ok());
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  EXPECT_TRUE(rlis.empty());
}

TEST_F(ServerTest, RliOpcodesRejectedWithoutRliRole) {
  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network_, server_->address(), {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  EXPECT_EQ(rli_client->Query("x", &lrcs).code(), ErrorCode::kUnsupported);
}

TEST(ServerRoleTest, CombinedLrcAndRliServer) {
  // §3.1: one server configured as both LRC and RLI.
  net::Network network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "combined:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://combined_lrc";
  config.lrc.update.mode = UpdateMode::kFull;
  config.lrc.update.targets.push_back(UpdateTarget{"combined:1"});  // self-update
  config.rli.enabled = true;
  config.rli.dsn = "mysql://combined_rli";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<LrcClient> lrc_client;
  ASSERT_TRUE(LrcClient::Connect(&network, "combined:1", {}, &lrc_client).ok());
  ASSERT_TRUE(lrc_client->Create("self", "p").ok());
  ASSERT_TRUE(lrc_client->ForceUpdate().ok());

  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "combined:1", {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli_client->Query("self", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "combined:1");
  std::vector<std::string> updaters;
  ASSERT_TRUE(rli_client->LrcList(&updaters).ok());
  ASSERT_EQ(updaters.size(), 1u);
}

TEST(ServerRoleTest, TraceIdPropagatesFromClientToRli) {
  // A trace installed at the client edge rides the RPC frame into the
  // LRC handler, through the soft-state send, and is recorded by the
  // receiving RLI as last_update_trace_id.
  net::Network network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "traced:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://traced_lrc";
  config.lrc.update.mode = UpdateMode::kFull;
  config.lrc.update.targets.push_back(UpdateTarget{"traced:1"});  // self-update
  config.rli.enabled = true;
  config.rli.dsn = "mysql://traced_rli";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<LrcClient> client;
  ASSERT_TRUE(LrcClient::Connect(&network, "traced:1", {}, &client).ok());

  const uint64_t trace_id = obs::NewTraceId();
  {
    obs::ScopedTrace trace(obs::TraceContext{trace_id, obs::NewTraceId()});
    ASSERT_TRUE(client->Create("traced_lfn", "p").ok());
    ASSERT_TRUE(client->ForceUpdate().ok());
  }

  GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_EQ(stats.last_update_trace_id, trace_id);
  server.Stop();
}

TEST(ServerAclTest, PrivilegesEnforcedPerOperation) {
  net::Network network;
  dbapi::Environment env;

  gsi::Gridmap gridmap;
  ASSERT_TRUE(gridmap.AddEntry("/CN=Reader", "reader").ok());
  ASSERT_TRUE(gridmap.AddEntry("/CN=Writer", "writer").ok());
  gsi::Acl acl;
  ASSERT_TRUE(acl.AddEntry("reader", {gsi::Privilege::kLrcRead}).ok());
  ASSERT_TRUE(acl.AddEntry("writer", {gsi::Privilege::kLrcRead,
                                      gsi::Privilege::kLrcWrite}).ok());

  RlsServerConfig config;
  config.address = "secured:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://secured_lrc";
  config.auth = gsi::AuthManager::Secured(std::move(gridmap), std::move(acl),
                                          std::chrono::microseconds(0));
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  ClientConfig writer_cfg;
  writer_cfg.credential.dn = "/CN=Writer";
  std::unique_ptr<LrcClient> writer;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", writer_cfg, &writer).ok());
  ASSERT_TRUE(writer->Create("lfn1", "p").ok());

  ClientConfig reader_cfg;
  reader_cfg.credential.dn = "/CN=Reader";
  std::unique_ptr<LrcClient> reader;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", reader_cfg, &reader).ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(reader->Query("lfn1", &targets).ok());
  EXPECT_EQ(reader->Create("lfn2", "p").code(), ErrorCode::kPermissionDenied);
  // Neither has admin: RLI-list management is denied.
  EXPECT_EQ(writer->RliAdd("rli:x").code(), ErrorCode::kPermissionDenied);

  // Unknown DN authenticates (no gridmap match needed) but holds nothing.
  ClientConfig stranger_cfg;
  stranger_cfg.credential.dn = "/CN=Stranger";
  std::unique_ptr<LrcClient> stranger;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", stranger_cfg, &stranger).ok());
  EXPECT_EQ(stranger->Query("lfn1", &targets).code(), ErrorCode::kPermissionDenied);
}

TEST(ServerConfigTest, ServerWithNoRolesRejected) {
  net::Network network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "none:1";
  RlsServer server(&network, config, &env);
  EXPECT_EQ(server.Start().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// The per-opcode contract, pinned literally and checked only through
// behaviour: the method label, the privilege the server demands (none
// for ping), the role that serves the opcode, the admission lane and the
// privilege class whose token cost a normal-lane request is charged.
// ---------------------------------------------------------------------

using P = gsi::Privilege;

enum class Serves { kAnyRole, kLrc, kRli };

struct OpContract {
  uint16_t opcode;
  const char* name;
  std::optional<P> privilege;  // nullopt = open to every client
  Serves role;
  bool priority;     // protected admission lane
  P cost_class;      // token-bucket charge on the normal lane
};

constexpr OpContract kContract[] = {
    {kPing, "ping", std::nullopt, Serves::kAnyRole, true, P::kLrcRead},
    {kServerGetStats, "server_get_stats", P::kStats, Serves::kAnyRole, true, P::kLrcRead},
    {kServerGetTraces, "server_get_traces", P::kStats, Serves::kAnyRole, true, P::kLrcRead},
    {kLrcCreate, "lrc_create", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcAdd, "lrc_add", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcDelete, "lrc_delete", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcBulkCreate, "lrc_bulk_create", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcBulkAdd, "lrc_bulk_add", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcBulkDelete, "lrc_bulk_delete", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcQueryLfn, "lrc_query_lfn", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcQueryPfn, "lrc_query_pfn", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcBulkQueryLfn, "lrc_bulk_query_lfn", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcWildcardQueryLfn, "lrc_wildcard_query_lfn", P::kLrcRead, Serves::kLrc, false,
     P::kLrcRead},
    {kLrcExists, "lrc_exists", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcAttrDefine, "lrc_attr_define", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcAttrAdd, "lrc_attr_add", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcAttrModify, "lrc_attr_modify", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcAttrDelete, "lrc_attr_delete", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcAttrQueryObj, "lrc_attr_query_obj", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcAttrSearch, "lrc_attr_search", P::kLrcRead, Serves::kLrc, false, P::kLrcRead},
    {kLrcBulkAttrAdd, "lrc_bulk_attr_add", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcBulkAttrDelete, "lrc_bulk_attr_delete", P::kLrcWrite, Serves::kLrc, false,
     P::kLrcWrite},
    {kLrcAttrUndefine, "lrc_attr_undefine", P::kLrcWrite, Serves::kLrc, false, P::kLrcWrite},
    {kLrcRliList, "lrc_rli_list", P::kAdmin, Serves::kLrc, true, P::kLrcRead},
    {kLrcRliAdd, "lrc_rli_add", P::kAdmin, Serves::kLrc, true, P::kLrcRead},
    {kLrcRliRemove, "lrc_rli_remove", P::kAdmin, Serves::kLrc, true, P::kLrcRead},
    {kLrcForceUpdate, "lrc_force_update", P::kAdmin, Serves::kLrc, true, P::kLrcRead},
    {kRliQueryLfn, "rli_query_lfn", P::kRliRead, Serves::kRli, false, P::kRliRead},
    {kRliBulkQuery, "rli_bulk_query", P::kRliRead, Serves::kRli, false, P::kRliRead},
    {kRliWildcardQuery, "rli_wildcard_query", P::kRliRead, Serves::kRli, false, P::kRliRead},
    {kRliLrcList, "rli_lrc_list", P::kRliRead, Serves::kRli, false, P::kRliRead},
    {kSsFullBegin, "ss_full_begin", P::kRliWrite, Serves::kRli, true, P::kLrcRead},
    {kSsFullChunk, "ss_full_chunk", P::kRliWrite, Serves::kRli, true, P::kLrcRead},
    {kSsFullEnd, "ss_full_end", P::kRliWrite, Serves::kRli, true, P::kLrcRead},
    {kSsIncremental, "ss_incremental", P::kRliWrite, Serves::kRli, true, P::kLrcRead},
    {kSsBloom, "ss_bloom", P::kRliWrite, Serves::kRli, true, P::kLrcRead},
};

constexpr P kAllPrivileges[] = {P::kLrcRead, P::kRliRead,  P::kLrcWrite,
                                P::kRliWrite, P::kAdmin, P::kStats};

/// The DN that holds every privilege except `missing`.
std::string LacksDn(P missing) {
  return "/CN=lacks-" + std::string(gsi::PrivilegeName(missing));
}

/// A secured LRC and/or RLI server whose ACL grants each LacksDn() its
/// five privileges; any other DN authenticates but holds nothing.
class ContractServer {
 public:
  ContractServer(bool lrc, bool rli) {
    static std::atomic<int> counter{0};
    const std::string id = std::to_string(counter.fetch_add(1));
    gsi::Acl acl;
    for (P missing : kAllPrivileges) {
      std::vector<P> held;
      for (P p : kAllPrivileges) {
        if (p != missing) held.push_back(p);
      }
      EXPECT_TRUE(acl.AddEntry(LacksDn(missing), held).ok());
    }
    RlsServerConfig config;
    config.address = "contract:" + id;
    config.auth = gsi::AuthManager::Secured(gsi::Gridmap{}, std::move(acl),
                                            std::chrono::microseconds(0));
    config.lrc.enabled = lrc;
    config.lrc.dsn = "mysql://contract_lrc" + id;
    config.rli.enabled = rli;
    config.rli.dsn = "mysql://contract_rli" + id;
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    server_ = std::make_unique<RlsServer>(&network_, config, &env_);
    EXPECT_TRUE(server_->Start().ok());
  }

  /// The status `dn` gets for `opcode` with an empty request body.
  ErrorCode CallAs(const std::string& dn, uint16_t opcode) {
    std::unique_ptr<net::RpcClient>& client = clients_[dn];
    if (!client) {
      net::ClientOptions options;
      options.credential.dn = dn;
      EXPECT_TRUE(
          net::RpcClient::Connect(&network_, server_->address(), options, &client).ok());
    }
    std::string response;
    return client->Call(opcode, "", &response).code();
  }

  RlsServer& server() { return *server_; }

 private:
  net::Network network_;
  dbapi::Environment env_;
  std::unique_ptr<RlsServer> server_;
  std::map<std::string, std::unique_ptr<net::RpcClient>> clients_;
};

TEST(OpcodeContractTest, PermissionDeniedExactlyWhenPrivilegeMissing) {
  ContractServer combined(/*lrc=*/true, /*rli=*/true);
  for (const OpContract& op : kContract) {
    for (P missing : kAllPrivileges) {
      const ErrorCode code = combined.CallAs(LacksDn(missing), op.opcode);
      if (op.privilege == missing) {
        EXPECT_EQ(code, ErrorCode::kPermissionDenied)
            << op.name << " served a DN without " << gsi::PrivilegeName(missing);
      } else {
        EXPECT_NE(code, ErrorCode::kPermissionDenied)
            << op.name << " demanded " << gsi::PrivilegeName(missing);
        EXPECT_NE(code, ErrorCode::kUnsupported) << op.name;
      }
    }
    // Every call is billed to the opcode's method label.
    EXPECT_EQ(combined.server()
                  .metrics_registry()
                  ->GetCounter("rpc_requests_total", obs::Label("method", op.name))
                  ->Value(),
              std::size(kAllPrivileges))
        << op.name;
  }
}

TEST(OpcodeContractTest, MissingRoleRejectedBeforeAuthorization) {
  ContractServer lrc_only(/*lrc=*/true, /*rli=*/false);
  ContractServer rli_only(/*lrc=*/false, /*rli=*/true);
  const std::string nobody = "/CN=holds-nothing";
  for (const OpContract& op : kContract) {
    for (auto [server, absent] : {std::pair{&lrc_only, Serves::kRli},
                                  std::pair{&rli_only, Serves::kLrc}}) {
      ErrorCode expected = ErrorCode::kOk;
      if (op.role == absent) {
        expected = ErrorCode::kUnsupported;
      } else if (op.privilege) {
        expected = ErrorCode::kPermissionDenied;
      }
      EXPECT_EQ(server->CallAs(nobody, op.opcode), expected)
          << op.name << (absent == Serves::kRli ? " on an LRC" : " on an RLI");
    }
  }
}

TEST(OpcodeContractTest, AdmissionLaneAndCost) {
  // Costs are distinct powers of two and the clock never moves, so the
  // number of requests one fresh bucket admits names the cost class.
  ServerLimits limits;
  limits.per_dn_rate = 1;
  limits.per_dn_burst = 63;
  limits.privilege_cost = {1, 2, 4, 8, 16, 32};
  rlscommon::ManualClock clock;
  AdmissionController admission(limits, &clock, /*registry=*/nullptr);
  for (const OpContract& op : kContract) {
    gsi::AuthContext context;
    context.authenticated = true;
    context.dn = std::string("/CN=tenant-") + op.name;
    int admitted = 0;
    for (; admitted < 100; ++admitted) {
      const net::AdmitDecision decision = admission.Admit(context, op.opcode, "");
      if (admitted == 0) {
        EXPECT_EQ(decision.priority, op.priority) << op.name;
      }
      if (!decision.status.ok()) break;
    }
    if (op.priority) {
      EXPECT_EQ(admitted, 100) << op.name << " was charged on the priority lane";
    } else {
      const double cost =
          limits.privilege_cost[static_cast<std::size_t>(op.cost_class)];
      EXPECT_EQ(admitted, static_cast<int>(limits.per_dn_burst / cost)) << op.name;
    }
  }
}

/// True when `V` is a named enumerator of Op: the compiler spells any
/// other value in __PRETTY_FUNCTION__ as a cast, "(rls::Op)7".
template <Op V>
constexpr bool IsOpEnumerator() {
  return std::string_view(__PRETTY_FUNCTION__).find("(rls::Op)") == std::string_view::npos;
}

/// The Op enumerators among the opcodes I... .
template <std::size_t... I>
std::set<uint16_t> OpEnumerators(std::index_sequence<I...>) {
  std::set<uint16_t> out;
  ((IsOpEnumerator<static_cast<Op>(I)>() ? void(out.insert(I)) : void()), ...);
  return out;
}

TEST(MethodTableTest, OneRowPerOpcodeWithContractNameAndPrivilege) {
  std::set<uint16_t> opcodes;
  std::set<std::string_view> names;
  for (const Method& method : Methods()) {
    EXPECT_TRUE(opcodes.insert(method.opcode).second) << method.opcode;
    EXPECT_TRUE(names.insert(method.name).second) << method.name;
    EXPECT_EQ(FindMethod(method.opcode), &method);
  }
  // Every Op value has exactly one row and every row an Op value, so a
  // new opcode without its row fails here. Opcodes from 256 up are
  // unknown (RobustnessTest.UnknownOpcodesBillToOneSeries).
  EXPECT_EQ(opcodes, OpEnumerators(std::make_index_sequence<256>()));
  // The contract above covers every row.
  EXPECT_EQ(Methods().size(), std::size(kContract));
  for (const OpContract& op : kContract) {
    const Method* method = FindMethod(op.opcode);
    ASSERT_NE(method, nullptr) << op.name;
    EXPECT_EQ(method->name, op.name);
    EXPECT_EQ(method->privilege, op.privilege) << op.name;
  }
  for (uint16_t unknown : {0, 2, 3, 6, 9, 16, 65, 255, 256, 65535}) {
    EXPECT_EQ(FindMethod(unknown), nullptr) << unknown;
  }
}

}  // namespace
}  // namespace rls
