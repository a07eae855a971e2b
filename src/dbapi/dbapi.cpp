#include "dbapi/dbapi.h"

#include "common/strings.h"
#include "sql/parser.h"

namespace dbapi {

using rlscommon::Status;

Status ParseDsn(const std::string& dsn, rdb::BackendKind* kind, std::string* name) {
  const std::string sep = "://";
  auto pos = dsn.find(sep);
  if (pos == std::string::npos) {
    return Status::InvalidArgument("DSN must look like driver://name: " + dsn);
  }
  const std::string driver = dsn.substr(0, pos);
  *name = dsn.substr(pos + sep.size());
  if (name->empty()) return Status::InvalidArgument("empty database name in DSN " + dsn);
  if (driver == "mysql") {
    *kind = rdb::BackendKind::kMySQL;
  } else if (driver == "postgresql" || driver == "postgres") {
    *kind = rdb::BackendKind::kPostgreSQL;
  } else {
    return Status::InvalidArgument("unknown DSN driver '" + driver +
                                   "' (expected mysql or postgresql)");
  }
  return Status::Ok();
}

Environment& Environment::Global() {
  static Environment* env = new Environment();
  return *env;
}

Status Environment::CreateDatabase(const std::string& dsn, const std::string& wal_path) {
  rdb::BackendKind kind;
  std::string name;
  Status s = ParseDsn(dsn, &kind, &name);
  if (!s.ok()) return s;
  rdb::BackendProfile profile = kind == rdb::BackendKind::kPostgreSQL
                                    ? rdb::BackendProfile::PostgreSQL()
                                    : rdb::BackendProfile::MySQL();
  return CreateDatabaseWithProfile(dsn, profile, wal_path);
}

Status Environment::CreateDatabaseWithProfile(const std::string& dsn,
                                              rdb::BackendProfile profile,
                                              const std::string& wal_path,
                                              rdb::StorageFaultInjector* fault) {
  rdb::BackendKind kind;
  std::string name;
  Status s = ParseDsn(dsn, &kind, &name);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> lock(mu_);
  if (databases_.count(dsn)) {
    return Status::AlreadyExists("database already registered: " + dsn);
  }
  databases_.emplace(
      dsn, std::make_unique<rdb::Database>(name, profile, wal_path, fault));
  return Status::Ok();
}

rdb::Database* Environment::Find(const std::string& dsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = databases_.find(dsn);
  return it == databases_.end() ? nullptr : it->second.get();
}

Status Environment::DropDatabase(const std::string& dsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = databases_.find(dsn);
  if (it == databases_.end()) return Status::NotFound("no database " + dsn);
  databases_.erase(it);
  return Status::Ok();
}

Status Connection::Open(Environment& env, const std::string& dsn,
                        std::unique_ptr<Connection>* out) {
  rdb::Database* db = env.Find(dsn);
  if (!db) return Status::NotFound("no database registered for DSN " + dsn);
  out->reset(new Connection(db));
  return Status::Ok();
}

Status Connection::Execute(std::string_view sql_text,
                           const std::vector<rdb::Value>& params,
                           sql::ResultSet* result) {
  auto it = statement_cache_.find(sql_text);
  if (it == statement_cache_.end()) {
    sql::PreparedStatement prepared;
    Status s = sql::Parse(sql_text, &prepared.stmt);
    if (!s.ok()) return s;
    it = statement_cache_.emplace(std::string(sql_text), std::move(prepared)).first;
  }
  return engine_.Execute(&it->second, params, &session_, result);
}

Status Connection::Begin() {
  sql::ResultSet rs;
  return Execute("BEGIN", &rs);
}

Status Connection::Commit() {
  sql::ResultSet rs;
  return Execute("COMMIT", &rs);
}

Status Connection::Rollback() {
  sql::ResultSet rs;
  return Execute("ROLLBACK", &rs);
}

Status Connection::Vacuum(const std::string& table) {
  sql::ResultSet rs;
  return Execute(table.empty() ? std::string("VACUUM") : "VACUUM " + table, &rs);
}

}  // namespace dbapi
