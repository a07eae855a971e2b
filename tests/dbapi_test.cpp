#include "dbapi/dbapi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dbapi/pool.h"

namespace dbapi {
namespace {

using rdb::BackendKind;
using rdb::Value;
using rlscommon::ErrorCode;
using sql::ResultSet;

TEST(DsnTest, ParsesDrivers) {
  BackendKind kind;
  std::string name;
  ASSERT_TRUE(ParseDsn("mysql://lrc0", &kind, &name).ok());
  EXPECT_EQ(kind, BackendKind::kMySQL);
  EXPECT_EQ(name, "lrc0");
  ASSERT_TRUE(ParseDsn("postgresql://pg1", &kind, &name).ok());
  EXPECT_EQ(kind, BackendKind::kPostgreSQL);
  ASSERT_TRUE(ParseDsn("postgres://pg2", &kind, &name).ok());
  EXPECT_EQ(kind, BackendKind::kPostgreSQL);
}

TEST(DsnTest, RejectsMalformed) {
  BackendKind kind;
  std::string name;
  EXPECT_FALSE(ParseDsn("no-scheme", &kind, &name).ok());
  EXPECT_FALSE(ParseDsn("oracle://db", &kind, &name).ok());
  EXPECT_FALSE(ParseDsn("mysql://", &kind, &name).ok());
}

TEST(EnvironmentTest, RegisterAndConnect) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://envtest").ok());
  EXPECT_EQ(env.CreateDatabase("mysql://envtest").code(), ErrorCode::kAlreadyExists);
  EXPECT_NE(env.Find("mysql://envtest"), nullptr);
  EXPECT_EQ(env.Find("mysql://missing"), nullptr);

  std::unique_ptr<Connection> conn;
  ASSERT_TRUE(Connection::Open(env, "mysql://envtest", &conn).ok());
  EXPECT_FALSE(Connection::Open(env, "mysql://missing", &conn).ok());
}

TEST(EnvironmentTest, DriverSelectsProfile) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://m").ok());
  ASSERT_TRUE(env.CreateDatabase("postgresql://p").ok());
  EXPECT_EQ(env.Find("mysql://m")->profile().kind, BackendKind::kMySQL);
  EXPECT_EQ(env.Find("postgresql://p")->profile().kind, BackendKind::kPostgreSQL);
}

TEST(EnvironmentTest, DropDatabase) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://gone").ok());
  ASSERT_TRUE(env.DropDatabase("mysql://gone").ok());
  EXPECT_EQ(env.Find("mysql://gone"), nullptr);
  EXPECT_EQ(env.DropDatabase("mysql://gone").code(), ErrorCode::kNotFound);
}

class ConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.CreateDatabase("mysql://conn").ok());
    ASSERT_TRUE(Connection::Open(env_, "mysql://conn", &conn_).ok());
    ResultSet rs;
    ASSERT_TRUE(conn_->Execute("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY,"
                               " v VARCHAR(50))",
                               &rs)
                    .ok());
  }

  Environment env_;
  std::unique_ptr<Connection> conn_;
};

TEST_F(ConnectionTest, ExecuteAndLastInsertId) {
  ResultSet rs;
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES ('x')", &rs).ok());
  EXPECT_EQ(conn_->LastInsertId(), 1);
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES ('y')", &rs).ok());
  EXPECT_EQ(conn_->LastInsertId(), 2);
}

TEST_F(ConnectionTest, StatementCacheReusesParse) {
  // Same SQL text with different params must work repeatedly (cache hit).
  ResultSet rs;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES (?)",
                               {Value::String("v" + std::to_string(i))}, &rs)
                    .ok());
  }
  ASSERT_TRUE(conn_->Execute("SELECT COUNT(*) FROM t", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 100);
}

TEST_F(ConnectionTest, StatementCacheKeysOnText) {
  ResultSet rs;
  const std::size_t before = conn_->cached_statements();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conn_->Execute("SELECT v FROM t WHERE id = ?", {Value::Int(i)}, &rs).ok());
  }
  EXPECT_EQ(conn_->cached_statements(), before + 1);
  const std::string text = "SELECT v FROM t WHERE id = ?";  // same text, new storage
  ASSERT_TRUE(conn_->Execute(text, {Value::Int(1)}, &rs).ok());
  EXPECT_EQ(conn_->cached_statements(), before + 1);
}

TEST_F(ConnectionTest, DropAndRecreateTableReplansCachedStatements) {
  // The cached plans hold Table pointers; DROP TABLE must not leave them
  // dangling (ASan would see the use after free) and the recreated table,
  // with a different shape and an index, must be used.
  ResultSet rs;
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES (?)", {Value::String("old")}, &rs).ok());
  ASSERT_TRUE(conn_->Execute("SELECT v FROM t WHERE v = ?", {Value::String("old")}, &rs).ok());
  ASSERT_EQ(rs.size(), 1u);
  ASSERT_TRUE(conn_->Execute("EXPLAIN SELECT v FROM t WHERE v = ?", {Value::String("x")}, &rs)
                  .ok());
  EXPECT_EQ(rs.at(0, 1).AsString(), "sequential scan");

  ASSERT_TRUE(conn_->Execute("DROP TABLE t", &rs).ok());
  EXPECT_EQ(conn_->Execute("SELECT v FROM t WHERE v = ?", {Value::String("old")}, &rs).code(),
            ErrorCode::kDatabase);
  ASSERT_TRUE(conn_->Execute("CREATE TABLE t (pad INT, v VARCHAR(50), id INT)", &rs).ok());
  ASSERT_TRUE(conn_->Execute("CREATE INDEX idx_v ON t (v)", &rs).ok());
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES (?)", {Value::String("new")}, &rs).ok());
  ASSERT_TRUE(conn_->Execute("SELECT v FROM t WHERE v = ?", {Value::String("new")}, &rs).ok());
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "new");
  ASSERT_TRUE(conn_->Execute("SELECT v FROM t WHERE v = ?", {Value::String("old")}, &rs).ok());
  EXPECT_TRUE(rs.empty());
  ASSERT_TRUE(conn_->Execute("EXPLAIN SELECT v FROM t WHERE v = ?", {Value::String("x")}, &rs)
                  .ok());
  EXPECT_EQ(rs.at(0, 1).AsString(), "hash index on v (=)");
}

TEST(ConnectionConcurrencyTest, SameStatementOnTwoConnections) {
  // Each connection owns its plan and scratch; the same text running on
  // two threads at once shares only the tables (TSan-checked in CI).
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://twoconn").ok());
  std::unique_ptr<Connection> a, b;
  ASSERT_TRUE(Connection::Open(env, "mysql://twoconn", &a).ok());
  ASSERT_TRUE(Connection::Open(env, "mysql://twoconn", &b).ok());
  ResultSet rs;
  ASSERT_TRUE(a->Execute("CREATE TABLE kv (k INT, v INT)", &rs).ok());
  ASSERT_TRUE(a->Execute("CREATE INDEX idx_k ON kv (k)", &rs).ok());
  std::atomic<int> failures{0};
  auto worker = [&](Connection* conn, int base) {
    ResultSet out;
    for (int i = 0; i < 300; ++i) {
      if (!conn->Execute("INSERT INTO kv (k, v) VALUES (?, ?)",
                         {Value::Int(base + i), Value::Int(i)}, &out)
               .ok()) {
        ++failures;
      }
      if (!conn->Execute("SELECT v FROM kv WHERE k = ?", {Value::Int(base + i)}, &out).ok() ||
          out.size() != 1 || out.at(0, 0).AsInt() != i) {
        ++failures;
      }
    }
  };
  std::thread ta(worker, a.get(), 0), tb(worker, b.get(), 1000);
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(a->Execute("SELECT COUNT(*) FROM kv", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 600);
}

TEST_F(ConnectionTest, TransactionHelpers) {
  ResultSet rs;
  ASSERT_TRUE(conn_->Begin().ok());
  EXPECT_TRUE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES ('tx')", &rs).ok());
  ASSERT_TRUE(conn_->Rollback().ok());
  EXPECT_FALSE(conn_->in_transaction());
  ASSERT_TRUE(conn_->Execute("SELECT COUNT(*) FROM t", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 0);
}

TEST_F(ConnectionTest, VacuumHelper) {
  ResultSet rs;
  ASSERT_TRUE(conn_->Execute("INSERT INTO t (v) VALUES ('a')", &rs).ok());
  EXPECT_TRUE(conn_->Vacuum("t").ok());
  EXPECT_TRUE(conn_->Vacuum().ok());
  ASSERT_TRUE(conn_->Execute("SELECT COUNT(*) FROM t", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 1);
}

TEST_F(ConnectionTest, DurableFlushToggle) {
  conn_->SetDurableFlush(true);
  EXPECT_TRUE(conn_->database()->durable_flush());
  conn_->SetDurableFlush(false);
  EXPECT_FALSE(conn_->database()->durable_flush());
}

TEST(PoolTest, LeaseAndReuse) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://pool").ok());
  ConnectionPool pool(env, "mysql://pool");
  {
    ConnectionPool::Lease lease;
    ASSERT_TRUE(pool.Acquire(&lease).ok());
    ASSERT_TRUE(lease.valid());
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  ConnectionPool::Lease again;
  ASSERT_TRUE(pool.Acquire(&again).ok());
  EXPECT_EQ(pool.idle_count(), 0u);  // reused, not recreated
}

TEST(PoolTest, AbandonedTransactionIsRolledBack) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://pooltx").ok());
  ConnectionPool pool(env, "mysql://pooltx");
  {
    ConnectionPool::Lease lease;
    ASSERT_TRUE(pool.Acquire(&lease).ok());
    sql::ResultSet rs;
    ASSERT_TRUE(lease->Execute("CREATE TABLE t (id INT)", &rs).ok());
    ASSERT_TRUE(lease->Begin().ok());
    ASSERT_TRUE(lease->Execute("INSERT INTO t (id) VALUES (1)", &rs).ok());
    // Lease dropped mid-transaction.
  }
  ConnectionPool::Lease lease;
  ASSERT_TRUE(pool.Acquire(&lease).ok());
  EXPECT_FALSE(lease->in_transaction());
  sql::ResultSet rs;
  ASSERT_TRUE(lease->Execute("SELECT COUNT(*) FROM t", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 0);
}

TEST(PoolTest, ConcurrentLeases) {
  Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://poolmt").ok());
  {
    ConnectionPool setup_pool(env, "mysql://poolmt");
    ConnectionPool::Lease lease;
    ASSERT_TRUE(setup_pool.Acquire(&lease).ok());
    sql::ResultSet rs;
    ASSERT_TRUE(lease->Execute("CREATE TABLE c (id INT AUTO_INCREMENT PRIMARY KEY,"
                               " v INT)",
                               &rs)
                    .ok());
  }
  ConnectionPool pool(env, "mysql://poolmt");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        ConnectionPool::Lease lease;
        if (!pool.Acquire(&lease).ok()) {
          ++failures;
          continue;
        }
        sql::ResultSet rs;
        if (!lease->Execute("INSERT INTO c (v) VALUES (1)", &rs).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ConnectionPool::Lease lease;
  ASSERT_TRUE(pool.Acquire(&lease).ok());
  sql::ResultSet rs;
  ASSERT_TRUE(lease->Execute("SELECT COUNT(*) FROM c", &rs).ok());
  EXPECT_EQ(rs.at(0, 0).AsInt(), 400);
}

}  // namespace
}  // namespace dbapi
