// Planner behaviour, asserted through EXPLAIN: the hot RLS queries must
// run index-to-index, and fallbacks must be visible.
#include <gtest/gtest.h>

#include <algorithm>

#include "sql/engine.h"
#include "sql/parser.h"
#include "sql/plan.h"

namespace sql {
namespace {

using rdb::BackendProfile;
using rdb::Value;
using rlscommon::Status;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : db_("plan", BackendProfile::MySQL()), engine_(&db_) {
    Exec("CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
         " name VARCHAR(250) NOT NULL, ref INT)");
    Exec("CREATE UNIQUE INDEX idx_lfn_name ON t_lfn (name)");
    Exec("CREATE TABLE t_pfn (id INT AUTO_INCREMENT PRIMARY KEY,"
         " name VARCHAR(250) NOT NULL, ref INT)");
    Exec("CREATE TABLE t_map (lfn_id INT, pfn_id INT, updatetime TIMESTAMP)");
    Exec("CREATE INDEX idx_map_lfn ON t_map (lfn_id)");
    Exec("CREATE ORDERED INDEX idx_map_time ON t_map (updatetime)");
  }

  ResultSet Exec(const std::string& sql, const std::vector<Value>& params = {}) {
    ResultSet rs;
    Status s = engine_.ExecuteSql(sql, params, &session_, &rs);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return rs;
  }

  /// access_path cell for `source` in the EXPLAIN output.
  std::string PathFor(const ResultSet& rs, const std::string& source) {
    for (const rdb::Row& row : rs.rows) {
      if (row[0].AsString() == source) return row[1].AsString();
    }
    return "<missing>";
  }

  rdb::Database db_;
  Engine engine_;
  Session session_;
};

TEST_F(PlannerTest, PointLookupUsesHashIndex) {
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_lfn WHERE name = ?",
                      {Value::String("x")});
  EXPECT_EQ(PathFor(rs, "t_lfn"), "hash index on name (=)");
}

TEST_F(PlannerTest, HashLevelsKeepTheirEqualityAsAFilter) {
  // A hash index returns every rid whose key hash matches; the = filter
  // left on the level is what rejects a candidate with another key.
  Statement stmt;
  ASSERT_TRUE(Parse("SELECT t_map.pfn_id FROM t_lfn JOIN t_map ON t_lfn.id = t_map.lfn_id"
                    " WHERE t_lfn.name = ?",
                    &stmt)
                  .ok());
  Plan plan;
  ASSERT_TRUE(BuildPlan(&db_, stmt, &plan).ok());
  ASSERT_EQ(plan.levels.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    const PlanLevel& level = plan.levels[l];
    ASSERT_EQ(level.access, AccessKind::kHashEq) << l;
    const std::string key_column = l == 0 ? "name" : "lfn_id";
    const auto& columns = level.table->schema().columns();
    const bool kept = std::any_of(
        level.filters.begin(), level.filters.end(), [&](const PlanPredicate& p) {
          const PlanOperand* col = p.lhs.kind == PlanOperand::Kind::kColumn &&
                                           p.lhs.level == l
                                       ? &p.lhs
                                       : &p.rhs;
          return p.op == CmpOp::kEq && col->kind == PlanOperand::Kind::kColumn &&
                 col->level == l && columns[col->column].name == key_column;
        });
    EXPECT_TRUE(kept) << "level " << l << " lost its = " << key_column << " filter";
  }
}

TEST_F(PlannerTest, UnindexedPredicateFallsBackToScan) {
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_lfn WHERE ref = 3");
  EXPECT_EQ(PathFor(rs, "t_lfn"), "sequential scan");
}

TEST_F(PlannerTest, LrcReplicaQueryRunsIndexToIndex) {
  // The exact hot-path query: every level must avoid sequential scans
  // except t_pfn's pk probe (also an index).
  ResultSet rs = Exec(
      "EXPLAIN SELECT t_pfn.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
      " WHERE t_lfn.name = ?",
      {Value::String("x")});
  EXPECT_EQ(PathFor(rs, "t_lfn"), "hash index on name (=)");
  EXPECT_EQ(PathFor(rs, "t_map"), "hash index on lfn_id (=)");
  EXPECT_EQ(PathFor(rs, "t_pfn"), "hash index on id (=)");
}

TEST_F(PlannerTest, ExpirationDeleteShapeUsesOrderedIndex) {
  // The RLI expire thread's scan: updatetime < cutoff.
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_map WHERE updatetime < ?",
                      {Value::Timestamp(123)});
  EXPECT_EQ(PathFor(rs, "t_map"), "ordered index on updatetime (<)");
}

TEST_F(PlannerTest, JoinWithoutInnerIndexScans) {
  Exec("CREATE TABLE bare (k INT, v INT)");
  ResultSet rs = Exec(
      "EXPLAIN SELECT * FROM t_lfn JOIN bare ON t_lfn.id = bare.k"
      " WHERE t_lfn.name = 'x'");
  EXPECT_EQ(PathFor(rs, "bare"), "sequential scan");
}

TEST_F(PlannerTest, AliasesAppearInPlan) {
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_lfn AS l WHERE l.name = 'x'");
  EXPECT_EQ(PathFor(rs, "l"), "hash index on name (=)");
}

TEST_F(PlannerTest, ConstantOnLeftSideStillDrives) {
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_lfn WHERE ? = name",
                      {Value::String("x")});
  EXPECT_EQ(PathFor(rs, "t_lfn"), "hash index on name (=)");
}

TEST_F(PlannerTest, MirroredRangePredicateDoesNotDriveLessThan) {
  // "? < updatetime" means updatetime > ?, which the ordered index's
  // less-than walk cannot produce.
  ResultSet rs = Exec("EXPLAIN SELECT * FROM t_map WHERE ? < updatetime",
                      {Value::Timestamp(5)});
  EXPECT_EQ(PathFor(rs, "t_map"), "sequential scan");
  rs = Exec("EXPLAIN SELECT * FROM t_map WHERE ? > updatetime", {Value::Timestamp(5)});
  EXPECT_EQ(PathFor(rs, "t_map"), "ordered index on updatetime (<)");
  Exec("INSERT INTO t_map (lfn_id, pfn_id, updatetime) VALUES (1, 1, ?)",
       {Value::Timestamp(10)});
  EXPECT_EQ(Exec("SELECT * FROM t_map WHERE ? < updatetime", {Value::Timestamp(5)}).size(),
            1u);
  EXPECT_EQ(Exec("SELECT * FROM t_map WHERE ? > updatetime", {Value::Timestamp(5)}).size(),
            0u);
}

/// Runs one PreparedStatement repeatedly, as a connection's cache does.
class CachedPlanTest : public PlannerTest {
 protected:
  ResultSet Run(PreparedStatement* stmt, const std::vector<Value>& params = {}) {
    ResultSet rs;
    Status s = engine_.Execute(stmt, params, &session_, &rs);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return rs;
  }
  PreparedStatement Prepare(const std::string& sql) {
    PreparedStatement stmt;
    EXPECT_TRUE(Parse(sql, &stmt.stmt).ok()) << sql;
    return stmt;
  }
};

TEST_F(CachedPlanTest, CreateIndexAfterFirstRunChangesThePlan) {
  Exec("INSERT INTO t_pfn (name, ref) VALUES ('a', 1)");
  Exec("INSERT INTO t_pfn (name, ref) VALUES ('b', 1)");
  PreparedStatement explain = Prepare("EXPLAIN SELECT * FROM t_pfn WHERE name = ?");
  PreparedStatement select = Prepare("SELECT id FROM t_pfn WHERE name = ?");
  EXPECT_EQ(PathFor(Run(&explain, {Value::String("a")}), "t_pfn"), "sequential scan");
  const rdb::Table* table = db_.GetTable("t_pfn");
  const uint64_t scanned = table->stats().seq_scan_rows;
  EXPECT_EQ(Run(&select, {Value::String("b")}).at(0, 0).AsInt(), 2);
  EXPECT_EQ(table->stats().seq_scan_rows, scanned + 2);  // the scan path

  const uint64_t epoch = db_.schema_epoch();
  Exec("CREATE UNIQUE INDEX idx_pfn_name ON t_pfn (name)");
  EXPECT_GT(db_.schema_epoch(), epoch);
  EXPECT_EQ(PathFor(Run(&explain, {Value::String("a")}), "t_pfn"),
            "hash index on name (=)");
  EXPECT_EQ(Run(&select, {Value::String("b")}).at(0, 0).AsInt(), 2);
  EXPECT_EQ(table->stats().seq_scan_rows, scanned + 2);  // no scan any more
}

TEST_F(CachedPlanTest, PlanIsReusedUntilTheSchemaChanges) {
  PreparedStatement select = Prepare("SELECT id FROM t_lfn WHERE name = ?");
  Run(&select, {Value::String("x")});
  const Plan* plan = select.plan.get();
  ASSERT_NE(plan, nullptr);
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('x', 1)");  // data, not schema
  Exec("VACUUM t_lfn");
  EXPECT_EQ(Run(&select, {Value::String("x")}).size(), 1u);
  EXPECT_EQ(select.plan.get(), plan);
  Exec("CREATE TABLE unrelated (k INT)");
  Run(&select, {Value::String("x")});
  EXPECT_EQ(select.plan->schema_epoch, db_.schema_epoch());
}

TEST_F(CachedPlanTest, UnboundParameterIsInvalidArgument) {
  for (const char* sql : {"SELECT * FROM t_lfn WHERE name = ?",
                          "INSERT INTO t_lfn (name, ref) VALUES ('n', ?)",
                          "UPDATE t_lfn SET ref = ? WHERE id = 1",
                          "DELETE FROM t_lfn WHERE id = ?",
                          "SELECT * FROM t_lfn LIMIT ?",
                          "SELECT * FROM t_lfn LIMIT 1 OFFSET ?"}) {
    PreparedStatement stmt = Prepare(sql);
    ResultSet rs;
    EXPECT_EQ(engine_.Execute(&stmt, {}, &session_, &rs).code(),
              rlscommon::ErrorCode::kInvalidArgument)
        << sql;
  }
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t_lfn").at(0, 0).AsInt(), 0);
  PreparedStatement limited = Prepare("SELECT * FROM t_lfn LIMIT ?");
  ResultSet rs;
  EXPECT_EQ(engine_.Execute(&limited, {Value::Int(-1)}, &session_, &rs).code(),
            rlscommon::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace sql
