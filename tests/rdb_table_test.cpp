#include "rdb/table.h"

#include <gtest/gtest.h>

#include "rdb/database.h"

namespace rdb {
namespace {

TableSchema NameSchema(const std::string& table = "t_lfn") {
  return TableSchema(table, {
      ColumnDef{"id", ColumnType::kInt, false, true, 0},
      ColumnDef{"name", ColumnType::kVarchar, false, false, 250},
      ColumnDef{"ref", ColumnType::kInt, true, false, 0},
  });
}

Row NameRow(const std::string& name, int64_t ref = 0) {
  return {Value::Null(), Value::String(name), Value::Int(ref)};
}

class TableTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  TableTest() {
    profile_.kind = GetParam();
    table_ = std::make_unique<Table>(NameSchema(), &profile_);
    EXPECT_TRUE(table_->CreateIndex("pk", "id", IndexKind::kHash, true).ok());
    EXPECT_TRUE(table_->CreateIndex("by_name", "name", IndexKind::kHash, true).ok());
  }

  BackendProfile profile_;
  std::unique_ptr<Table> table_;
};

TEST_P(TableTest, InsertAssignsAutoIncrement) {
  Rid rid;
  int64_t id = 0;
  ASSERT_TRUE(table_->Insert(NameRow("a"), &rid, &id).ok());
  EXPECT_EQ(id, 1);
  ASSERT_TRUE(table_->Insert(NameRow("b"), &rid, &id).ok());
  EXPECT_EQ(id, 2);
  Row row;
  ASSERT_TRUE(table_->ReadRow(rid, &row).ok());
  EXPECT_EQ(row[0].AsInt(), 2);
  EXPECT_EQ(row[1].AsString(), "b");
}

TEST_P(TableTest, ExplicitIdAdvancesCounter) {
  Rid rid;
  int64_t id = 0;
  Row row = {Value::Int(100), Value::String("x"), Value::Int(0)};
  ASSERT_TRUE(table_->Insert(row, &rid, &id).ok());
  EXPECT_EQ(id, 100);
  ASSERT_TRUE(table_->Insert(NameRow("y"), &rid, &id).ok());
  EXPECT_EQ(id, 101);
}

TEST_P(TableTest, UniqueConstraintEnforced) {
  Rid rid;
  ASSERT_TRUE(table_->Insert(NameRow("dup"), &rid, nullptr).ok());
  auto s = table_->Insert(NameRow("dup"), &rid, nullptr);
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kAlreadyExists);
  EXPECT_EQ(table_->live_rows(), 1u);
}

TEST_P(TableTest, DeleteRemovesFromIndexes) {
  Rid rid;
  ASSERT_TRUE(table_->Insert(NameRow("gone"), &rid, nullptr).ok());
  ASSERT_TRUE(table_->Delete(rid).ok());
  // No LIVE row is reachable via the index. (The PostgreSQL profile may
  // still return the dead rid — callers decide visibility at the heap.)
  std::vector<Rid> rids;
  table_->FindHashIndex("name")->Lookup(Value::String("gone"), &rids);
  for (Rid r : rids) EXPECT_FALSE(table_->IsLive(r));
  EXPECT_EQ(table_->live_rows(), 0u);
  // Double delete fails cleanly.
  EXPECT_EQ(table_->Delete(rid).code(), rlscommon::ErrorCode::kNotFound);
}

TEST_P(TableTest, UpdateRewritesRowAndIndexes) {
  Rid rid;
  ASSERT_TRUE(table_->Insert(NameRow("before"), &rid, nullptr).ok());
  Row updated = {Value::Int(1), Value::String("after"), Value::Int(9)};
  Rid new_rid;
  ASSERT_TRUE(table_->Update(rid, updated, &new_rid).ok());
  std::vector<Rid> rids;
  table_->FindHashIndex("name")->Lookup(Value::String("after"), &rids);
  ASSERT_EQ(rids.size(), 1u);
  Row row;
  ASSERT_TRUE(table_->ReadRow(rids[0], &row).ok());
  EXPECT_EQ(row[2].AsInt(), 9);
  rids.clear();
  table_->FindHashIndex("name")->Lookup(Value::String("before"), &rids);
  for (Rid r : rids) EXPECT_FALSE(table_->IsLive(r));
}

TEST_P(TableTest, ValidationRejectsBadRows) {
  Rid rid;
  // Wrong arity.
  EXPECT_FALSE(table_->Insert({Value::Int(1)}, &rid, nullptr).ok());
  // NULL in NOT NULL column.
  EXPECT_FALSE(
      table_->Insert({Value::Null(), Value::Null(), Value::Int(0)}, &rid, nullptr).ok());
  // Type mismatch.
  EXPECT_FALSE(
      table_->Insert({Value::Null(), Value::Int(5), Value::Int(0)}, &rid, nullptr).ok());
  // VARCHAR overflow.
  EXPECT_FALSE(
      table_->Insert(NameRow(std::string(300, 'x')), &rid, nullptr).ok());
}

TEST_P(TableTest, VacuumPreservesLiveRows) {
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    Rid rid;
    ASSERT_TRUE(table_->Insert(NameRow("n" + std::to_string(i)), &rid, nullptr).ok());
    rids.push_back(rid);
  }
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(table_->Delete(rids[i]).ok());
  table_->Vacuum();
  EXPECT_EQ(table_->live_rows(), 50u);
  EXPECT_EQ(table_->dead_rows(), 0u);
  std::vector<Rid> found;
  table_->FindHashIndex("name")->Lookup(Value::String("n75"), &found);
  ASSERT_EQ(found.size(), 1u);
  Row row;
  ASSERT_TRUE(table_->ReadRow(found[0], &row).ok());
  EXPECT_EQ(row[1].AsString(), "n75");
}

TEST_P(TableTest, IntKeysSharingAHashStayDistinct) {
  // 2^53 and 2^53 + 1 share a double image, hence a hash: the unique
  // index on id returns both rows as candidates for either key, and the
  // table tells them apart by the heap row.
  constexpr int64_t kBig = int64_t{1} << 53;
  ASSERT_EQ(Value::Int(kBig).Hash(), Value::Int(kBig + 1).Hash());
  ASSERT_NE(Value::Int(kBig).Compare(Value::Int(kBig + 1)), 0);
  const Row a = {Value::Int(kBig), Value::String("a"), Value::Int(0)};
  const Row b = {Value::Int(kBig + 1), Value::String("b"), Value::Int(0)};
  Rid rid_a, rid;
  ASSERT_TRUE(table_->Insert(a, &rid_a, nullptr).ok());
  ASSERT_TRUE(table_->Insert(b, &rid, nullptr).ok());
  EXPECT_EQ(table_->Insert({Value::Int(kBig), Value::String("dup"), Value::Int(0)}, &rid,
                           nullptr)
                .code(),
            rlscommon::ErrorCode::kAlreadyExists);
  std::vector<Rid> rids;
  table_->FindHashIndex("id")->Lookup(Value::Int(kBig), &rids);
  EXPECT_EQ(rids.size(), 2u);

  // DeleteByValue skips the first candidate (a) and deletes b.
  ASSERT_TRUE(table_->DeleteByValue(b).ok());
  EXPECT_TRUE(table_->IsLive(rid_a));
  EXPECT_EQ(table_->live_rows(), 1u);

  // Updating c onto b's old value collides with a's hash and succeeds;
  // updating it onto a's value is a duplicate.
  Rid rid_c;
  ASSERT_TRUE(table_->Insert(NameRow("c"), &rid_c, nullptr).ok());
  Row c;
  ASSERT_TRUE(table_->ReadRow(rid_c, &c).ok());
  c[0] = Value::Int(kBig + 1);
  ASSERT_TRUE(table_->Update(rid_c, c, &rid_c).ok());
  c[0] = Value::Int(kBig);
  EXPECT_EQ(table_->Update(rid_c, c, &rid).code(), rlscommon::ErrorCode::kAlreadyExists);

  ASSERT_TRUE(table_->DeleteByValue(a).ok());
  EXPECT_FALSE(table_->IsLive(rid_a));
  ASSERT_TRUE(table_->IsLive(rid_c));
  EXPECT_EQ(table_->live_rows(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, TableTest,
                         ::testing::Values(BackendKind::kMySQL,
                                           BackendKind::kPostgreSQL),
                         [](const auto& info) {
                           return info.param == BackendKind::kMySQL ? "MySQL"
                                                                    : "PostgreSQL";
                         });

TEST(TableProfileTest, PostgresDeleteLeavesDeadTuples) {
  BackendProfile profile = BackendProfile::PostgreSQL();
  Table table(NameSchema(), &profile);
  Rid rid;
  ASSERT_TRUE(table.Insert(NameRow("a"), &rid, nullptr).ok());
  ASSERT_TRUE(table.Delete(rid).ok());
  EXPECT_EQ(table.dead_rows(), 1u);
  table.Vacuum();
  EXPECT_EQ(table.dead_rows(), 0u);
}

TEST(TableProfileTest, MySqlDeleteFreesImmediately) {
  BackendProfile profile = BackendProfile::MySQL();
  Table table(NameSchema(), &profile);
  Rid rid;
  ASSERT_TRUE(table.Insert(NameRow("a"), &rid, nullptr).ok());
  ASSERT_TRUE(table.Delete(rid).ok());
  EXPECT_EQ(table.dead_rows(), 0u);
}

TEST(DatabaseTest, CreateAndDropTables) {
  Database db("test", BackendProfile::MySQL());
  ASSERT_TRUE(db.CreateTable(NameSchema("t1")).ok());
  ASSERT_TRUE(db.CreateTable(NameSchema("t2")).ok());
  EXPECT_EQ(db.CreateTable(NameSchema("t1")).code(),
            rlscommon::ErrorCode::kAlreadyExists);
  EXPECT_NE(db.GetTable("t1"), nullptr);
  ASSERT_TRUE(db.DropTable("t1").ok());
  EXPECT_EQ(db.GetTable("t1"), nullptr);
  EXPECT_EQ(db.DropTable("missing").code(), rlscommon::ErrorCode::kNotFound);
  auto names = db.TableNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "t2");
}

TEST(DatabaseTest, VacuumCollectsDeadTuples) {
  Database db("pg", BackendProfile::PostgreSQL());
  ASSERT_TRUE(db.CreateTable(NameSchema("t")).ok());
  Table* table = db.GetTable("t");
  Rid rid;
  ASSERT_TRUE(table->Insert(NameRow("x"), &rid, nullptr).ok());
  ASSERT_TRUE(table->Delete(rid).ok());
  EXPECT_EQ(table->dead_rows(), 1u);
  ASSERT_TRUE(db.Vacuum("t").ok());
  EXPECT_EQ(table->dead_rows(), 0u);
  EXPECT_EQ(db.Vacuum("missing").code(), rlscommon::ErrorCode::kNotFound);
}

TEST(WalTest, AccountsBytesAndCommits) {
  Wal wal("");
  ASSERT_TRUE(wal.Commit("0123456789", false, {}).ok());
  ASSERT_TRUE(wal.Commit("abc", true, std::chrono::microseconds(0)).ok());
  EXPECT_EQ(wal.bytes_logged(), 13u);
  EXPECT_EQ(wal.commits(), 2u);
  EXPECT_EQ(wal.syncs(), 1u);
}

TEST(WalTest, DurablePenaltyIsCharged) {
  Wal wal("");
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(wal.Commit("x", true, std::chrono::microseconds(20000)).ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(18000));
}

TEST(WalTest, FileBackedWritesSurvive) {
  std::string path = ::testing::TempDir() + "/rls_wal_test.log";
  Wal wal(path);
  ASSERT_TRUE(wal.Commit("hello wal", true, std::chrono::microseconds(0)).ok());
  EXPECT_EQ(wal.bytes_logged(), 9u);
}

}  // namespace
}  // namespace rdb
