#include "rls/lrc_store.h"

#include <gtest/gtest.h>

#include <atomic>

namespace rls {
namespace {

using rlscommon::ErrorCode;

class LrcStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dsn_ = "mysql://lrcstore" + std::to_string(counter.fetch_add(1));
    ASSERT_TRUE(env_.CreateDatabase(dsn_).ok());
    ASSERT_TRUE(LrcStore::Create(env_, dsn_, &store_).ok());
  }

  dbapi::Environment env_;
  std::string dsn_;
  std::unique_ptr<LrcStore> store_;
};

TEST_F(LrcStoreTest, CreateQueryDeleteLifecycle) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("lfn1", &targets).ok());
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], "pfnA");
  ASSERT_TRUE(store_->DeleteMapping("lfn1", "pfnA").ok());
  EXPECT_EQ(store_->QueryLogical("lfn1", &targets).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(store_->LogicalExists("lfn1"));
}

TEST_F(LrcStoreTest, CreateRejectsExistingName) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  EXPECT_EQ(store_->CreateMapping("lfn1", "pfnB").code(), ErrorCode::kAlreadyExists);
}

TEST_F(LrcStoreTest, AddRequiresExistingName) {
  EXPECT_EQ(store_->AddMapping("missing", "pfnA").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  ASSERT_TRUE(store_->AddMapping("lfn1", "pfnB").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("lfn1", &targets).ok());
  EXPECT_EQ(targets.size(), 2u);
}

TEST_F(LrcStoreTest, DuplicateMappingRejected) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  EXPECT_EQ(store_->AddMapping("lfn1", "pfnA").code(), ErrorCode::kAlreadyExists);
}

TEST_F(LrcStoreTest, SharedTargetRefCounting) {
  // Two logical names replicate to the same physical file.
  ASSERT_TRUE(store_->CreateMapping("lfn1", "shared").ok());
  ASSERT_TRUE(store_->CreateMapping("lfn2", "shared").ok());
  ASSERT_TRUE(store_->DeleteMapping("lfn1", "shared").ok());
  // The shared target must survive for lfn2.
  std::vector<std::string> logicals;
  ASSERT_TRUE(store_->QueryTarget("shared", &logicals).ok());
  ASSERT_EQ(logicals.size(), 1u);
  EXPECT_EQ(logicals[0], "lfn2");
}

TEST_F(LrcStoreTest, DeleteOfMissingMappingFails) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  EXPECT_EQ(store_->DeleteMapping("lfn1", "pfnB").code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->DeleteMapping("other", "pfnA").code(), ErrorCode::kNotFound);
  // Failed delete must not have broken the existing mapping (txn rollback).
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("lfn1", &targets).ok());
  EXPECT_EQ(targets.size(), 1u);
}

TEST_F(LrcStoreTest, QueryTargetReverseLookup) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "gsiftp://site/a").ok());
  ASSERT_TRUE(store_->CreateMapping("lfn2", "gsiftp://site/a").ok());
  std::vector<std::string> logicals;
  ASSERT_TRUE(store_->QueryTarget("gsiftp://site/a", &logicals).ok());
  EXPECT_EQ(logicals.size(), 2u);
}

TEST_F(LrcStoreTest, WildcardQueries) {
  ASSERT_TRUE(store_->CreateMapping("lfn://exp/run-001/f1", "p1").ok());
  ASSERT_TRUE(store_->CreateMapping("lfn://exp/run-001/f2", "p2").ok());
  ASSERT_TRUE(store_->CreateMapping("lfn://exp/run-002/f1", "p3").ok());
  std::vector<Mapping> mappings;
  ASSERT_TRUE(store_->WildcardQuery("lfn://exp/run-001/*", 0, &mappings).ok());
  EXPECT_EQ(mappings.size(), 2u);
  ASSERT_TRUE(store_->WildcardQuery("*f1", 0, &mappings).ok());
  EXPECT_EQ(mappings.size(), 2u);
  ASSERT_TRUE(store_->WildcardQuery("lfn://exp/run-00?/f1", 1, &mappings).ok());
  EXPECT_EQ(mappings.size(), 1u);  // LIMIT applied
}

TEST_F(LrcStoreTest, WildcardPagingSharesOneCachedStatement) {
  // LIMIT/OFFSET travel as parameters: client-chosen page sizes must not
  // grow a pooled connection's statement cache.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store_->CreateMapping("lfn://page/" + std::to_string(i), "p").ok());
  }
  std::vector<Mapping> mappings;
  ASSERT_TRUE(store_->WildcardQuery("lfn://page/*", 7, &mappings, 3).ok());
  EXPECT_EQ(mappings.size(), 7u);
  auto cached = [&] {
    dbapi::ConnectionPool::Lease conn;
    EXPECT_TRUE(store_->pool().Acquire(&conn).ok());
    return conn->cached_statements();
  };
  const std::size_t before = cached();
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store_->WildcardQuery("lfn://page/*", i + 1, &mappings, i % 40).ok());
    ASSERT_EQ(mappings.size(), std::min<std::size_t>(i + 1, 30 - std::min(30u, i % 40)));
  }
  EXPECT_EQ(cached(), before);
}

TEST_F(LrcStoreTest, CountsTrackMappings) {
  EXPECT_EQ(store_->LogicalNameCount(), 0u);
  ASSERT_TRUE(store_->CreateMapping("a", "p1").ok());
  ASSERT_TRUE(store_->AddMapping("a", "p2").ok());
  ASSERT_TRUE(store_->CreateMapping("b", "p3").ok());
  EXPECT_EQ(store_->LogicalNameCount(), 2u);
  EXPECT_EQ(store_->MappingCount(), 3u);
}

TEST_F(LrcStoreTest, ChangeObserverFiresOnTransitions) {
  std::vector<std::pair<std::string, bool>> events;
  store_->SetChangeObserver([&](const std::string& lfn, bool added) {
    events.emplace_back(lfn, added);
  });
  ASSERT_TRUE(store_->CreateMapping("x", "p1").ok());   // added
  ASSERT_TRUE(store_->AddMapping("x", "p2").ok());      // no event (already present)
  ASSERT_TRUE(store_->DeleteMapping("x", "p1").ok());   // no event (still mapped)
  ASSERT_TRUE(store_->DeleteMapping("x", "p2").ok());   // removed
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(std::string("x"), true));
  EXPECT_EQ(events[1], std::make_pair(std::string("x"), false));
}

TEST_F(LrcStoreTest, AttributeLifecycle) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  ASSERT_TRUE(store_->DefineAttribute("size", AttrObject::kTarget, AttrType::kInt).ok());
  EXPECT_EQ(store_->DefineAttribute("size", AttrObject::kTarget, AttrType::kInt).code(),
            ErrorCode::kAlreadyExists);

  AttrValueRequest req;
  req.object_name = "pfnA";
  req.attr_name = "size";
  req.object = AttrObject::kTarget;
  req.value = AttrValue::Int(1 << 20);
  ASSERT_TRUE(store_->AddAttribute(req).ok());
  EXPECT_EQ(store_->AddAttribute(req).code(), ErrorCode::kAlreadyExists);

  std::vector<Attribute> attrs;
  ASSERT_TRUE(store_->QueryObjectAttributes("pfnA", AttrObject::kTarget, &attrs).ok());
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].name, "size");
  EXPECT_EQ(attrs[0].value.int_value, 1 << 20);

  req.value = AttrValue::Int(42);
  ASSERT_TRUE(store_->ModifyAttribute(req).ok());
  ASSERT_TRUE(store_->QueryObjectAttributes("pfnA", AttrObject::kTarget, &attrs).ok());
  EXPECT_EQ(attrs[0].value.int_value, 42);

  ASSERT_TRUE(store_->DeleteAttribute("pfnA", "size", AttrObject::kTarget).ok());
  ASSERT_TRUE(store_->QueryObjectAttributes("pfnA", AttrObject::kTarget, &attrs).ok());
  EXPECT_TRUE(attrs.empty());
}

TEST_F(LrcStoreTest, AttributeTypeChecking) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  ASSERT_TRUE(store_->DefineAttribute("size", AttrObject::kTarget, AttrType::kInt).ok());
  AttrValueRequest req;
  req.object_name = "pfnA";
  req.attr_name = "size";
  req.object = AttrObject::kTarget;
  req.value = AttrValue::Str("not an int");
  EXPECT_EQ(store_->AddAttribute(req).code(), ErrorCode::kInvalidArgument);
}

TEST_F(LrcStoreTest, AllFourAttributeTypes) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  struct Case {
    const char* name;
    AttrType type;
    AttrValue value;
  } cases[] = {
      {"checksum", AttrType::kString, AttrValue::Str("abc123")},
      {"size", AttrType::kInt, AttrValue::Int(99)},
      {"weight", AttrType::kFloat, AttrValue::Float(0.5)},
      {"created", AttrType::kDate, AttrValue::Date(1700000000000000)},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(store_->DefineAttribute(c.name, AttrObject::kLogical, c.type).ok());
    AttrValueRequest req;
    req.object_name = "lfn1";
    req.attr_name = c.name;
    req.object = AttrObject::kLogical;
    req.value = c.value;
    ASSERT_TRUE(store_->AddAttribute(req).ok()) << c.name;
  }
  std::vector<Attribute> attrs;
  ASSERT_TRUE(store_->QueryObjectAttributes("lfn1", AttrObject::kLogical, &attrs).ok());
  EXPECT_EQ(attrs.size(), 4u);
}

TEST_F(LrcStoreTest, AttributeSearchWithComparators) {
  ASSERT_TRUE(store_->DefineAttribute("size", AttrObject::kTarget, AttrType::kInt).ok());
  for (int i = 1; i <= 5; ++i) {
    std::string lfn = "lfn" + std::to_string(i);
    std::string pfn = "pfn" + std::to_string(i);
    ASSERT_TRUE(store_->CreateMapping(lfn, pfn).ok());
    AttrValueRequest req;
    req.object_name = pfn;
    req.attr_name = "size";
    req.object = AttrObject::kTarget;
    req.value = AttrValue::Int(i * 100);
    ASSERT_TRUE(store_->AddAttribute(req).ok());
  }
  AttrSearchRequest search;
  search.attr_name = "size";
  search.object = AttrObject::kTarget;
  search.cmp = AttrCmp::kGe;
  search.value = AttrValue::Int(300);
  std::vector<std::pair<std::string, AttrValue>> found;
  ASSERT_TRUE(store_->SearchAttribute(search, &found).ok());
  EXPECT_EQ(found.size(), 3u);  // 300, 400, 500

  search.cmp = AttrCmp::kEq;
  ASSERT_TRUE(store_->SearchAttribute(search, &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].first, "pfn3");
}

TEST_F(LrcStoreTest, UndefineRemovesValues) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  ASSERT_TRUE(
      store_->DefineAttribute("tag", AttrObject::kLogical, AttrType::kString).ok());
  AttrValueRequest req;
  req.object_name = "lfn1";
  req.attr_name = "tag";
  req.object = AttrObject::kLogical;
  req.value = AttrValue::Str("v");
  ASSERT_TRUE(store_->AddAttribute(req).ok());
  ASSERT_TRUE(store_->UndefineAttribute("tag", AttrObject::kLogical).ok());
  std::vector<Attribute> attrs;
  ASSERT_TRUE(store_->QueryObjectAttributes("lfn1", AttrObject::kLogical, &attrs).ok());
  EXPECT_TRUE(attrs.empty());
  EXPECT_EQ(store_->UndefineAttribute("tag", AttrObject::kLogical).code(),
            ErrorCode::kNotFound);
}

TEST_F(LrcStoreTest, DeletingLastMappingCleansAttributes) {
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnA").ok());
  ASSERT_TRUE(
      store_->DefineAttribute("tag", AttrObject::kLogical, AttrType::kString).ok());
  AttrValueRequest req;
  req.object_name = "lfn1";
  req.attr_name = "tag";
  req.object = AttrObject::kLogical;
  req.value = AttrValue::Str("v");
  ASSERT_TRUE(store_->AddAttribute(req).ok());
  ASSERT_TRUE(store_->DeleteMapping("lfn1", "pfnA").ok());
  // Re-registering the same name must start with a clean attribute slate.
  ASSERT_TRUE(store_->CreateMapping("lfn1", "pfnB").ok());
  std::vector<Attribute> attrs;
  ASSERT_TRUE(store_->QueryObjectAttributes("lfn1", AttrObject::kLogical, &attrs).ok());
  EXPECT_TRUE(attrs.empty());
}

TEST_F(LrcStoreTest, RliUpdateListManagement) {
  ASSERT_TRUE(store_->AddRli("rli://a").ok());
  ASSERT_TRUE(store_->AddRli("rli://b").ok());
  std::vector<std::string> rlis;
  ASSERT_TRUE(store_->ListRlis(&rlis).ok());
  EXPECT_EQ(rlis.size(), 2u);
  ASSERT_TRUE(store_->AddPartition("rli://a", "lfn://exp1/*").ok());
  std::vector<std::pair<std::string, std::string>> partitions;
  ASSERT_TRUE(store_->ListPartitions(&partitions).ok());
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].first, "rli://a");
  ASSERT_TRUE(store_->RemoveRli("rli://a").ok());
  ASSERT_TRUE(store_->ListRlis(&rlis).ok());
  ASSERT_EQ(rlis.size(), 1u);
  EXPECT_EQ(rlis[0], "rli://b");
  // Partition rows for the removed RLI must be gone too.
  ASSERT_TRUE(store_->ListPartitions(&partitions).ok());
  EXPECT_TRUE(partitions.empty());
  EXPECT_EQ(store_->RemoveRli("rli://a").code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->AddPartition("rli://zzz", "p").code(), ErrorCode::kNotFound);
}

TEST_F(LrcStoreTest, ForEachLogicalNameChunks) {
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(store_->CreateMapping("n" + std::to_string(i), "p" + std::to_string(i)).ok());
  }
  std::size_t chunks = 0, names = 0;
  ASSERT_TRUE(store_
                  ->ForEachLogicalName(10,
                                       [&](const std::vector<std::string>& chunk) {
                                         ++chunks;
                                         names += chunk.size();
                                         EXPECT_LE(chunk.size(), 10u);
                                       })
                  .ok());
  EXPECT_EQ(chunks, 3u);
  EXPECT_EQ(names, 25u);
}

// --- batched mapping management (bulk RPC write path) ---

TEST_F(LrcStoreTest, BulkCreateIsOneWalTransaction) {
  const uint64_t commits_before = store_->database()->wal().commits();
  std::vector<Mapping> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({"bulk" + std::to_string(i), "pfn" + std::to_string(i)});
  }
  BulkStatusResponse result;
  ASSERT_TRUE(store_->CreateMappings(batch, &result).ok());
  EXPECT_EQ(result.succeeded, 5u);
  EXPECT_TRUE(result.failures.empty());
  // The whole batch coalesces into ONE logged transaction — the point
  // of the bulk path (one append + one sync instead of five).
  EXPECT_EQ(store_->database()->wal().commits(), commits_before + 1);
  std::vector<std::string> targets;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_->QueryLogical("bulk" + std::to_string(i), &targets).ok());
    EXPECT_EQ(targets, std::vector<std::string>{"pfn" + std::to_string(i)});
  }
}

TEST_F(LrcStoreTest, BulkCreatePartialFailureKeepsSurvivors) {
  ASSERT_TRUE(store_->CreateMapping("taken", "p0").ok());
  // Item 1 collides with existing state, item 3 with item 0 INSIDE the
  // same uncommitted batch (savepoint visibility).
  const std::vector<Mapping> batch = {
      {"a", "p1"}, {"taken", "px"}, {"b", "p2"}, {"a", "p3"}};
  BulkStatusResponse result;
  ASSERT_TRUE(store_->CreateMappings(batch, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].index, 1u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(result.failures[1].index, 3u);
  EXPECT_EQ(result.failures[1].code, ErrorCode::kAlreadyExists);
  // Failed items rolled back to their savepoints; survivors committed.
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("a", &targets).ok());
  EXPECT_EQ(targets, std::vector<std::string>{"p1"});
  ASSERT_TRUE(store_->QueryLogical("b", &targets).ok());
  EXPECT_EQ(targets, std::vector<std::string>{"p2"});
  ASSERT_TRUE(store_->QueryLogical("taken", &targets).ok());
  EXPECT_EQ(targets, std::vector<std::string>{"p0"});
}

TEST_F(LrcStoreTest, BulkAddRequiresExistingNamesPerItem) {
  ASSERT_TRUE(store_->CreateMapping("base", "p0").ok());
  BulkStatusResponse result;
  ASSERT_TRUE(
      store_->AddMappings({{"base", "p1"}, {"missing", "p2"}}, &result).ok());
  EXPECT_EQ(result.succeeded, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 1u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kNotFound);
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("base", &targets).ok());
  EXPECT_EQ(targets.size(), 2u);
  EXPECT_FALSE(store_->LogicalExists("missing"));
}

TEST_F(LrcStoreTest, BulkDeleteReportsMissingMappings) {
  ASSERT_TRUE(store_->CreateMapping("x", "p1").ok());
  ASSERT_TRUE(store_->AddMapping("x", "p2").ok());
  ASSERT_TRUE(store_->CreateMapping("y", "p1").ok());
  BulkStatusResponse result;
  ASSERT_TRUE(
      store_->DeleteMappings({{"x", "p1"}, {"x", "nope"}, {"y", "p1"}}, &result)
          .ok());
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 1u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kNotFound);
  std::vector<std::string> targets;
  ASSERT_TRUE(store_->QueryLogical("x", &targets).ok());
  EXPECT_EQ(targets, std::vector<std::string>{"p2"});
  EXPECT_FALSE(store_->LogicalExists("y"));
}

TEST_F(LrcStoreTest, BulkOperationsFireChangeObserverPerTransition) {
  std::vector<std::pair<std::string, bool>> events;
  store_->SetChangeObserver([&](const std::string& lfn, bool added) {
    events.emplace_back(lfn, added);
  });
  BulkStatusResponse result;
  ASSERT_TRUE(store_->CreateMappings({{"m1", "p"}, {"m2", "p"}}, &result).ok());
  ASSERT_TRUE(store_->DeleteMappings({{"m1", "p"}, {"m2", "p"}}, &result).ok());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], std::make_pair(std::string("m1"), true));
  EXPECT_EQ(events[1], std::make_pair(std::string("m2"), true));
  EXPECT_EQ(events[2], std::make_pair(std::string("m1"), false));
  EXPECT_EQ(events[3], std::make_pair(std::string("m2"), false));
}

TEST_F(LrcStoreTest, EmptyBulkBatchIsANoOp) {
  const uint64_t commits_before = store_->database()->wal().commits();
  BulkStatusResponse result;
  ASSERT_TRUE(store_->CreateMappings({}, &result).ok());
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(store_->database()->wal().commits(), commits_before);
}

}  // namespace
}  // namespace rls
