#include "rdb/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rdb/table.h"

namespace rdb {
namespace {

Rid R(uint32_t page, uint16_t slot) { return Rid{page, slot}; }

TEST(HashIndexTest, InsertLookup) {
  HashIndex index(IndexDeleteMode::kErase);
  index.Insert(Value::String("a"), R(0, 0));
  index.Insert(Value::String("b"), R(0, 1));
  std::vector<Rid> rids;
  index.Lookup(Value::String("a"), &rids);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], R(0, 0));
}

TEST(HashIndexTest, MultimapSemantics) {
  HashIndex index(IndexDeleteMode::kErase);
  index.Insert(Value::Int(7), R(0, 0));
  index.Insert(Value::Int(7), R(0, 1));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(7), &rids);
  EXPECT_EQ(rids.size(), 2u);
}

TEST(HashIndexTest, UniqueRejectsDuplicates) {
  // The index holds no keys, so its table enforces a unique hash index
  // by comparing the candidates' heap rows.
  BackendProfile profile;
  Table table(TableSchema("t", {ColumnDef{"key", ColumnType::kVarchar, false, false, 50}}),
              &profile);
  ASSERT_TRUE(table.CreateIndex("by_key", "key", IndexKind::kHash, /*unique=*/true).ok());
  Rid first, rid;
  EXPECT_TRUE(table.Insert({Value::String("key")}, &first, nullptr).ok());
  EXPECT_EQ(table.Insert({Value::String("key")}, &rid, nullptr).code(),
            rlscommon::ErrorCode::kAlreadyExists);
  // After erasing, the key becomes insertable again.
  ASSERT_TRUE(table.Delete(first).ok());
  EXPECT_TRUE(table.Insert({Value::String("key")}, &rid, nullptr).ok());
}

TEST(HashIndexTest, EraseModeRemovesEntries) {
  HashIndex index(IndexDeleteMode::kErase);
  for (int i = 0; i < 1000; ++i) index.Insert(Value::Int(i), R(0, i % 100));
  for (int i = 0; i < 1000; ++i) index.Erase(Value::Int(i), R(0, i % 100));
  EXPECT_EQ(index.stats().live_entries, 0u);
  EXPECT_EQ(index.stats().tombstones, 0u);
}

TEST(HashIndexTest, TombstoneModeAccumulatesDead) {
  HashIndex index(IndexDeleteMode::kTombstone);
  for (int i = 0; i < 1000; ++i) index.Insert(Value::Int(i), R(0, 0));
  for (int i = 0; i < 1000; ++i) index.Erase(Value::Int(i), R(0, 0));
  EXPECT_EQ(index.stats().live_entries, 0u);
  EXPECT_EQ(index.stats().tombstones, 1000u);
  // Like a PostgreSQL index: dead entries are still RETURNED — only the
  // heap fetch (visibility check) reveals they are deleted. That fetch
  // is the cost the Fig. 8 saw-tooth measures.
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(HashIndexTest, EraseModeReturnsNoDeadEntries) {
  HashIndex index(IndexDeleteMode::kErase);
  index.Insert(Value::Int(5), R(0, 0));
  index.Erase(Value::Int(5), R(0, 0));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  EXPECT_TRUE(rids.empty());
}

TEST(HashIndexTest, TombstonesSlowProbes) {
  // The Fig. 8 mechanism: churn on the same keys lengthens bucket chains
  // under the PostgreSQL delete mode.
  HashIndex pg(IndexDeleteMode::kTombstone);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 200; ++i) pg.Insert(Value::Int(i), R(0, 0));
    for (int i = 0; i < 200; ++i) pg.Erase(Value::Int(i), R(0, 0));
  }
  // Measure probe work for one lookup burst.
  const uint64_t steps_before = pg.stats().probe_steps;
  std::vector<Rid> rids;
  for (int i = 0; i < 200; ++i) pg.Lookup(Value::Int(i), &rids);
  const uint64_t pg_steps = pg.stats().probe_steps - steps_before;

  HashIndex my(IndexDeleteMode::kErase);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 200; ++i) my.Insert(Value::Int(i), R(0, 0));
    for (int i = 0; i < 200; ++i) my.Erase(Value::Int(i), R(0, 0));
  }
  const uint64_t my_before = my.stats().probe_steps;
  for (int i = 0; i < 200; ++i) my.Lookup(Value::Int(i), &rids);
  const uint64_t my_steps = my.stats().probe_steps - my_before;

  EXPECT_GT(pg_steps, my_steps * 5) << "tombstones must dominate probe cost";
}

TEST(HashIndexTest, ClearDropsTombstones) {
  HashIndex index(IndexDeleteMode::kTombstone);
  for (int i = 0; i < 100; ++i) index.Insert(Value::Int(i), R(0, 0));
  for (int i = 0; i < 100; ++i) index.Erase(Value::Int(i), R(0, 0));
  index.Clear();  // VACUUM rebuild path
  EXPECT_EQ(index.stats().tombstones, 0u);
  index.Insert(Value::Int(1), R(0, 0));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(1), &rids);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(HashIndexTest, GrowthKeepsLookupsCorrect) {
  HashIndex index(IndexDeleteMode::kErase, 16);
  for (int i = 0; i < 10000; ++i) index.Insert(Value::Int(i), R(0, i % 1000));
  EXPECT_GT(index.bucket_count(), 16u);
  std::vector<Rid> rids;
  for (int i = 0; i < 10000; i += 97) {
    rids.clear();
    index.Lookup(Value::Int(i), &rids);
    ASSERT_EQ(rids.size(), 1u) << i;
    EXPECT_EQ(rids[0], R(0, i % 1000));
  }
}

TEST(HashIndexTest, EraseMissingIsNoop) {
  HashIndex index(IndexDeleteMode::kErase);
  index.Insert(Value::Int(1), R(0, 0));
  index.Erase(Value::Int(2), R(0, 0));    // wrong key
  index.Erase(Value::Int(1), R(0, 99));   // wrong rid
  std::vector<Rid> rids;
  index.Lookup(Value::Int(1), &rids);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(HashIndexTest, NumericKeysCrossTypeConsistent) {
  // Int(3) and Double(3.0) compare equal, so they must collide in the index.
  HashIndex index(IndexDeleteMode::kErase);
  index.Insert(Value::Int(3), R(0, 0));
  std::vector<Rid> rids;
  index.Lookup(Value::Double(3.0), &rids);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(HashIndexTest, EraseUnderOneKeyIsLinear) {
  // Every t_map row of one LRC shares its lrc_id key at the RLI. Erasing
  // all N entries of such a key, in the order a soft-state refresh does,
  // must cost O(N) probe steps in total, not O(N^2).
  constexpr int kEntries = 20000;
  for (IndexDeleteMode mode : {IndexDeleteMode::kErase, IndexDeleteMode::kTombstone}) {
    HashIndex index(mode);
    for (int i = 0; i < kEntries; ++i) {
      index.Insert(Value::Int(7), R(static_cast<uint32_t>(i / 100), i % 100));
    }
    const uint64_t before = index.stats().probe_steps;
    for (int i = 0; i < kEntries; ++i) {
      index.Erase(Value::Int(7), R(static_cast<uint32_t>(i / 100), i % 100));
    }
    EXPECT_LE(index.stats().probe_steps - before, 4u * kEntries);
    EXPECT_EQ(index.stats().live_entries, 0u);
    std::vector<Rid> rids;
    index.Lookup(Value::Int(7), &rids);
    EXPECT_EQ(rids.size(), mode == IndexDeleteMode::kTombstone ? 20000u : 0u);
  }
}

TEST(HashIndexTest, EraseHintsSurviveInterleavedInsertsAndDuplicateRids) {
  // Refresh pattern: erase the oldest entry of a long key, re-insert it
  // under a new rid. Duplicate rids (same rid under two keys that share a
  // bucket) fall back to the chain scan and stay correct.
  HashIndex index(IndexDeleteMode::kErase);
  for (uint16_t i = 0; i < 100; ++i) index.Insert(Value::Int(1), R(0, i));
  index.Insert(Value::Int(1), R(0, 5));  // duplicate rid under the same key
  for (uint16_t i = 0; i < 100; ++i) {
    index.Erase(Value::Int(1), R(0, i));
    index.Insert(Value::Int(1), R(1, i));
  }
  std::vector<Rid> rids;
  index.Lookup(Value::Int(1), &rids);
  ASSERT_EQ(rids.size(), 101u);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids.front(), R(0, 5));
  EXPECT_EQ(rids[1], R(1, 0));
  index.Erase(Value::Int(1), R(0, 5));
  rids.clear();
  index.Lookup(Value::Int(1), &rids);
  EXPECT_EQ(rids.size(), 100u);
  // Shrink below the hinted length, grow back, and erase everything.
  for (uint16_t i = 0; i < 90; ++i) index.Erase(Value::Int(1), R(1, i));
  for (uint16_t i = 0; i < 90; ++i) index.Insert(Value::Int(1), R(2, i));
  for (uint16_t i = 90; i < 100; ++i) index.Erase(Value::Int(1), R(1, i));
  for (uint16_t i = 0; i < 90; ++i) index.Erase(Value::Int(1), R(2, i));
  EXPECT_EQ(index.stats().live_entries, 0u);
}

TEST(HashIndexTest, MatchesMultimapOracle) {
  // Seeded random inserts, erases (present and absent) and lookups from
  // 16 buckets through several growths, against a std::multimap of
  // (hash -> rid): Lookup must return exactly the rids whose hash
  // matches. Key 7 takes a third of the inserts, so its chain is long
  // and erases under it go through the hints. Keys 2^53 and 2^53 + 1
  // share a hash.
  constexpr int64_t kBig = int64_t{1} << 53;
  const std::vector<Value> keys = {Value::Int(7),        Value::Int(kBig),
                                   Value::Int(kBig + 1), Value::String("a"),
                                   Value::Int(-3),       Value::Double(2.5)};
  auto sorted = [](std::vector<Rid> rids) {
    std::sort(rids.begin(), rids.end());
    return rids;
  };
  for (IndexDeleteMode mode : {IndexDeleteMode::kErase, IndexDeleteMode::kTombstone}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", mode " +
                   std::to_string(static_cast<int>(mode)));
      rlscommon::Xoshiro256 rng(seed);
      HashIndex index(mode, 16);
      std::multimap<uint64_t, Rid> live, dead;
      std::vector<std::pair<Value, Rid>> present;  // erase candidates
      uint32_t next_rid = 0;
      auto key_for = [&](uint64_t n) -> Value {
        if (rng.Below(3) == 0) return keys[0];
        if (n % 5 == 0) return keys[rng.Below(keys.size())];
        return Value::Int(static_cast<int64_t>(100 + rng.Below(4000)));
      };
      auto check = [&](const Value& key) {
        std::vector<Rid> want;
        for (auto* m : {&live, &dead}) {
          auto [lo, hi] = m->equal_range(key.Hash());
          for (auto it = lo; it != hi; ++it) want.push_back(it->second);
        }
        std::vector<Rid> got;
        index.Lookup(key, &got);
        ASSERT_EQ(sorted(got), sorted(want)) << key.ToString();
      };
      for (uint64_t op = 0; op < 12000 && !HasFatalFailure(); ++op) {
        const uint64_t dice = rng.Below(10);
        if (dice < 5 || present.empty()) {
          Value key = key_for(op);
          const Rid rid = R(next_rid / 1000, static_cast<uint16_t>(next_rid % 1000));
          ++next_rid;
          index.Insert(key, rid);
          live.emplace(key.Hash(), rid);
          present.emplace_back(std::move(key), rid);
        } else if (dice < 8) {
          const std::size_t pick = rng.Below(present.size());
          std::swap(present[pick], present.back());
          const auto [key, rid] = present.back();
          present.pop_back();
          index.Erase(key, rid);
          auto [lo, hi] = live.equal_range(key.Hash());
          auto it = std::find_if(lo, hi, [&](const auto& e) { return e.second == rid; });
          ASSERT_NE(it, hi);
          if (mode == IndexDeleteMode::kTombstone) dead.emplace(*it);
          live.erase(it);
        } else if (dice < 9) {
          index.Erase(key_for(op), R(9999, 0));  // absent: no-op
        } else {
          check(key_for(op));
        }
      }
      EXPECT_GT(index.bucket_count(), 256u);
      EXPECT_EQ(index.stats().live_entries, live.size());
      EXPECT_EQ(index.stats().tombstones, dead.size());
      for (const Value& key : keys) check(key);
      for (int64_t k = 100; k < 4100 && !HasFatalFailure(); ++k) check(Value::Int(k));
    }
  }
}

TEST(OrderedIndexTest, EraseAmongEqualKeys) {
  // After a soft-state refresh every t_map row holds the same updatetime.
  OrderedIndex index;
  for (uint16_t i = 0; i < 1000; ++i) index.Insert(Value::Timestamp(9), R(0, i));
  for (uint16_t i = 0; i < 1000; i += 2) index.Erase(Value::Timestamp(9), R(0, i));
  index.Erase(Value::Timestamp(9), R(7, 7));  // absent: no-op
  std::vector<Rid> rids;
  index.Lookup(Value::Timestamp(9), &rids);
  ASSERT_EQ(rids.size(), 500u);
  for (const Rid& rid : rids) EXPECT_EQ(rid.slot % 2, 1);
  EXPECT_EQ(index.size(), 500u);
}

TEST(OrderedIndexTest, RangeQueries) {
  OrderedIndex index;
  for (int i = 0; i < 100; ++i) index.Insert(Value::Timestamp(i * 10), R(0, i));
  std::vector<Rid> rids;
  index.LookupLess(Value::Timestamp(50), &rids);
  EXPECT_EQ(rids.size(), 5u);  // 0,10,20,30,40
  rids.clear();
  index.LookupRange(Value::Timestamp(30), Value::Timestamp(60), &rids);
  EXPECT_EQ(rids.size(), 4u);  // 30,40,50,60
}

TEST(OrderedIndexTest, EqualKeyLookup) {
  OrderedIndex index;
  index.Insert(Value::Int(5), R(0, 0));
  index.Insert(Value::Int(5), R(0, 1));
  index.Insert(Value::Int(6), R(0, 2));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  EXPECT_EQ(rids.size(), 2u);
}

TEST(OrderedIndexTest, EraseSpecificEntry) {
  OrderedIndex index;
  index.Insert(Value::Int(5), R(0, 0));
  index.Insert(Value::Int(5), R(0, 1));
  index.Erase(Value::Int(5), R(0, 0));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], R(0, 1));
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Double(9.5).Compare(Value::String("a")), 0);  // numbers < strings
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  const Value values[] = {Value::Null(), Value::Int(-42), Value::Double(3.25),
                          Value::String("hello"), Value::Timestamp(123456789)};
  for (const Value& v : values) {
    std::string bytes;
    v.Encode(&bytes);
    std::string_view view = bytes;
    Value decoded;
    ASSERT_TRUE(Value::Decode(&view, &decoded).ok());
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(decoded.Compare(v), 0);
    EXPECT_EQ(decoded.is_timestamp(), v.is_timestamp());
  }
}

}  // namespace
}  // namespace rdb
