// Micro-benchmarks (google-benchmark) for the primitives underneath the
// paper's numbers: Bloom filter ops, hashing, SQL engine ops, the rdb
// hash index, CRC32C, wire codec, wildcard matching, and the LRC/RLI
// stores below the RPC layer.
//
// The store benchmarks report `allocs_per_op` (or `allocs_per_name`):
// heap allocations per operation, counted by the replacement operator
// new below over a fixed, seeded run of operations after a warm-up, so
// the count repeats exactly from run to run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bloom/bloom_filter.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/workload.h"
#include "net/serialize.h"
#include "rdb/index.h"
#include "rls/lrc_store.h"
#include "rls/protocol.h"
#include "rls/rli_store.h"
#include "sql/engine.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void BM_HashKey(benchmark::State& state) {
  const std::string name = "lfn://ligo.org/run-00042/lfn-0000001234";
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom::HashKey(name));
  }
}
BENCHMARK(BM_HashKey);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(1000000);
  rlscommon::NameGenerator gen("micro");
  uint64_t i = 0;
  for (auto _ : state) {
    filter.Insert(gen.LogicalName(i++ % 1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQueryHit(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(100000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(gen.LogicalName(i++ % 100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQueryHit);

void BM_BloomQueryMiss(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(100000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(gen.LogicalName(5000000 + i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQueryMiss);

/// Probing N resident filters per query — the Fig. 10 mechanism.
void BM_BloomMultiFilterProbe(benchmark::State& state) {
  const int filters = static_cast<int>(state.range(0));
  std::vector<bloom::BloomFilter> resident;
  rlscommon::NameGenerator gen("micro");
  for (int f = 0; f < filters; ++f) {
    bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(10000);
    for (uint64_t i = 0; i < 10000; ++i) filter.Insert(gen.LogicalName(i));
    resident.push_back(std::move(filter));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    const bloom::HashPair h = bloom::HashKey(gen.LogicalName(i++ % 10000));
    int hits = 0;
    for (const auto& filter : resident) {
      if (filter.ContainsHashed(h)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMultiFilterProbe)->Arg(1)->Arg(10)->Arg(100);

void BM_SqlInsert(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL)",
                    {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX idx ON t (name)", {}, &session, &rs);
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql("INSERT INTO t (name) VALUES (?)",
                      {rdb::Value::String("row" + std::to_string(i++))}, &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlInsert);

void BM_SqlPointSelect(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL)",
                    {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX idx ON t (name)", {}, &session, &rs);
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)engine.ExecuteSql("INSERT INTO t (name) VALUES (?)",
                      {rdb::Value::String("row" + std::to_string(i))}, &session, &rs);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql("SELECT id FROM t WHERE name = ?",
                      {rdb::Value::String("row" + std::to_string(i++ % 100000))},
                      &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlPointSelect);

void BM_SqlThreeWayJoin(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL, ref INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX i1 ON t_lfn (name)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE TABLE t_pfn (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL, ref INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE TABLE t_map (lfn_id INT, pfn_id INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE INDEX i2 ON t_map (lfn_id)", {}, &session, &rs);
  for (uint64_t i = 0; i < 20000; ++i) {
    (void)engine.ExecuteSql("INSERT INTO t_lfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String("l" + std::to_string(i))}, &session, &rs);
    (void)engine.ExecuteSql("INSERT INTO t_pfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String("p" + std::to_string(i))}, &session, &rs);
    (void)engine.ExecuteSql("INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                      {rdb::Value::Int(static_cast<int64_t>(i + 1)),
                       rdb::Value::Int(static_cast<int64_t>(i + 1))},
                      &session, &rs);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql(
        "SELECT t_pfn.name FROM t_lfn"
        " JOIN t_map ON t_lfn.id = t_map.lfn_id"
        " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
        " WHERE t_lfn.name = ?",
        {rdb::Value::String("l" + std::to_string(i++ % 20000))}, &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlThreeWayJoin);

/// Heap allocations per call of fn(i), i in [0, ops), after `warmup`
/// uncounted calls (which build the statement plans).
template <typename Fn>
double AllocationsPerCall(uint64_t warmup, uint64_t ops, Fn&& fn) {
  for (uint64_t i = 0; i < warmup; ++i) fn(i);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < ops; ++i) fn(warmup + i);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before) /
         static_cast<double>(ops);
}

/// Builds a HashIndex from empty to 200k name keys (one iteration = the
/// whole build). `per_insert` is the time per key, `allocs_per_op` the
/// heap allocations per key insert.
void BM_HashIndexInsert(benchmark::State& state) {
  constexpr uint32_t kKeys = 200000;
  rlscommon::NameGenerator gen("micro");
  std::vector<rdb::Value> keys;
  keys.reserve(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) keys.push_back(rdb::Value::String(gen.LogicalName(i)));
  auto build = [&] {
    rdb::HashIndex index(rdb::IndexDeleteMode::kErase);
    for (uint32_t i = 0; i < kKeys; ++i) {
      index.Insert(keys[i], rdb::Rid{i / 64, static_cast<uint16_t>(i % 64)});
    }
    benchmark::DoNotOptimize(index.bucket_count());
  };
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  build();
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before) / kKeys;
  for (auto _ : state) build();
  state.counters["per_insert"] = benchmark::Counter(
      kKeys, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_HashIndexInsert)->Unit(benchmark::kMillisecond);

/// CRC32C over one buffer of `range(0)` bytes (a small WAL frame, and a
/// bulk transaction's frame).
void BM_Crc32c(benchmark::State& state) {
  std::string buf(static_cast<std::size_t>(state.range(0)), '\0');
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 131);
  for (auto _ : state) benchmark::DoNotOptimize(rlscommon::Crc32c(buf));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(256 << 10);

constexpr uint64_t kLrcPreload = 20000;

/// An LRC store (MySQL profile, in-memory WAL) preloaded with one
/// mapping per logical name, plus the names, generated up front.
struct LrcFixture {
  dbapi::Environment env;
  std::unique_ptr<rls::LrcStore> store;
  std::vector<std::string> logical;

  LrcFixture() {
    rlscommon::NameGenerator gen("micro");
    (void)env.CreateDatabase("mysql://micro_lrc");
    (void)rls::LrcStore::Create(env, "mysql://micro_lrc", &store);
    std::vector<rls::Mapping> batch;
    rls::BulkStatusResponse status;
    for (uint64_t i = 0; i < kLrcPreload; ++i) {
      logical.push_back(gen.LogicalName(i));
      batch.push_back(rls::Mapping{logical.back(), gen.PhysicalName(i)});
      if (batch.size() == 1000) {
        (void)store->CreateMappings(batch, &status);
        batch.clear();
      }
    }
  }
};

/// LrcStore::QueryLogical below the RPC layer: one hot key, or keys
/// drawn uniformly from the preload.
void BM_LrcQueryLogical(benchmark::State& state) {
  const bool hot = state.range(0) == 0;
  LrcFixture f;
  std::vector<uint64_t> keys(4096);
  rlscommon::Xoshiro256 rng(7);
  for (uint64_t& k : keys) k = hot ? 42 : rng.Below(kLrcPreload);
  std::vector<std::string> targets;
  auto query = [&](uint64_t i) {
    benchmark::DoNotOptimize(
        f.store->QueryLogical(f.logical[keys[i % keys.size()]], &targets));
  };
  state.counters["allocs_per_op"] = AllocationsPerCall(100, 1000, query);
  uint64_t i = 0;
  for (auto _ : state) query(i++);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LrcQueryLogical)->Arg(0)->Arg(1)->ArgName("uniform");

/// CreateMapping -> DeleteMapping of a fresh name (one op = the pair).
void BM_LrcCreateDelete(benchmark::State& state) {
  LrcFixture f;
  rlscommon::NameGenerator fresh("micro-fresh");
  std::vector<std::pair<std::string, std::string>> names;
  for (uint64_t i = 0; i < 4096; ++i) {
    names.emplace_back(fresh.LogicalName(i), fresh.PhysicalName(i));
  }
  auto pair = [&](uint64_t i) {
    const auto& [lfn, pfn] = names[i % names.size()];
    benchmark::DoNotOptimize(f.store->CreateMapping(lfn, pfn));
    benchmark::DoNotOptimize(f.store->DeleteMapping(lfn, pfn));
  };
  state.counters["allocs_per_op"] = AllocationsPerCall(100, 1000, pair);
  uint64_t i = 0;
  for (auto _ : state) pair(i++);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LrcCreateDelete);

/// RliRelationalStore::UpsertBatch, per name, in batches of 1000 names
/// from one LRC: arg 0 = first ingest of fresh names, 1 = refresh of
/// names already held (20k of them, so a refresh walks a 20k-entry
/// t_map.lrc_id key).
void BM_RliUpsertBatch(benchmark::State& state) {
  constexpr uint64_t kBatch = 1000, kHeld = 20000;
  const bool refresh = state.range(0) == 1;
  dbapi::Environment env;
  std::unique_ptr<rls::RliRelationalStore> store;
  (void)env.CreateDatabase("mysql://micro_rli");
  (void)rls::RliRelationalStore::Create(env, "mysql://micro_rli", &store);
  rlscommon::NameGenerator gen("micro");
  std::vector<std::vector<std::string>> batches;
  const uint64_t held_batches = refresh ? kHeld / kBatch : 0;
  for (uint64_t b = 0; b < held_batches + 64; ++b) {
    batches.push_back(gen.LogicalNames(b * kBatch, (b + 1) * kBatch));
  }
  int64_t now = 1;
  for (uint64_t b = 0; b < held_batches; ++b) {
    (void)store->UpsertBatch(batches[b], "rls://lrc0", now);
  }
  // Refresh cycles over the held names; first ingest walks fresh ones.
  auto upsert = [&](uint64_t i) {
    const uint64_t b = refresh ? i % held_batches : held_batches + i % 64;
    benchmark::DoNotOptimize(store->UpsertBatch(batches[b], "rls://lrc0", ++now));
  };
  state.counters["allocs_per_name"] = AllocationsPerCall(1, 2, upsert) / kBatch;
  uint64_t i = 3;
  for (auto _ : state) upsert(i++);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_RliUpsertBatch)->Arg(0)->Arg(1)->ArgName("refresh")->Iterations(40);

void BM_WireEncodeMappingBatch(benchmark::State& state) {
  rlscommon::NameGenerator gen("micro");
  rls::MappingRequest request;
  for (uint64_t i = 0; i < 1000; ++i) {
    request.mappings.push_back(rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)});
  }
  for (auto _ : state) {
    std::string payload;
    request.Encode(&payload);
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WireEncodeMappingBatch);

void BM_WireDecodeMappingBatch(benchmark::State& state) {
  rlscommon::NameGenerator gen("micro");
  rls::MappingRequest request;
  for (uint64_t i = 0; i < 1000; ++i) {
    request.mappings.push_back(rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)});
  }
  std::string payload;
  request.Encode(&payload);
  for (auto _ : state) {
    rls::MappingRequest decoded;
    benchmark::DoNotOptimize(rls::MappingRequest::Decode(payload, &decoded));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WireDecodeMappingBatch);

void BM_WildcardMatch(benchmark::State& state) {
  const std::string pattern = "lfn://*/run-00?42/*";
  const std::string text = "lfn://ligo.org/run-00342/lfn-0000001234";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlscommon::WildcardMatch(pattern, text));
  }
}
BENCHMARK(BM_WildcardMatch);

void BM_BloomSerialize(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(1000000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  for (auto _ : state) {
    std::string bytes;
    filter.Serialize(&bytes);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * filter.SerializedBytes()));
}
BENCHMARK(BM_BloomSerialize);

}  // namespace

BENCHMARK_MAIN();
