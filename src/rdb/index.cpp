#include "rdb/index.h"

namespace rdb {
namespace {

std::size_t NextPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

HashIndex::HashIndex(IndexDeleteMode mode, bool unique, std::size_t initial_buckets)
    : mode_(mode), unique_(unique) {
  buckets_.resize(NextPow2(initial_buckets < 16 ? 16 : initial_buckets));
}

bool HashIndex::Insert(const Value& key, Rid rid) {
  const uint64_t hash = key.Hash();
  auto& bucket = buckets_[BucketFor(hash)];
  if (unique_) {
    for (const Entry& e : bucket) {
      stats_.probe_steps.fetch_add(1, std::memory_order_relaxed);
      if (!e.dead && e.hash == hash && e.key == key) return false;
    }
  }
  bucket.push_back(Entry{hash, key, rid, /*dead=*/false});
  if (!hints_.empty()) {
    auto hint = hints_.find(BucketFor(hash));
    if (hint != hints_.end()) {
      hint->second[PackRid(rid)] = static_cast<uint32_t>(bucket.size() - 1);
    }
  }
  ++stats_.live_entries;
  MaybeGrow();
  return true;
}

void HashIndex::Erase(const Value& key, Rid rid) {
  const uint64_t hash = key.Hash();
  const std::size_t b = BucketFor(hash);
  auto& bucket = buckets_[b];
  auto matches = [&](const Entry& e) {
    return !e.dead && e.hash == hash && e.rid == rid && e.key == key;
  };
  std::size_t i = bucket.size();
  RidPositions* hint = nullptr;
  if (bucket.size() > kHintedChain) {
    auto [it, fresh] = hints_.try_emplace(b);
    hint = &it->second;
    if (fresh) {
      // First erase in a long bucket: index every rid once, so this and
      // later erases cost one step each instead of a chain walk.
      for (std::size_t j = 0; j < bucket.size(); ++j) {
        (*hint)[PackRid(bucket[j].rid)] = static_cast<uint32_t>(j);
      }
      stats_.probe_steps.fetch_add(bucket.size(), std::memory_order_relaxed);
    }
    auto pos = hint->find(PackRid(rid));
    stats_.probe_steps.fetch_add(1, std::memory_order_relaxed);
    if (pos != hint->end() && pos->second < bucket.size() &&
        matches(bucket[pos->second])) {
      i = pos->second;
    }
  } else if (!hints_.empty()) {
    hints_.erase(b);  // short again: erases below would leave its hints stale
  }
  if (i == bucket.size()) {
    for (i = 0; i < bucket.size(); ++i) {
      stats_.probe_steps.fetch_add(1, std::memory_order_relaxed);
      if (matches(bucket[i])) break;
    }
    if (i == bucket.size()) return;
  }
  if (mode_ == IndexDeleteMode::kErase) {
    bucket[i] = std::move(bucket.back());
    bucket.pop_back();
    if (hint) {
      hint->erase(PackRid(rid));
      if (i < bucket.size()) (*hint)[PackRid(bucket[i].rid)] = static_cast<uint32_t>(i);
    }
  } else {
    bucket[i].dead = true;
    ++stats_.tombstones;
  }
  --stats_.live_entries;
}

void HashIndex::Lookup(const Value& key, std::vector<Rid>* out) const {
  const uint64_t hash = key.Hash();
  const auto& bucket = buckets_[BucketFor(hash)];
  stats_.probes.fetch_add(1, std::memory_order_relaxed);
  uint64_t steps = 0;
  for (const Entry& e : bucket) {
    ++steps;
    if (e.hash != hash || !(e.key == key)) continue;
    // Tombstone mode returns dead entries too: like a PostgreSQL index,
    // visibility is only decided by fetching the heap tuple — the caller
    // pays that fetch, which is what makes un-vacuumed churn expensive
    // (paper Fig. 8).
    if (!e.dead || mode_ == IndexDeleteMode::kTombstone) out->push_back(e.rid);
  }
  stats_.probe_steps.fetch_add(steps, std::memory_order_relaxed);
}

bool HashIndex::ContainsKey(const Value& key) const {
  const uint64_t hash = key.Hash();
  const auto& bucket = buckets_[BucketFor(hash)];
  stats_.probes.fetch_add(1, std::memory_order_relaxed);
  uint64_t steps = 0;
  bool found = false;
  for (const Entry& e : bucket) {
    ++steps;
    if (!e.dead && e.hash == hash && e.key == key) {
      found = true;
      break;
    }
  }
  stats_.probe_steps.fetch_add(steps, std::memory_order_relaxed);
  return found;
}

void HashIndex::Clear() {
  const std::size_t buckets = buckets_.size();
  buckets_.clear();
  buckets_.resize(buckets);
  hints_.clear();
  stats_.live_entries = 0;
  stats_.tombstones = 0;
}

void HashIndex::MaybeGrow() {
  // Growth is triggered by LIVE entries only. Under the tombstone mode
  // this is deliberate: accumulated tombstones lengthen chains without
  // triggering a rebuild, exactly like un-vacuumed PostgreSQL index bloat.
  if (stats_.live_entries <= buckets_.size() * 2) return;
  std::vector<std::vector<Entry>> old = std::move(buckets_);
  buckets_.clear();
  hints_.clear();
  buckets_.resize(old.size() * 2);
  for (auto& bucket : old) {
    for (Entry& e : bucket) {
      buckets_[BucketFor(e.hash)].push_back(std::move(e));
    }
  }
}

void OrderedIndex::Insert(const Value& key, Rid rid) {
  entries_.insert(Entry{key, rid});
}

void OrderedIndex::Erase(const Value& key, Rid rid) {
  auto it = entries_.find(Entry{key, rid});
  if (it != entries_.end()) entries_.erase(it);
}

void OrderedIndex::LookupLess(const Value& bound, std::vector<Rid>* out) const {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key.Compare(bound) >= 0) break;
    out->push_back(it->rid);
  }
}

void OrderedIndex::LookupRange(const Value& lo, const Value& hi,
                               std::vector<Rid>* out) const {
  for (auto it = entries_.lower_bound(lo); it != entries_.end(); ++it) {
    if (it->key.Compare(hi) > 0) break;
    out->push_back(it->rid);
  }
}

void OrderedIndex::Lookup(const Value& key, std::vector<Rid>* out) const {
  auto [begin, end] = entries_.equal_range(key);
  for (auto it = begin; it != end; ++it) out->push_back(it->rid);
}

}  // namespace rdb
