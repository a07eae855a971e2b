#include "rdb/index.h"

#include <algorithm>

namespace rdb {
namespace {

std::size_t NextPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

HashIndex::HashIndex(IndexDeleteMode mode, std::size_t initial_buckets) : mode_(mode) {
  heads_.assign(NextPow2(initial_buckets < 16 ? 16 : initial_buckets), kNone);
}

void HashIndex::Insert(const Value& key, Rid rid) {
  const uint64_t hash = key.Hash();
  const std::size_t b = BucketFor(hash);
  const Entry entry{hash, rid, heads_[b], /*dead=*/false};
  uint32_t i = free_;
  if (i != kNone) {
    free_ = entries_[i].next;
    entries_[i] = entry;
  } else {
    i = static_cast<uint32_t>(entries_.size());
    entries_.push_back(entry);
  }
  heads_[b] = i;
  if (!hints_.empty()) {
    auto hint = hints_.find(b);
    if (hint != hints_.end()) hint->second[PackRid(rid)] = i;
  }
  ++stats_.live_entries;
  MaybeGrow();
}

void HashIndex::Erase(const Value& key, Rid rid) {
  const uint64_t hash = key.Hash();
  const std::size_t b = BucketFor(hash);
  uint64_t steps = 0;
  uint32_t found = kNone;
  auto hint = hints_.find(b);
  if (hint == hints_.end()) {
    for (uint32_t i = heads_[b]; i != kNone; i = entries_[i].next) {
      if (steps == kHintedChain) {
        // Long chain: index its live rids once, so this and later
        // erases cost one step each instead of a chain walk.
        hint = hints_.try_emplace(b).first;
        for (uint32_t j = heads_[b]; j != kNone; j = entries_[j].next) {
          if (!entries_[j].dead) hint->second[PackRid(entries_[j].rid)] = j;
          ++steps;
        }
        break;
      }
      ++steps;
      if (Matches(i, hash, rid)) {
        found = i;
        break;
      }
    }
  }
  if (hint != hints_.end()) {
    ++steps;
    auto pos = hint->second.find(PackRid(rid));
    if (pos != hint->second.end() && Matches(pos->second, hash, rid)) {
      found = pos->second;
      hint->second.erase(pos);
    } else {
      for (uint32_t i = heads_[b]; i != kNone; i = entries_[i].next) {
        ++steps;
        if (Matches(i, hash, rid)) {
          found = i;
          break;
        }
      }
    }
  }
  stats_.probe_steps.fetch_add(steps, std::memory_order_relaxed);
  if (found == kNone) return;
  --stats_.live_entries;
  if (mode_ == IndexDeleteMode::kTombstone) {
    entries_[found].dead = true;
    ++stats_.tombstones;
    return;
  }
  // Unlink without a predecessor: the head entry (the newest) takes the
  // erased entry's place, then the head is popped onto the free list.
  const uint32_t head = heads_[b];
  Entry& moved = entries_[head];
  if (found != head) {
    entries_[found].hash = moved.hash;
    entries_[found].rid = moved.rid;
    if (hint != hints_.end()) {
      auto pos = hint->second.find(PackRid(moved.rid));
      if (pos != hint->second.end() && pos->second == head) pos->second = found;
    }
  }
  heads_[b] = moved.next;
  moved.next = free_;
  free_ = head;
}

void HashIndex::Lookup(const Value& key, std::vector<Rid>* out) const {
  const uint64_t hash = key.Hash();
  stats_.probes.fetch_add(1, std::memory_order_relaxed);
  const std::size_t first = out->size();
  uint64_t steps = 0;
  for (uint32_t i = heads_[BucketFor(hash)]; i != kNone; i = entries_[i].next) {
    ++steps;
    // Dead entries exist only in tombstone mode, and are returned: like
    // a PostgreSQL index, visibility is only decided by fetching the
    // heap tuple — the caller pays that fetch, which is what makes
    // un-vacuumed churn expensive (paper Fig. 8).
    if (entries_[i].hash == hash) out->push_back(entries_[i].rid);
  }
  std::reverse(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  stats_.probe_steps.fetch_add(steps, std::memory_order_relaxed);
}

void HashIndex::Clear() {
  std::fill(heads_.begin(), heads_.end(), kNone);
  entries_.clear();
  free_ = kNone;
  hints_.clear();
  stats_.live_entries = 0;
  stats_.tombstones = 0;
}

void HashIndex::MaybeGrow() {
  // Growth is triggered by LIVE entries only. Under the tombstone mode
  // this is deliberate: accumulated tombstones lengthen chains without
  // triggering a rebuild, exactly like un-vacuumed PostgreSQL index bloat.
  if (stats_.live_entries <= heads_.size() * 2) return;
  const std::size_t old = heads_.size();
  std::vector<uint32_t> heads(old * 2, kNone);
  for (std::size_t b = 0; b < old; ++b) {
    // Chain b splits into chains b and b + old; appending each entry at
    // the tail of its new chain keeps the chain order.
    uint32_t* tail[2] = {&heads[b], &heads[b + old]};
    for (uint32_t i = heads_[b]; i != kNone;) {
      Entry& e = entries_[i];
      const uint32_t next = e.next;
      uint32_t*& t = tail[(e.hash & old) != 0];
      *t = i;
      t = &e.next;
      i = next;
    }
    *tail[0] = kNone;
    *tail[1] = kNone;
  }
  heads_ = std::move(heads);
  hints_.clear();
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
