// Secondary indexes for the rdb engine.
//
// HashIndex is the workhorse (equality lookups on names and ids). It
// keeps no copy of any key: each entry is {64-bit key hash, rid, next,
// dead} (24 bytes) in one entry array, and an array of bucket heads
// starts each chain. Growth doubles the heads array and relinks the
// chains in place; entries never move, and no bucket owns an
// allocation. A lookup therefore returns CANDIDATES — the rids whose
// hash matches — and every caller checks the key against the heap row:
// the SQL executor keeps the driving `=` predicate among the level's
// filters, and rdb::Table compares the indexed column of the row for
// unique checks and DeleteByValue. Uniqueness is the table's business;
// the index never rejects an insert.
//
// Delete behaviour is profile-dependent, mirroring the back ends in the
// paper:
//   * erase-on-delete (MySQL profile): entries are unlinked at once and
//     their slots reused; lookup cost stays flat under add/delete churn.
//   * tombstone-on-delete (PostgreSQL profile): deleted entries stay in
//     the chains and are returned by every lookup (the caller's heap
//     fetch decides visibility) until VACUUM rebuilds the index. Probe
//     cost therefore grows with accumulated deletions — the mechanism
//     behind the Fig. 8 saw-tooth.
//
// OrderedIndex supports range predicates; the RLI uses it on
// t_map.updatetime so the expire thread can discard stale soft state
// without a full scan.
//
// Writes are not thread-safe (the owning engine takes an exclusive
// statement lock); concurrent Lookup calls under a shared lock are
// safe — the probe counters they maintain are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "rdb/heap.h"
#include "rdb/value.h"

namespace rdb {

/// Delete behaviour, selected by the database BackendProfile.
enum class IndexDeleteMode {
  kErase,      // MySQL profile
  kTombstone,  // PostgreSQL profile
};

/// Statistics used by tests and the vacuum policy. The probe counters
/// are updated from const read paths that run concurrently under the
/// engine's shared statement lock, so they are relaxed atomics; the
/// entry counters only change under the exclusive (write) lock.
struct IndexStats {
  uint64_t live_entries = 0;
  uint64_t tombstones = 0;
  std::atomic<uint64_t> probes{0};       // lookups performed
  std::atomic<uint64_t> probe_steps{0};  // chain entries visited across all probes
};

/// Chained hash index from key hashes to Rids (multimap semantics —
/// non-unique indexes like t_map.lfn_id hold many rids per key).
class HashIndex {
 public:
  explicit HashIndex(IndexDeleteMode mode, std::size_t initial_buckets = 64);

  /// Adds key->rid.
  void Insert(const Value& key, Rid rid);

  /// Removes (or tombstones) the live entry with key's hash and `rid`.
  /// Missing entries are ignored. Costs O(1) probe steps on average
  /// however many entries share `key` (see hints_).
  void Erase(const Value& key, Rid rid);

  /// Appends the rids of every entry whose hash equals key.Hash(), in
  /// insertion order; tombstone mode includes dead entries. Candidates
  /// only: the caller checks each row's key.
  void Lookup(const Value& key, std::vector<Rid>* out) const;

  /// Drops all entries (vacuum rebuild path).
  void Clear();

  IndexDeleteMode delete_mode() const { return mode_; }
  const IndexStats& stats() const { return stats_; }
  std::size_t bucket_count() const { return heads_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Entry {
    uint64_t hash;
    Rid rid;
    uint32_t next;  // next entry of the chain (or of the free list)
    bool dead;
  };

  /// rid (packed page:slot) -> entry position, for one bucket.
  using RidPositions = std::unordered_map<uint64_t, uint32_t>;

  /// An Erase that walks this far down a chain without a match indexes
  /// the chain's rids (hints_).
  static constexpr uint64_t kHintedChain = 32;

  void MaybeGrow();
  std::size_t BucketFor(uint64_t hash) const { return hash & (heads_.size() - 1); }
  bool Matches(uint32_t i, uint64_t hash, Rid rid) const {
    const Entry& e = entries_[i];
    return !e.dead && e.hash == hash && e.rid == rid;
  }
  static uint64_t PackRid(Rid rid) {
    return (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
  }

  IndexDeleteMode mode_;
  /// Chains are newest-first; Lookup reverses its matches so callers
  /// see insertion order.
  std::vector<uint32_t> heads_;
  std::vector<Entry> entries_;
  uint32_t free_ = kNone;  // erased entries, linked through `next`
  /// Erase hints for long chains (many rids under one key, such as
  /// t_map.lrc_id at the RLI): bucket -> rid positions, kept current by
  /// Insert and Erase. A hint is only trusted after the entry it names
  /// is checked, so a duplicate-rid hint falls back to the chain scan.
  /// Dropped on growth and Clear().
  std::unordered_map<std::size_t, RidPositions> hints_;
  mutable IndexStats stats_;
};

/// Ordered index over one column supporting range scans. Entries are
/// ordered by (key, rid), so Erase finds its entry in O(log n) however
/// many rows share the key.
class OrderedIndex {
 public:
  OrderedIndex() = default;

  void Insert(const Value& key, Rid rid);
  void Erase(const Value& key, Rid rid);

  /// Appends rids with key < bound (used by soft-state expiration:
  /// "discard entries older than the timeout").
  void LookupLess(const Value& bound, std::vector<Rid>* out) const;

  /// Appends rids with lo <= key <= hi.
  void LookupRange(const Value& lo, const Value& hi, std::vector<Rid>* out) const;

  void Lookup(const Value& key, std::vector<Rid>* out) const;

  void Clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Value key;
    Rid rid;
  };
  /// (key, rid) order; a bare Value compares by key alone, so lookups by
  /// key need no Entry.
  struct EntryLess {
    using is_transparent = void;
    bool operator()(const Entry& a, const Entry& b) const {
      const int cmp = a.key.Compare(b.key);
      return cmp != 0 ? cmp < 0 : a.rid < b.rid;
    }
    bool operator()(const Entry& a, const Value& b) const { return a.key.Compare(b) < 0; }
    bool operator()(const Value& a, const Entry& b) const { return a.Compare(b.key) < 0; }
  };
  std::multiset<Entry, EntryLess> entries_;
};

}  // namespace rdb
