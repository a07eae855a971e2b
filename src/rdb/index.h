// Secondary indexes for the rdb engine.
//
// HashIndex is the workhorse (equality lookups on names and ids). Its
// delete behaviour is profile-dependent, mirroring the back ends in the
// paper:
//   * erase-on-delete (MySQL profile): entries are removed immediately;
//     lookup cost stays flat under add/delete churn.
//   * tombstone-on-delete (PostgreSQL profile): deleted entries stay in
//     the bucket chains and are skipped on every probe until VACUUM
//     rebuilds the index. Probe cost therefore grows with accumulated
//     deletions — the mechanism behind the Fig. 8 saw-tooth.
//
// OrderedIndex supports range predicates; the RLI uses it on
// t_map.updatetime so the expire thread can discard stale soft state
// without a full scan.
//
// Writes are not thread-safe (the owning engine takes an exclusive
// statement lock); concurrent Lookup/ContainsKey calls under a shared
// lock are safe — the probe counters they maintain are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
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

/// Chained hash index mapping Value keys to Rids (multimap semantics —
/// non-unique indexes like t_map.lfn_id hold many rids per key).
class HashIndex {
 public:
  explicit HashIndex(IndexDeleteMode mode, bool unique = false,
                     std::size_t initial_buckets = 64);

  /// Inserts key->rid. For unique indexes, returns false if a live entry
  /// with an equal key exists (caller reports duplicate-key error).
  bool Insert(const Value& key, Rid rid);

  /// Removes (or tombstones) the entry for (key, rid). Missing entries are
  /// ignored. Costs O(1) probe steps on average however many entries
  /// share `key` (see hints_).
  void Erase(const Value& key, Rid rid);

  /// Appends all live rids for `key` to `out`.
  void Lookup(const Value& key, std::vector<Rid>* out) const;

  /// True if a live entry with this key exists.
  bool ContainsKey(const Value& key) const;

  /// Drops all entries (vacuum rebuild path).
  void Clear();

  bool unique() const { return unique_; }
  IndexDeleteMode delete_mode() const { return mode_; }
  const IndexStats& stats() const { return stats_; }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Entry {
    uint64_t hash;
    Value key;
    Rid rid;
    bool dead;
  };

  /// rid (packed page:slot) -> position of an entry with that rid in
  /// one bucket.
  using RidPositions = std::unordered_map<uint64_t, uint32_t>;

  /// Buckets longer than this get position hints on their first Erase.
  static constexpr std::size_t kHintedChain = 32;

  void MaybeGrow();
  std::size_t BucketFor(uint64_t hash) const { return hash & (buckets_.size() - 1); }
  static uint64_t PackRid(Rid rid) {
    return (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
  }

  IndexDeleteMode mode_;
  bool unique_;
  std::vector<std::vector<Entry>> buckets_;
  /// Erase hints for long buckets (many rids under one key, such as
  /// t_map.lrc_id at the RLI): bucket -> rid positions. A hint is only
  /// trusted after the entry it names is checked, so a stale or
  /// duplicate-rid hint falls back to the chain scan. Dropped on growth
  /// and Clear().
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
