// Table: heap storage + indexes + profile-dependent delete behaviour.
//
// Concurrency: every table carries a shared_mutex; the SQL executor takes
// it shared for reads and exclusive for writes (and for VACUUM, which
// "may require exclusive access to the database, preventing other
// requests from executing" — paper §5.2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "rdb/heap.h"
#include "rdb/index.h"
#include "rdb/profile.h"
#include "rdb/schema.h"

namespace rdb {

/// Kind of secondary index.
enum class IndexKind { kHash, kOrdered };

/// Table-level statistics for tests, the vacuum policy and benchmarks.
struct TableStats {
  uint64_t inserts = 0;   // guarded by the table's exclusive lock
  uint64_t deletes = 0;
  uint64_t updates = 0;
  /// Rows visited by sequential scans; atomic because scans run under the
  /// shared lock from many threads.
  std::atomic<uint64_t> seq_scan_rows{0};
};

class Table {
 public:
  Table(TableSchema schema, const BackendProfile* profile);

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// Creates a secondary index on one column. All rows already in the
  /// table are indexed. Fails if an index with `index_name` exists.
  rlscommon::Status CreateIndex(const std::string& index_name,
                                const std::string& column, IndexKind kind,
                                bool unique);

  /// Inserts a row (values ordered per schema; the auto-increment column
  /// may be NULL to be assigned). On success returns the Rid and, if the
  /// table has an auto-increment column, its assigned value via
  /// `auto_id`. Duplicate unique-key insertion returns AlreadyExists.
  rlscommon::Status Insert(Row row, Rid* rid_out, int64_t* auto_id);

  /// Deletes the row at `rid` (profile decides dead-tuple vs free).
  rlscommon::Status Delete(Rid rid);

  /// Deletes one live row whose values equal `image`, located through a
  /// unique hash index when one exists (scan fallback otherwise). Used
  /// by transaction undo and by WAL replay, which both identify rows by
  /// value, not rid. The caller holds the exclusive lock.
  rlscommon::Status DeleteByValue(const Row& image);

  /// Replaces the row at `rid`; returns the new rid via `new_rid`.
  rlscommon::Status Update(Rid rid, Row new_row, Rid* new_rid);

  /// Decodes the row at `rid` (live or dead).
  rlscommon::Status ReadRow(Rid rid, Row* out) const;

  bool IsLive(Rid rid) const { return heap_.state(rid) == SlotState::kLive; }

  /// Index lookup helpers used by the planner. Return nullptr when the
  /// column has no index of that kind.
  const HashIndex* FindHashIndex(const std::string& column) const;
  const OrderedIndex* FindOrderedIndex(const std::string& column) const;

  /// Sequential scan over live + dead rows (the executor checks state);
  /// counts visited rows in stats.
  void Scan(const std::function<bool(Rid, SlotState)>& fn) const;

  /// VACUUM: rebuilds heap and all indexes keeping only live rows.
  /// Requires the caller to hold the exclusive lock.
  void Vacuum();

  /// Full rebuild used by Vacuum and by ROLLBACK-heavy tests.
  std::size_t live_rows() const { return heap_.live_count(); }
  std::size_t dead_rows() const { return heap_.dead_count(); }
  std::size_t heap_pages() const { return heap_.num_pages(); }
  const TableStats& stats() const { return stats_; }
  int64_t auto_increment_next() const { return auto_counter_ + 1; }

  std::shared_mutex& mutex() const { return mu_; }

  /// Names of indexes (diagnostics).
  std::vector<std::string> IndexNames() const;

 private:
  struct IndexEntry {
    std::string name;
    std::size_t column = 0;
    IndexKind kind = IndexKind::kHash;
    bool unique = false;
    std::unique_ptr<HashIndex> hash;
    std::unique_ptr<OrderedIndex> ordered;
  };

  /// True if a live row holds `key` in `column`, among the candidates
  /// `index` returns for it (caller holds the exclusive lock).
  bool HoldsLiveKey(const HashIndex& index, std::size_t column, const Value& key);
  void InsertIntoIndexes(const Row& row, Rid rid);
  void EraseFromIndexes(const Row& row, Rid rid);

  TableSchema schema_;
  const BackendProfile* profile_;
  HeapFile heap_;
  std::vector<IndexEntry> indexes_;
  int64_t auto_counter_ = 0;
  mutable TableStats stats_;  // scan counters update under shared lock
  /// Probe scratch of the write paths (exclusive lock held).
  std::vector<Rid> rids_;
  Row probe_row_;
  mutable std::shared_mutex mu_;
};

}  // namespace rdb
