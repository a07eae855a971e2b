// Compiled plans: everything about a SELECT, EXPLAIN, INSERT, UPDATE or
// DELETE that does not depend on its parameter values, resolved once
// against the catalog (see engine.h for the lifecycle).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "rdb/database.h"
#include "sql/ast.h"

namespace sql {

/// Where an operand's value comes from when the plan runs.
struct PlanOperand {
  enum class Kind : uint8_t { kColumn, kLiteral, kParam };
  Kind kind = Kind::kLiteral;
  std::size_t level = 0;   // kColumn: join level whose current row holds it
  std::size_t column = 0;  // kColumn: position in that level's schema
  std::size_t param = 0;   // kParam: 0-based '?' index
  rdb::Value literal;      // kLiteral
};

struct PlanPredicate {
  PlanOperand lhs;
  CmpOp op = CmpOp::kEq;
  PlanOperand rhs;
};

/// How a join level finds its candidate rows.
enum class AccessKind : uint8_t {
  kScan,           // every live row
  kHashEq,         // hash index probe: column = key
  kOrderedEq,      // ordered index: column = key
  kOrderedLess,    // ordered index: column < key
  kOrderedLessEq,  // ordered index: column <= key
};

/// One FROM/JOIN table. INSERT, UPDATE and DELETE plan their target
/// table as level 0.
struct PlanLevel {
  rdb::Table* table = nullptr;
  std::string alias;
  AccessKind access = AccessKind::kScan;
  const rdb::HashIndex* hash = nullptr;        // kHashEq
  const rdb::OrderedIndex* ordered = nullptr;  // kOrdered*
  PlanOperand key;                             // the probe value
  std::string access_text;                     // EXPLAIN's access_path cell
  /// Predicates whose deepest column lives at this level, in statement
  /// order (JOIN ... ON first, then WHERE); checked on every candidate.
  std::vector<PlanPredicate> filters;

  // Scratch reused by every execution: index probe results and the
  // current row.
  std::vector<rdb::Rid> rids;
  rdb::Rid rid;
  rdb::Row row;
};

struct PlanColumn {
  std::size_t level = 0;
  std::size_t column = 0;
};

/// SET column = value  |  SET column = column + delta.
struct PlanAssignment {
  std::size_t column = 0;
  bool is_delta = false;
  int64_t delta = 0;
  PlanOperand value;
  bool to_timestamp = false;  // INT value into a TIMESTAMP column
};

struct TableLock {
  rdb::Table* table = nullptr;
  bool exclusive = false;
};

struct Plan {
  enum class Kind : uint8_t { kSelect, kExplain, kInsert, kUpdate, kDelete };
  Kind kind = Kind::kSelect;
  uint64_t schema_epoch = 0;     // Database::schema_epoch() it was built at
  std::size_t num_params = 0;    // '?' markers the statement reads
  std::vector<TableLock> locks;  // one per table, in table-name order
  std::vector<PlanLevel> levels;

  // SELECT
  std::vector<std::string> columns;  // result column names
  std::vector<PlanColumn> projection;
  bool count_star = false;
  std::optional<PlanColumn> order_by;
  bool order_desc = false;
  std::optional<PlanOperand> limit;
  std::optional<PlanOperand> offset;

  // INSERT: values[row][i] goes to schema position positions[i].
  std::vector<std::vector<PlanOperand>> values;
  std::vector<std::size_t> positions;
  std::vector<bool> to_timestamp;  // per position: INT into TIMESTAMP

  // UPDATE
  std::vector<PlanAssignment> sets;

  // Scratch reused by every execution.
  std::vector<std::pair<rdb::Rid, rdb::Row>> matches;  // UPDATE/DELETE
  std::vector<rdb::Rid> inserted;                      // INSERT undo
  rdb::Row dead_row;                                   // dead-tuple fetch
  std::string like_glob;                               // LIKE pattern
};

/// True for the statements BuildPlan compiles.
bool IsPlanned(const Statement& stmt);

/// Resolves `stmt` against `db`: tables, column positions, operands,
/// each level's access path, the lock order and the result columns.
/// Reads each table's index list under its shared lock.
rlscommon::Status BuildPlan(rdb::Database* db, const Statement& stmt, Plan* plan);

}  // namespace sql
