// AST for the SQL subset the RLS issues: CREATE TABLE/INDEX, INSERT,
// SELECT (inner equality joins, conjunctive WHERE, LIKE, COUNT(*), LIMIT),
// UPDATE (including "SET ref = ref + 1" reference counting), DELETE,
// BEGIN/COMMIT/ROLLBACK, VACUUM, DROP TABLE.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "rdb/schema.h"
#include "rdb/value.h"

namespace sql {

/// Possibly table-qualified column reference ("t_lfn.name" or "name").
struct ColumnRef {
  std::string table;  // alias; empty = resolve by unique column name
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

/// One side of a predicate or a VALUES entry.
struct Operand {
  enum class Kind { kColumn, kLiteral, kParam };
  Kind kind = Kind::kLiteral;
  ColumnRef column;            // kColumn
  rdb::Value literal;          // kLiteral
  std::size_t param_index = 0; // kParam (0-based, in order of '?')

  static Operand Column(ColumnRef ref) {
    Operand o;
    o.kind = Kind::kColumn;
    o.column = std::move(ref);
    return o;
  }
  static Operand Literal(rdb::Value v) {
    Operand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  static Operand Param(std::size_t index) {
    Operand o;
    o.kind = Kind::kParam;
    o.param_index = index;
    return o;
  }
};

/// Binary comparison; WHERE clauses are conjunctions of these.
struct Predicate {
  Operand lhs;
  CmpOp op = CmpOp::kEq;
  Operand rhs;
};

/// FROM / JOIN table with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name

  const std::string& effective_alias() const {
    return alias.empty() ? table : alias;
  }
};

struct JoinClause {
  TableRef table;
  Predicate on;  // equality join predicate
};

struct SelectStmt {
  bool star = false;
  bool count_star = false;  // SELECT COUNT(*)
  std::vector<ColumnRef> columns;
  TableRef from;
  std::vector<JoinClause> joins;
  std::vector<Predicate> where;
  std::optional<ColumnRef> order_by;  // single-column ORDER BY
  bool order_desc = false;
  std::optional<uint64_t> limit;   // LIMIT n
  std::optional<uint64_t> offset;  // OFFSET n
  /// LIMIT ? / OFFSET ?: 0-based parameter index, bound per execution so
  /// a client-chosen page size does not change the statement text.
  std::optional<std::size_t> limit_param;
  std::optional<std::size_t> offset_param;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = full schema order
  std::vector<std::vector<Operand>> rows;
};

/// SET column = <operand>  |  SET column = column +/- <int>.
struct Assignment {
  std::string column;
  Operand value;
  bool is_delta = false;
  int64_t delta = 0;
};

struct UpdateStmt {
  std::string table;
  std::vector<Assignment> sets;
  std::vector<Predicate> where;
};

struct DeleteStmt {
  std::string table;
  std::vector<Predicate> where;
};

struct CreateTableStmt {
  rdb::TableSchema schema;
  std::string primary_key;  // column name; empty = none
};

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::string column;
  bool unique = false;
  bool ordered = false;  // CREATE ORDERED INDEX — range-scan capable
};

struct DropTableStmt {
  std::string table;
};

struct VacuumStmt {
  std::string table;  // empty = all tables
};

struct TxnStmt {
  enum class Kind { kBegin, kCommit, kRollback };
  Kind kind = Kind::kBegin;
};

/// EXPLAIN SELECT ...: reports the access path per source instead of
/// executing (one row of plan text per FROM/JOIN table).
struct ExplainStmt {
  SelectStmt select;
};

using Statement = std::variant<SelectStmt, InsertStmt, UpdateStmt, DeleteStmt,
                               CreateTableStmt, CreateIndexStmt, DropTableStmt,
                               VacuumStmt, TxnStmt, ExplainStmt>;

}  // namespace sql
