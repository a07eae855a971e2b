#include "sql/plan.h"

#include <algorithm>
#include <shared_mutex>

namespace sql {
namespace {

using rdb::Table;
using rdb::Value;
using rlscommon::Status;

/// `a op b` rewritten as `b op' a`.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

class Planner {
 public:
  Planner(rdb::Database* db, Plan* plan) : db_(db), plan_(plan) {}

  Status AddLevel(const TableRef& ref) {
    Table* table = db_->GetTable(ref.table);
    if (!table) return Status::Database("no table " + ref.table);
    const std::string& alias = ref.effective_alias();
    for (const PlanLevel& level : plan_->levels) {
      if (level.alias == alias) {
        return Status::InvalidArgument("duplicate table alias " + alias);
      }
    }
    PlanLevel& level = plan_->levels.emplace_back();
    level.table = table;
    level.alias = alias;
    return Status::Ok();
  }

  /// Resolves a (possibly alias-qualified) column against the levels.
  Status Resolve(const ColumnRef& ref, PlanColumn* out) const {
    const std::vector<PlanLevel>& levels = plan_->levels;
    if (!ref.table.empty()) {
      for (std::size_t l = 0; l < levels.size(); ++l) {
        if (levels[l].alias != ref.table) continue;
        auto col = levels[l].table->schema().FindColumn(ref.column);
        if (!col) return Status::InvalidArgument("no column " + ref.ToString());
        *out = {l, *col};
        return Status::Ok();
      }
      return Status::InvalidArgument("unknown table alias " + ref.table);
    }
    bool found = false;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      if (auto col = levels[l].table->schema().FindColumn(ref.column)) {
        if (found) return Status::InvalidArgument("ambiguous column " + ref.column);
        *out = {l, *col};
        found = true;
      }
    }
    if (!found) return Status::InvalidArgument("no column " + ref.column);
    return Status::Ok();
  }

  Status Operand(const sql::Operand& op, PlanOperand* out) {
    switch (op.kind) {
      case sql::Operand::Kind::kColumn: {
        PlanColumn col;
        Status s = Resolve(op.column, &col);
        if (!s.ok()) return s;
        out->kind = PlanOperand::Kind::kColumn;
        out->level = col.level;
        out->column = col.column;
        return Status::Ok();
      }
      case sql::Operand::Kind::kLiteral:
        out->kind = PlanOperand::Kind::kLiteral;
        out->literal = op.literal;
        return Status::Ok();
      case sql::Operand::Kind::kParam:
        *out = Param(op.param_index);
        return Status::Ok();
    }
    return Status::Internal("bad operand kind");
  }

  /// VALUES entries and SET values: literals and parameters only.
  Status Constant(const sql::Operand& op, PlanOperand* out) {
    if (op.kind == sql::Operand::Kind::kColumn) {
      return Status::InvalidArgument("no column " + op.column.ToString());
    }
    return Operand(op, out);
  }

  PlanOperand Param(std::size_t index) {
    PlanOperand out;
    out.kind = PlanOperand::Kind::kParam;
    out.param = index;
    plan_->num_params = std::max(plan_->num_params, index + 1);
    return out;
  }

  /// Files the predicate under its deepest level (constants: level 0).
  Status AddPredicate(const Predicate& pred) {
    PlanPredicate p;
    Status s = Operand(pred.lhs, &p.lhs);
    if (!s.ok()) return s;
    s = Operand(pred.rhs, &p.rhs);
    if (!s.ok()) return s;
    p.op = pred.op;
    const std::size_t level = std::max(Level(p.lhs), Level(p.rhs));
    plan_->levels[level].filters.push_back(std::move(p));
    return Status::Ok();
  }

  Status AddPredicates(const std::vector<Predicate>& preds) {
    for (const Predicate& pred : preds) {
      Status s = AddPredicate(pred);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  /// Picks each level's access path: the first of its filters that
  /// compares one of its columns by = against a value already bound
  /// (constant, parameter or a shallower level) with a hash or ordered
  /// index on that column; failing that, the first such < or <= with an
  /// ordered index; failing that, a sequential scan.
  void ChooseAccessPaths() {
    for (std::size_t l = 0; l < plan_->levels.size(); ++l) {
      PlanLevel& level = plan_->levels[l];
      Table* table = level.table;
      std::shared_lock<std::shared_mutex> lock(table->mutex());
      bool have_range = false;
      for (const PlanPredicate& p : level.filters) {
        const PlanOperand* col = &p.lhs;
        const PlanOperand* other = &p.rhs;
        CmpOp op = p.op;
        if (!IsColumnAt(*col, l)) {
          col = &p.rhs;
          other = &p.lhs;
          op = Mirror(op);
          if (!IsColumnAt(*col, l)) continue;
        }
        if (other->kind == PlanOperand::Kind::kColumn && other->level >= l) continue;
        const std::string& name = table->schema().columns()[col->column].name;
        if (op == CmpOp::kEq) {
          if (const rdb::HashIndex* hash = table->FindHashIndex(name)) {
            SetPath(&level, AccessKind::kHashEq, "hash index on " + name + " (=)", *other);
            level.hash = hash;
            break;
          }
          if (const rdb::OrderedIndex* ordered = table->FindOrderedIndex(name)) {
            SetPath(&level, AccessKind::kOrderedEq, "ordered index on " + name + " (=)",
                    *other);
            level.ordered = ordered;
            break;
          }
        } else if ((op == CmpOp::kLt || op == CmpOp::kLe) && !have_range) {
          if (const rdb::OrderedIndex* ordered = table->FindOrderedIndex(name)) {
            const bool less = op == CmpOp::kLt;
            SetPath(&level, less ? AccessKind::kOrderedLess : AccessKind::kOrderedLessEq,
                    "ordered index on " + name + (less ? " (<)" : " (<=)"), *other);
            level.ordered = ordered;
            have_range = true;
          }
        }
      }
      if (level.access == AccessKind::kScan) level.access_text = "sequential scan";
    }
  }

  /// One lock per distinct table, sorted by table name: the canonical
  /// order that keeps concurrent statements deadlock-free.
  void Lock(bool exclusive) {
    std::vector<TableLock>& locks = plan_->locks;
    for (const PlanLevel& level : plan_->levels) {
      if (std::none_of(locks.begin(), locks.end(),
                       [&](const TableLock& l) { return l.table == level.table; })) {
        locks.push_back({level.table, exclusive});
      }
    }
    std::sort(locks.begin(), locks.end(), [](const TableLock& a, const TableLock& b) {
      return a.table->name() < b.table->name();
    });
  }

  Status Select(const SelectStmt& stmt) {
    Status s = AddLevel(stmt.from);
    for (std::size_t j = 0; s.ok() && j < stmt.joins.size(); ++j) {
      s = AddLevel(stmt.joins[j].table);
    }
    for (std::size_t j = 0; s.ok() && j < stmt.joins.size(); ++j) {
      s = AddPredicate(stmt.joins[j].on);
    }
    if (s.ok()) s = AddPredicates(stmt.where);
    if (!s.ok()) return s;

    if (stmt.star) {
      for (std::size_t l = 0; l < plan_->levels.size(); ++l) {
        const auto& cols = plan_->levels[l].table->schema().columns();
        for (std::size_t c = 0; c < cols.size(); ++c) {
          plan_->projection.push_back({l, c});
          plan_->columns.push_back(plan_->levels[l].alias + "." + cols[c].name);
        }
      }
    } else if (stmt.count_star) {
      plan_->count_star = true;
      plan_->columns.push_back("count");
    } else {
      for (const ColumnRef& ref : stmt.columns) {
        PlanColumn col;
        s = Resolve(ref, &col);
        if (!s.ok()) return s;
        plan_->projection.push_back(col);
        plan_->columns.push_back(ref.ToString());
      }
    }
    if (stmt.order_by && !stmt.count_star) {
      PlanColumn col;
      s = Resolve(*stmt.order_by, &col);
      if (!s.ok()) return s;
      plan_->order_by = col;
      plan_->order_desc = stmt.order_desc;
    }
    plan_->limit = Count(stmt.limit, stmt.limit_param);
    plan_->offset = Count(stmt.offset, stmt.offset_param);
    ChooseAccessPaths();
    Lock(/*exclusive=*/false);
    return Status::Ok();
  }

  Status Insert(const InsertStmt& stmt) {
    Status s = AddLevel(TableRef{stmt.table, ""});
    if (!s.ok()) return s;
    const rdb::TableSchema& schema = plan_->levels[0].table->schema();
    if (stmt.columns.empty()) {
      for (std::size_t i = 0; i < schema.num_columns(); ++i) plan_->positions.push_back(i);
    } else {
      for (const std::string& name : stmt.columns) {
        auto col = schema.FindColumn(name);
        if (!col) return Status::InvalidArgument("no column " + name + " in " + stmt.table);
        plan_->positions.push_back(*col);
      }
    }
    for (std::size_t pos : plan_->positions) {
      plan_->to_timestamp.push_back(schema.columns()[pos].type ==
                                    rdb::ColumnType::kTimestamp);
    }
    for (const std::vector<sql::Operand>& row : stmt.rows) {
      if (row.size() != plan_->positions.size()) {
        return Status::InvalidArgument("VALUES arity mismatch for " + stmt.table);
      }
      std::vector<PlanOperand>& values = plan_->values.emplace_back(row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        s = Constant(row[i], &values[i]);
        if (!s.ok()) return s;
      }
    }
    Lock(/*exclusive=*/true);
    return Status::Ok();
  }

  Status Update(const UpdateStmt& stmt) {
    Status s = AddLevel(TableRef{stmt.table, ""});
    if (!s.ok()) return s;
    const rdb::TableSchema& schema = plan_->levels[0].table->schema();
    for (const Assignment& a : stmt.sets) {
      auto col = schema.FindColumn(a.column);
      if (!col) return Status::InvalidArgument("no column " + a.column);
      PlanAssignment& set = plan_->sets.emplace_back();
      set.column = *col;
      set.is_delta = a.is_delta;
      set.delta = a.delta;
      if (!a.is_delta) {
        s = Constant(a.value, &set.value);
        if (!s.ok()) return s;
        set.to_timestamp = schema.columns()[*col].type == rdb::ColumnType::kTimestamp;
      }
    }
    return Matching(stmt.where);
  }

  /// DELETE, and UPDATE's row selection: the single-table SELECT plan.
  Status Matching(const std::vector<Predicate>& where) {
    if (plan_->levels.empty()) return Status::Internal("no target table");
    Status s = AddPredicates(where);
    if (!s.ok()) return s;
    ChooseAccessPaths();
    Lock(/*exclusive=*/true);
    return Status::Ok();
  }

 private:
  static std::size_t Level(const PlanOperand& op) {
    return op.kind == PlanOperand::Kind::kColumn ? op.level : 0;
  }
  static bool IsColumnAt(const PlanOperand& op, std::size_t level) {
    return op.kind == PlanOperand::Kind::kColumn && op.level == level;
  }
  static void SetPath(PlanLevel* level, AccessKind kind, std::string text,
                      const PlanOperand& key) {
    level->access = kind;
    level->access_text = std::move(text);
    level->key = key;
  }

  std::optional<PlanOperand> Count(const std::optional<uint64_t>& literal,
                                   const std::optional<std::size_t>& param) {
    if (param) return Param(*param);
    if (!literal) return std::nullopt;
    PlanOperand out;
    out.literal = Value::Int(static_cast<int64_t>(*literal));
    return out;
  }

  rdb::Database* db_;
  Plan* plan_;
};

}  // namespace

bool IsPlanned(const Statement& stmt) {
  return std::holds_alternative<SelectStmt>(stmt) ||
         std::holds_alternative<ExplainStmt>(stmt) ||
         std::holds_alternative<InsertStmt>(stmt) ||
         std::holds_alternative<UpdateStmt>(stmt) ||
         std::holds_alternative<DeleteStmt>(stmt);
}

Status BuildPlan(rdb::Database* db, const Statement& stmt, Plan* plan) {
  Planner planner(db, plan);
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
    plan->kind = Plan::Kind::kSelect;
    return planner.Select(*s);
  }
  if (const auto* s = std::get_if<ExplainStmt>(&stmt)) {
    plan->kind = Plan::Kind::kExplain;
    return planner.Select(s->select);
  }
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    plan->kind = Plan::Kind::kInsert;
    return planner.Insert(*s);
  }
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
    plan->kind = Plan::Kind::kUpdate;
    return planner.Update(*s);
  }
  if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
    plan->kind = Plan::Kind::kDelete;
    Status st = planner.AddLevel(TableRef{s->table, ""});
    if (!st.ok()) return st;
    return planner.Matching(s->where);
  }
  return Status::InvalidArgument("statement has no plan");
}

}  // namespace sql
