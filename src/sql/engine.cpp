#include "sql/engine.h"

#include <algorithm>
#include <shared_mutex>

#include "common/strings.h"
#include "common/trace_context.h"
#include "rdb/wal_record.h"
#include "sql/parser.h"

namespace sql {
namespace {

using rdb::Rid;
using rdb::Row;
using rdb::SlotState;
using rdb::Table;
using rdb::Value;
using rlscommon::Status;

/// Scratch a plan keeps between executions is trimmed back above these
/// sizes, so one large result does not pin its memory to a connection.
constexpr std::size_t kRetainedRids = 4096;
constexpr std::size_t kRetainedMatches = 256;

/// Holds a plan's table locks for one execution, taken in the plan's
/// canonical order.
class PlanLocks {
 public:
  explicit PlanLocks(const std::vector<TableLock>& locks) : locks_(locks) {
    for (const TableLock& l : locks_) {
      if (l.exclusive) {
        l.table->mutex().lock();
      } else {
        l.table->mutex().lock_shared();
      }
    }
  }
  ~PlanLocks() {
    for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) {
      if (it->exclusive) {
        it->table->mutex().unlock();
      } else {
        it->table->mutex().unlock_shared();
      }
    }
  }
  PlanLocks(const PlanLocks&) = delete;
  PlanLocks& operator=(const PlanLocks&) = delete;

 private:
  const std::vector<TableLock>& locks_;
};

/// One execution of a plan: a left-deep nested loop over its levels that
/// reads parameters in place and fills the levels' scratch rows.
class PlanRun {
 public:
  PlanRun(Plan& plan, const std::vector<Value>& params)
      : plan_(plan), params_(params) {}

  ~PlanRun() {
    for (PlanLevel& level : plan_.levels) {
      if (level.rids.capacity() > kRetainedRids) std::vector<Rid>().swap(level.rids);
    }
    if (plan_.matches.size() > kRetainedMatches) {
      std::vector<std::pair<Rid, Row>>().swap(plan_.matches);
    }
    if (plan_.inserted.capacity() > kRetainedRids) std::vector<Rid>().swap(plan_.inserted);
  }

  const Value& Get(const PlanOperand& op) const {
    switch (op.kind) {
      case PlanOperand::Kind::kColumn: return plan_.levels[op.level].row[op.column];
      case PlanOperand::Kind::kParam: return params_[op.param];
      case PlanOperand::Kind::kLiteral: break;
    }
    return op.literal;
  }

  /// Reads a LIMIT/OFFSET operand (absent = no clause).
  Status Count(const std::optional<PlanOperand>& op, const char* clause,
               std::optional<uint64_t>* out) const {
    if (!op) return Status::Ok();
    const Value& v = Get(*op);
    if (!v.is_int() || v.AsInt() < 0) {
      return Status::InvalidArgument(std::string(clause) +
                                     " expects a non-negative integer");
    }
    *out = static_cast<uint64_t>(v.AsInt());
    return Status::Ok();
  }

  /// Calls emit() for every row combination that passes the filters of
  /// levels `level` and deeper; stops once emit() returns false.
  template <typename Emit>
  void Walk(std::size_t level, Emit& emit) {
    if (level == plan_.levels.size()) {
      if (!emit()) done_ = true;
      return;
    }
    PlanLevel& l = plan_.levels[level];
    if (l.access == AccessKind::kScan) {
      // One captured pointer keeps the callback within std::function's
      // inline storage.
      struct Ctx {
        PlanRun* run;
        std::size_t level;
        Emit* emit;
      } ctx{this, level, &emit};
      l.table->Scan([&ctx](Rid rid, SlotState st) {
        if (st == SlotState::kLive) ctx.run->Visit(ctx.level, rid, *ctx.emit);
        return !ctx.run->done_;
      });
      return;
    }
    const Value& key = Get(l.key);
    l.rids.clear();
    switch (l.access) {
      case AccessKind::kHashEq: l.hash->Lookup(key, &l.rids); break;
      case AccessKind::kOrderedEq: l.ordered->Lookup(key, &l.rids); break;
      case AccessKind::kOrderedLess: l.ordered->LookupLess(key, &l.rids); break;
      case AccessKind::kOrderedLessEq:
        l.ordered->LookupRange(Value::Null(), key, &l.rids);
        break;
      case AccessKind::kScan: break;
    }
    for (std::size_t i = 0; i < l.rids.size() && !done_; ++i) {
      Visit(level, l.rids[i], emit);
    }
  }

 private:
  template <typename Emit>
  void Visit(std::size_t level, Rid rid, Emit& emit) {
    PlanLevel& l = plan_.levels[level];
    if (!l.table->IsLive(rid)) {
      // Dead rid from a tombstoned index entry: the visibility check
      // still fetches and decodes the tuple (PostgreSQL dead-tuple cost,
      // paper Fig. 8).
      (void)l.table->ReadRow(rid, &plan_.dead_row);
      return;
    }
    if (!l.table->ReadRow(rid, &l.row).ok()) return;
    for (const PlanPredicate& p : l.filters) {
      if (!Eval(p)) return;
    }
    l.rid = rid;
    Walk(level + 1, emit);
  }

  bool Eval(const PlanPredicate& pred) {
    const Value& lhs = Get(pred.lhs);
    const Value& rhs = Get(pred.rhs);
    if (pred.op == CmpOp::kLike) {
      if (!lhs.is_string() || !rhs.is_string()) return false;
      // A constant pattern is translated once per execution.
      if (pred.rhs.kind == PlanOperand::Kind::kColumn || glob_of_ != &rhs) {
        plan_.like_glob = rlscommon::LikeToGlob(rhs.AsString());
        glob_of_ = &rhs;
      }
      return rlscommon::WildcardMatch(plan_.like_glob, lhs.AsString());
    }
    // SQL three-valued logic: any comparison with NULL is not-true, except
    // "= NULL" which we treat as IS NULL (the RLS never generates IS NULL).
    const int cmp = lhs.Compare(rhs);
    const bool has_null = lhs.is_null() || rhs.is_null();
    switch (pred.op) {
      case CmpOp::kEq: return cmp == 0 && (lhs.is_null() == rhs.is_null());
      case CmpOp::kNe: return !has_null && cmp != 0;
      case CmpOp::kLt: return !has_null && cmp < 0;
      case CmpOp::kLe: return !has_null && cmp <= 0;
      case CmpOp::kGt: return !has_null && cmp > 0;
      case CmpOp::kGe: return !has_null && cmp >= 0;
      case CmpOp::kLike: return false;  // handled above
    }
    return false;
  }

  Plan& plan_;
  const std::vector<Value>& params_;
  bool done_ = false;
  const Value* glob_of_ = nullptr;  // pattern plan_.like_glob came from
};

/// UPDATE/DELETE row selection (exclusive lock held): copies each
/// matching rid and row image into plan.matches[0..n) before anything
/// mutates, so the mutations cannot disturb the walk. Returns n.
std::size_t CollectMatches(PlanRun& run, Plan& plan) {
  std::size_t n = 0;
  const PlanLevel& level = plan.levels[0];
  auto emit = [&] {
    if (n == plan.matches.size()) plan.matches.emplace_back();
    plan.matches[n].first = level.rid;
    plan.matches[n].second = level.row;
    ++n;
    return true;
  };
  run.Walk(0, emit);
  return n;
}

}  // namespace

Status Engine::ExecuteSql(std::string_view text, const std::vector<Value>& params,
                          Session* session, ResultSet* result) {
  PreparedStatement prepared;
  Status s = Parse(text, &prepared.stmt);
  if (!s.ok()) return s;
  return Execute(&prepared, params, session, result);
}

Status Engine::Prepare(PreparedStatement* stmt, Plan** plan) {
  const uint64_t epoch = db_->schema_epoch();
  if (!stmt->plan || stmt->plan->schema_epoch != epoch) {
    auto fresh = std::make_unique<Plan>();
    Status s = BuildPlan(db_, stmt->stmt, fresh.get());
    if (!s.ok()) {
      stmt->plan.reset();
      return s;
    }
    fresh->schema_epoch = epoch;
    stmt->plan = std::move(fresh);
  }
  *plan = stmt->plan.get();
  return Status::Ok();
}

Status Engine::Execute(PreparedStatement* stmt, const std::vector<Value>& params,
                       Session* session, ResultSet* result) {
  // Keep the caller's buffers: a reused ResultSet allocates nothing here.
  result->columns.clear();
  result->rows.clear();
  result->affected = 0;
  result->last_insert_id = 0;
  Plan* plan = nullptr;
  if (IsPlanned(stmt->stmt)) {
    Status s = Prepare(stmt, &plan);
    if (!s.ok()) return s;
    if (params.size() < plan->num_params) {
      return Status::InvalidArgument("parameter " + std::to_string(params.size() + 1) +
                                     " not bound");
    }
  }
  // Recovery profiles: hold the txn gate shared across the window
  // between applying a mutation to the tables and reserving its WAL
  // LSN, so a deferred checkpoint (group-commit wrap) can wait out that
  // window and never snapshot effects its LSN stamp would replay again.
  const bool mutating = plan && (plan->kind == Plan::Kind::kInsert ||
                                 plan->kind == Plan::Kind::kUpdate ||
                                 plan->kind == Plan::Kind::kDelete);
  if (session && mutating && !session->holds_txn_gate_ &&
      db_->profile().wal_recovery) {
    db_->LockTxnGateShared();
    session->holds_txn_gate_ = true;
  }
  Status status;
  if (!plan) {
    status = ExecUnplanned(stmt->stmt, session);
  } else {
    switch (plan->kind) {
      case Plan::Kind::kSelect: status = RunSelect(*plan, params, result); break;
      case Plan::Kind::kExplain: status = RunExplain(*plan, result); break;
      case Plan::Kind::kInsert: status = RunInsert(*plan, params, session, result); break;
      case Plan::Kind::kUpdate: status = RunUpdate(*plan, params, session, result); break;
      case Plan::Kind::kDelete: status = RunDelete(*plan, params, session, result); break;
    }
  }
  if (!status.ok()) {
    // A failed statement outside a transaction has nothing left to
    // commit or roll back; do not keep blocking checkpoints.
    if (session && !session->in_txn_) ReleaseTxnGate(session);
    return status;
  }
  // Autocommit any buffered mutations when no transaction is open.
  if (session && !session->in_txn_ && !session->wal_buffer_.empty()) {
    session->undo_.clear();
    return CommitWal(session);
  }
  // Mutating statement that touched no rows outside a transaction: the
  // gate was taken but there is nothing to commit.
  if (session && !session->in_txn_) ReleaseTxnGate(session);
  if (session) result->last_insert_id = session->last_insert_id_;
  return Status::Ok();
}

Status Engine::RunSelect(Plan& plan, const std::vector<Value>& params,
                         ResultSet* result) {
  PlanRun run(plan, params);
  std::optional<uint64_t> limit, offset_clause;
  Status s = run.Count(plan.limit, "LIMIT", &limit);
  if (s.ok()) s = run.Count(plan.offset, "OFFSET", &offset_clause);
  if (!s.ok()) return s;
  result->columns = plan.columns;

  PlanLocks locks(plan.locks);
  if (plan.count_star) {
    int64_t count = 0;
    auto emit = [&] {
      ++count;
      return true;
    };
    run.Walk(0, emit);
    result->rows.push_back({Value::Int(count)});
    return Status::Ok();
  }

  // ORDER BY / OFFSET disable the early-limit short circuit: every match
  // must be seen before sorting/slicing.
  const bool ordered = plan.order_by.has_value();
  const uint64_t offset = offset_clause.value_or(0);
  const bool early_limit = limit && !ordered && offset == 0;
  if (early_limit && *limit == 0) return Status::Ok();
  std::vector<Value> sort_keys;  // parallel to result->rows when ordered
  auto emit = [&] {
    Row& out = result->rows.emplace_back();
    out.reserve(plan.projection.size());
    for (const PlanColumn& c : plan.projection) {
      out.push_back(plan.levels[c.level].row[c.column]);
    }
    if (ordered) {
      sort_keys.push_back(plan.levels[plan.order_by->level].row[plan.order_by->column]);
    }
    return !(early_limit && result->rows.size() >= *limit);
  };
  run.Walk(0, emit);

  if (ordered) {
    // Stable sort by key (indices first, then permute).
    std::vector<std::size_t> perm(result->rows.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      const int cmp = sort_keys[a].Compare(sort_keys[b]);
      return plan.order_desc ? cmp > 0 : cmp < 0;
    });
    std::vector<Row> sorted;
    sorted.reserve(perm.size());
    for (std::size_t i : perm) sorted.push_back(std::move(result->rows[i]));
    result->rows = std::move(sorted);
  }
  if (offset > 0 || (limit && !early_limit)) {
    std::vector<Row> page;
    for (std::size_t i = offset; i < result->rows.size(); ++i) {
      if (limit && page.size() >= *limit) break;
      page.push_back(std::move(result->rows[i]));
    }
    result->rows = std::move(page);
  }
  return Status::Ok();
}

Status Engine::RunExplain(const Plan& plan, ResultSet* result) {
  result->columns = {"source", "access_path"};
  for (const PlanLevel& level : plan.levels) {
    result->rows.push_back({Value::String(level.alias), Value::String(level.access_text)});
  }
  return Status::Ok();
}

Status Engine::RunInsert(Plan& plan, const std::vector<Value>& params,
                         Session* session, ResultSet* result) {
  PlanRun run(plan, params);
  Table* table = plan.levels[0].table;
  const rdb::TableSchema& schema = table->schema();
  PlanLocks locks(plan.locks);
  plan.inserted.clear();
  for (const std::vector<PlanOperand>& values : plan.values) {
    Row row(schema.num_columns(), Value::Null());
    for (std::size_t i = 0; i < values.size(); ++i) {
      Value& v = row[plan.positions[i]];
      v = run.Get(values[i]);
      if (plan.to_timestamp[i] && v.is_int()) v = Value::Timestamp(v.AsInt());
    }
    Rid rid;
    int64_t auto_id = 0;
    Status s = table->Insert(row, &rid, &auto_id);
    if (!s.ok()) {
      // Statement atomicity: undo this statement's own inserts.
      for (auto it = plan.inserted.rbegin(); it != plan.inserted.rend(); ++it) {
        (void)table->Delete(*it);
      }
      return s;
    }
    plan.inserted.push_back(rid);
    if (session) {
      if (auto_id != 0) {
        session->last_insert_id_ = auto_id;
        // Record the row as stored (with the assigned id) for undo.
        if (auto auto_col = schema.AutoIncrementColumn()) {
          row[*auto_col] = Value::Int(auto_id);
        }
      }
      // The logged image carries the assigned auto-increment id, so WAL
      // replay re-inserts the identical row.
      rdb::AppendInsertRecord(table->name(), row, &session->wal_buffer_);
      session->undo_.push_back({UndoRecord::Kind::kInsert, table->name(), std::move(row), {}});
    }
  }
  result->affected = plan.inserted.size();
  if (session) result->last_insert_id = session->last_insert_id_;
  return Status::Ok();
}

Status Engine::RunUpdate(Plan& plan, const std::vector<Value>& params,
                         Session* session, ResultSet* result) {
  PlanRun run(plan, params);
  Table* table = plan.levels[0].table;
  PlanLocks locks(plan.locks);
  const std::size_t n = CollectMatches(run, plan);
  for (std::size_t m = 0; m < n; ++m) {
    auto& [rid, old_row] = plan.matches[m];
    Row new_row = old_row;
    for (const PlanAssignment& set : plan.sets) {
      Value& v = new_row[set.column];
      if (set.is_delta) {
        if (!v.is_int() && !v.is_timestamp()) {
          return Status::InvalidArgument("delta update on non-integer column");
        }
        v = Value::Int(v.AsInt() + set.delta);
      } else {
        v = run.Get(set.value);
        if (set.to_timestamp && v.is_int()) v = Value::Timestamp(v.AsInt());
      }
    }
    Rid new_rid;
    Status s = table->Update(rid, new_row, &new_rid);
    if (!s.ok()) return s;
    if (session) {
      // Both images: replay locates the row by its old value before
      // installing the new one.
      rdb::AppendUpdateRecord(table->name(), old_row, new_row, &session->wal_buffer_);
      session->undo_.push_back({UndoRecord::Kind::kUpdate, table->name(),
                                std::move(new_row), std::move(old_row)});
    }
    ++result->affected;
  }
  return Status::Ok();
}

Status Engine::RunDelete(Plan& plan, const std::vector<Value>& params,
                         Session* session, ResultSet* result) {
  PlanRun run(plan, params);
  Table* table = plan.levels[0].table;
  PlanLocks locks(plan.locks);
  const std::size_t n = CollectMatches(run, plan);
  for (std::size_t m = 0; m < n; ++m) {
    auto& [rid, old_row] = plan.matches[m];
    Status s = table->Delete(rid);
    if (!s.ok()) return s;
    if (session) {
      rdb::AppendDeleteRecord(table->name(), old_row, &session->wal_buffer_);
      session->undo_.push_back(
          {UndoRecord::Kind::kDelete, table->name(), {}, std::move(old_row)});
    }
    ++result->affected;
  }
  return Status::Ok();
}

Status Engine::ExecUnplanned(const Statement& stmt, Session* session) {
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) return ExecCreateTable(*s);
  if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
    return db_->CreateIndex(s->table, s->index, s->column,
                            s->ordered ? rdb::IndexKind::kOrdered : rdb::IndexKind::kHash,
                            s->unique);
  }
  if (const auto* s = std::get_if<DropTableStmt>(&stmt)) return db_->DropTable(s->table);
  if (const auto* s = std::get_if<VacuumStmt>(&stmt)) {
    if (s->table.empty()) {
      db_->VacuumAll();
      return Status::Ok();
    }
    return db_->Vacuum(s->table);
  }
  if (const auto* s = std::get_if<TxnStmt>(&stmt)) return ExecTxn(*s, session);
  return Status::Internal("unhandled statement kind");
}

Status Engine::ExecCreateTable(const CreateTableStmt& stmt) {
  Status s = db_->CreateTable(stmt.schema);
  if (!s.ok() || stmt.primary_key.empty()) return s;
  return db_->CreateIndex(stmt.schema.name(), "pk_" + stmt.schema.name(),
                          stmt.primary_key, rdb::IndexKind::kHash, /*unique=*/true);
}

Status Engine::ExecTxn(const TxnStmt& stmt, Session* session) {
  if (!session) return Status::InvalidArgument("transaction statements need a session");
  switch (stmt.kind) {
    case TxnStmt::Kind::kBegin:
      if (session->in_txn_) return Status::InvalidArgument("transaction already open");
      session->in_txn_ = true;
      session->undo_.clear();
      session->wal_buffer_.clear();
      return Status::Ok();
    case TxnStmt::Kind::kCommit: {
      if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
      session->in_txn_ = false;
      session->undo_.clear();
      return CommitWal(session);
    }
    case TxnStmt::Kind::kRollback: {
      if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
      session->in_txn_ = false;
      session->wal_buffer_.clear();
      Status s = ApplyUndo(session, 0);
      ReleaseTxnGate(session);
      return s;
    }
  }
  return Status::Internal("bad txn kind");
}

Status Engine::CommitWal(Session* session) {
  rdb::Wal::CommitTicket ticket;
  Status s = CommitWalBegin(session, &ticket);
  if (!s.ok()) return s;
  return CommitWait(&ticket);
}

Status Engine::CommitWalBegin(Session* session,
                              rdb::Wal::CommitTicket* ticket) {
  // Stage stamp on the ambient request span: time up to here was the
  // transaction's parse/plan/execute work; the WAL commit stamps
  // wal_sync once its group (or its own sync) completes.
  rlscommon::StampHop("db_txn");
  const rdb::BackendProfile& profile = db_->profile();
  Status s = db_->wal().CommitBegin(session->wal_buffer_,
                                    profile.durable_flush,
                                    profile.durable_flush_penalty, ticket);
  session->wal_buffer_.clear();
  // The WAL has reserved this transaction's LSN (or rejected it): a
  // checkpoint snapshot from here on accounts for it correctly.
  ReleaseTxnGate(session);
  return s;
}

Status Engine::CommitBegin(Session* session, rdb::Wal::CommitTicket* ticket) {
  if (!session) return Status::InvalidArgument("commit needs a session");
  if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
  session->in_txn_ = false;
  session->undo_.clear();
  return CommitWalBegin(session, ticket);
}

Status Engine::CommitWait(rdb::Wal::CommitTicket* ticket) {
  Status s = db_->wal().CommitFinish(ticket);
  // A batch that crossed the recycle threshold deferred its
  // checkpoint; run it now that this thread holds no locks.
  Status ckpt = db_->MaybeCheckpoint();
  return s.ok() ? ckpt : s;
}

Status Engine::RollbackToSavepoint(Session* session, const Savepoint& sp) {
  if (!session) return Status::InvalidArgument("savepoints need a session");
  if (session->wal_buffer_.size() > sp.wal_size) {
    session->wal_buffer_.resize(sp.wal_size);
  }
  return ApplyUndo(session, sp.undo_size);
}

void Engine::ReleaseTxnGate(Session* session) {
  if (!session->holds_txn_gate_) return;
  session->holds_txn_gate_ = false;
  db_->UnlockTxnGateShared();
}

Status Engine::ApplyUndo(Session* session, std::size_t down_to) {
  Status first_error = Status::Ok();
  while (session->undo_.size() > down_to) {
    UndoRecord rec = std::move(session->undo_.back());
    session->undo_.pop_back();
    Table* table = db_->GetTable(rec.table);
    if (!table) continue;  // table dropped mid-transaction
    std::unique_lock<std::shared_mutex> lock(table->mutex());
    Status s;
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        s = table->DeleteByValue(rec.row);
        break;
      case UndoRecord::Kind::kDelete:
        s = table->Insert(std::move(rec.old_row), nullptr, nullptr);
        break;
      case UndoRecord::Kind::kUpdate: {
        s = table->DeleteByValue(rec.row);
        if (s.ok()) s = table->Insert(std::move(rec.old_row), nullptr, nullptr);
        break;
      }
    }
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace sql
