// SQL execution engine: runs parsed statements against an rdb::Database.
//
// Every SELECT, EXPLAIN, INSERT, UPDATE and DELETE runs from a compiled
// Plan (plan.h) and only from one. The plan is built the first time a
// PreparedStatement runs and kept beside it (dbapi::Connection caches one
// per statement text), so the catalog lookups, column and predicate
// binding, access-path choice and lock ordering happen once, not per
// call. A plan records the database's schema epoch; CREATE TABLE, DROP
// TABLE and CREATE INDEX move the epoch, and a plan from an older epoch
// is rebuilt before it runs, so it never holds a dropped Table* or
// misses a new index. Running a plan reads its parameters in place and
// reuses its per-level rid and row scratch.
//
// Planning is deliberately simple and deterministic, in the spirit of the
// hand-tuned SQL the 2004 RLS issued through ODBC:
//   * joins are left-deep nested loops in FROM-clause order;
//   * each level is reached by an equality predicate on an indexed
//     column (hash index first, then ordered), else by a < or <=
//     predicate on an ordered-index column, else by a sequential scan.
// The RLS schema indexes every join/lookup column, so all hot queries run
// index-to-index. EXPLAIN prints each level's access path.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "rdb/database.h"
#include "sql/ast.h"
#include "sql/plan.h"
#include "sql/result_set.h"
#include "sql/session.h"

namespace sql {

/// A point inside an open transaction that RollbackToSavepoint can
/// rewind to: later undo records are inverted and later WAL-buffer
/// bytes dropped, leaving the transaction open. Powers per-item
/// isolation inside batched (multi-row) transactions.
struct Savepoint {
  std::size_t undo_size = 0;
  std::size_t wal_size = 0;
};

/// A parsed statement plus the plan compiled from it on its first run.
/// The plan carries per-execution scratch: one PreparedStatement must not
/// run on two threads at once.
struct PreparedStatement {
  Statement stmt;
  std::unique_ptr<Plan> plan;  // null until run; rebuilt on a schema change
};

class Engine {
 public:
  explicit Engine(rdb::Database* db) : db_(db) {}

  /// Executes a prepared statement with positional parameters, planning
  /// it first if it has no plan for the current schema epoch.
  /// Autocommits unless `session` has an open transaction.
  rlscommon::Status Execute(PreparedStatement* stmt,
                            const std::vector<rdb::Value>& params,
                            Session* session, ResultSet* result);

  /// Parses and executes in one step (convenience for tests/examples).
  rlscommon::Status ExecuteSql(std::string_view text,
                               const std::vector<rdb::Value>& params,
                               Session* session, ResultSet* result);

  rdb::Database* database() { return db_; }

  /// First half of COMMIT, split so a caller can release its own
  /// ordering lock before parking for the group sync: closes the open
  /// transaction, hands the WAL buffer to the log (reserves the LSN and
  /// enqueues without blocking on disk) and releases the txn gate.
  /// Complete with CommitWait.
  rlscommon::Status CommitBegin(Session* session,
                                rdb::Wal::CommitTicket* ticket);

  /// Second half of COMMIT: parks until the ticket's batch is synced,
  /// then runs any checkpoint a group-commit wrap deferred.
  rlscommon::Status CommitWait(rdb::Wal::CommitTicket* ticket);

  /// Marks the current position of the open transaction (batched write
  /// paths take one per item).
  Savepoint MakeSavepoint(const Session* session) const {
    return Savepoint{session->undo_.size(), session->wal_buffer_.size()};
  }

  /// Rewinds the open transaction to `sp`: inverts the undo records
  /// pushed since, drops their WAL bytes, keeps the transaction open.
  rlscommon::Status RollbackToSavepoint(Session* session, const Savepoint& sp);

 private:
  /// Returns the statement's plan, building it when it is missing or
  /// older than the database's schema epoch.
  rlscommon::Status Prepare(PreparedStatement* stmt, Plan** plan);

  rlscommon::Status RunSelect(Plan& plan, const std::vector<rdb::Value>& params,
                              ResultSet* result);
  rlscommon::Status RunExplain(const Plan& plan, ResultSet* result);
  rlscommon::Status RunInsert(Plan& plan, const std::vector<rdb::Value>& params,
                              Session* session, ResultSet* result);
  rlscommon::Status RunUpdate(Plan& plan, const std::vector<rdb::Value>& params,
                              Session* session, ResultSet* result);
  rlscommon::Status RunDelete(Plan& plan, const std::vector<rdb::Value>& params,
                              Session* session, ResultSet* result);

  /// DDL, VACUUM and transaction control: no plan.
  rlscommon::Status ExecUnplanned(const Statement& stmt, Session* session);
  rlscommon::Status ExecCreateTable(const CreateTableStmt& stmt);
  rlscommon::Status ExecTxn(const TxnStmt& stmt, Session* session);

  /// Commits the session's WAL buffer (autocommit or explicit COMMIT):
  /// CommitWalBegin + CommitWait in one blocking step.
  rlscommon::Status CommitWal(Session* session);

  /// Hands the WAL buffer to the log (enqueue half) and releases the
  /// txn gate. The commit completes via CommitWait on the ticket.
  rlscommon::Status CommitWalBegin(Session* session,
                                   rdb::Wal::CommitTicket* ticket);

  /// Applies the undo log in reverse (ROLLBACK / failed statement).
  rlscommon::Status ApplyUndo(Session* session, std::size_t down_to);

  /// Drops the session's shared hold on the database txn gate, if any.
  void ReleaseTxnGate(Session* session);

  rdb::Database* db_;
};

}  // namespace sql
