#include "sql/parser.h"

#include <cctype>

#include "sql/lexer.h"

namespace sql {
namespace {

using rlscommon::Status;

/// Token cursor with helpers; all Parse* methods return Status and write
/// through out-parameters.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Status ParseStatement(Statement* out) {
    const Token& t = Peek();
    Status status;
    if (t.IsKeyword("SELECT")) {
      SelectStmt stmt;
      status = ParseSelect(&stmt);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("EXPLAIN")) {
      Advance();
      ExplainStmt stmt;
      status = ParseSelect(&stmt.select);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("INSERT")) {
      InsertStmt stmt;
      status = ParseInsert(&stmt);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("UPDATE")) {
      UpdateStmt stmt;
      status = ParseUpdate(&stmt);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("DELETE")) {
      DeleteStmt stmt;
      status = ParseDelete(&stmt);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("CREATE")) {
      status = ParseCreate(out);
    } else if (t.IsKeyword("DROP")) {
      DropTableStmt stmt;
      status = ParseDrop(&stmt);
      if (status.ok()) *out = std::move(stmt);
    } else if (t.IsKeyword("VACUUM")) {
      Advance();
      VacuumStmt stmt;
      if (Peek().kind == TokenKind::kIdent) stmt.table = Advance().text;
      *out = std::move(stmt);
    } else if (t.IsKeyword("BEGIN") || t.IsKeyword("START")) {
      Advance();
      if (Peek().IsKeyword("TRANSACTION")) Advance();
      *out = TxnStmt{TxnStmt::Kind::kBegin};
    } else if (t.IsKeyword("COMMIT")) {
      Advance();
      *out = TxnStmt{TxnStmt::Kind::kCommit};
    } else if (t.IsKeyword("ROLLBACK")) {
      Advance();
      *out = TxnStmt{TxnStmt::Kind::kRollback};
    } else {
      return Error("expected a statement keyword");
    }
    if (!status.ok()) return status;
    if (Peek().kind == TokenKind::kSymbol && Peek().text == ";") Advance();
    if (Peek().kind != TokenKind::kEnd) return Error("trailing input after statement");
    return Status::Ok();
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool AcceptSymbol(std::string_view sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(std::string_view sym) {
    if (!AcceptSymbol(sym)) return Error(std::string("expected '") + std::string(sym) + "'");
    return Status::Ok();
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) return Error(std::string("expected ") + std::string(kw));
    return Status::Ok();
  }

  Status ExpectIdent(std::string* out) {
    if (Peek().kind != TokenKind::kIdent) return Error("expected identifier");
    *out = Advance().text;
    return Status::Ok();
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("SQL parse error at offset " +
                                   std::to_string(Peek().offset) + ": " + message +
                                   " (got '" + Peek().text + "')");
  }

  // column ref: ident ['.' ident]
  Status ParseColumnRef(ColumnRef* out) {
    std::string first;
    Status s = ExpectIdent(&first);
    if (!s.ok()) return s;
    if (AcceptSymbol(".")) {
      out->table = std::move(first);
      return ExpectIdent(&out->column);
    }
    out->column = std::move(first);
    return Status::Ok();
  }

  Status ParseOperand(Operand* out) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kParam:
        Advance();
        *out = Operand::Param(param_count_++);
        return Status::Ok();
      case TokenKind::kString:
        *out = Operand::Literal(rdb::Value::String(Advance().text));
        return Status::Ok();
      case TokenKind::kInt:
        *out = Operand::Literal(rdb::Value::Int(Advance().int_value));
        return Status::Ok();
      case TokenKind::kFloat:
        *out = Operand::Literal(rdb::Value::Double(Advance().float_value));
        return Status::Ok();
      case TokenKind::kIdent: {
        if (t.IsKeyword("NULL")) {
          Advance();
          *out = Operand::Literal(rdb::Value::Null());
          return Status::Ok();
        }
        ColumnRef ref;
        Status s = ParseColumnRef(&ref);
        if (!s.ok()) return s;
        *out = Operand::Column(std::move(ref));
        return Status::Ok();
      }
      default:
        return Error("expected literal, parameter or column");
    }
  }

  Status ParseCmpOp(CmpOp* out) {
    if (Peek().IsKeyword("LIKE")) {
      Advance();
      *out = CmpOp::kLike;
      return Status::Ok();
    }
    if (Peek().kind != TokenKind::kSymbol) return Error("expected comparison operator");
    const std::string& s = Peek().text;
    if (s == "=") *out = CmpOp::kEq;
    else if (s == "!=" || s == "<>") *out = CmpOp::kNe;
    else if (s == "<") *out = CmpOp::kLt;
    else if (s == "<=") *out = CmpOp::kLe;
    else if (s == ">") *out = CmpOp::kGt;
    else if (s == ">=") *out = CmpOp::kGe;
    else return Error("expected comparison operator");
    Advance();
    return Status::Ok();
  }

  Status ParsePredicate(Predicate* out) {
    Status s = ParseOperand(&out->lhs);
    if (!s.ok()) return s;
    s = ParseCmpOp(&out->op);
    if (!s.ok()) return s;
    return ParseOperand(&out->rhs);
  }

  Status ParseWhere(std::vector<Predicate>* out) {
    if (!AcceptKeyword("WHERE")) return Status::Ok();
    do {
      Predicate pred;
      Status s = ParsePredicate(&pred);
      if (!s.ok()) return s;
      out->push_back(std::move(pred));
    } while (AcceptKeyword("AND"));
    return Status::Ok();
  }

  Status ParseTableRef(TableRef* out) {
    Status s = ExpectIdent(&out->table);
    if (!s.ok()) return s;
    if (AcceptKeyword("AS")) return ExpectIdent(&out->alias);
    // Bare alias: ident not followed by a clause keyword.
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdent && !t.IsKeyword("WHERE") && !t.IsKeyword("JOIN") &&
        !t.IsKeyword("ON") && !t.IsKeyword("AND") && !t.IsKeyword("LIMIT") &&
        !t.IsKeyword("INNER") && !t.IsKeyword("SET") && !t.IsKeyword("VALUES") &&
        !t.IsKeyword("ORDER") && !t.IsKeyword("OFFSET")) {
      out->alias = Advance().text;
    }
    return Status::Ok();
  }

  Status ParseSelect(SelectStmt* out) {
    Status s = ExpectKeyword("SELECT");
    if (!s.ok()) return s;
    if (AcceptSymbol("*")) {
      out->star = true;
    } else if (Peek().IsKeyword("COUNT")) {
      Advance();
      s = ExpectSymbol("(");
      if (!s.ok()) return s;
      s = ExpectSymbol("*");
      if (!s.ok()) return s;
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      out->count_star = true;
    } else {
      do {
        ColumnRef ref;
        s = ParseColumnRef(&ref);
        if (!s.ok()) return s;
        out->columns.push_back(std::move(ref));
      } while (AcceptSymbol(","));
    }
    s = ExpectKeyword("FROM");
    if (!s.ok()) return s;
    s = ParseTableRef(&out->from);
    if (!s.ok()) return s;
    while (true) {
      if (AcceptKeyword("INNER")) {
        s = ExpectKeyword("JOIN");
        if (!s.ok()) return s;
      } else if (!AcceptKeyword("JOIN")) {
        break;
      }
      JoinClause join;
      s = ParseTableRef(&join.table);
      if (!s.ok()) return s;
      s = ExpectKeyword("ON");
      if (!s.ok()) return s;
      s = ParsePredicate(&join.on);
      if (!s.ok()) return s;
      if (join.on.op != CmpOp::kEq) return Error("only equality joins are supported");
      out->joins.push_back(std::move(join));
    }
    s = ParseWhere(&out->where);
    if (!s.ok()) return s;
    if (AcceptKeyword("ORDER")) {
      s = ExpectKeyword("BY");
      if (!s.ok()) return s;
      ColumnRef ref;
      s = ParseColumnRef(&ref);
      if (!s.ok()) return s;
      out->order_by = std::move(ref);
      if (AcceptKeyword("DESC")) {
        out->order_desc = true;
      } else {
        (void)AcceptKeyword("ASC");
      }
    }
    if (AcceptKeyword("LIMIT")) {
      s = ParseCount("LIMIT", &out->limit, &out->limit_param);
      if (!s.ok()) return s;
    }
    if (AcceptKeyword("OFFSET")) {
      s = ParseCount("OFFSET", &out->offset, &out->offset_param);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  // LIMIT/OFFSET argument: a non-negative integer literal or '?'.
  Status ParseCount(const char* clause, std::optional<uint64_t>* literal,
                    std::optional<std::size_t>* param) {
    if (Peek().kind == TokenKind::kParam) {
      Advance();
      *param = param_count_++;
      return Status::Ok();
    }
    if (Peek().kind != TokenKind::kInt || Peek().int_value < 0) {
      return Error(std::string(clause) + " expects a non-negative integer or ?");
    }
    *literal = static_cast<uint64_t>(Advance().int_value);
    return Status::Ok();
  }

  Status ParseInsert(InsertStmt* out) {
    Status s = ExpectKeyword("INSERT");
    if (!s.ok()) return s;
    s = ExpectKeyword("INTO");
    if (!s.ok()) return s;
    s = ExpectIdent(&out->table);
    if (!s.ok()) return s;
    if (AcceptSymbol("(")) {
      do {
        std::string col;
        s = ExpectIdent(&col);
        if (!s.ok()) return s;
        out->columns.push_back(std::move(col));
      } while (AcceptSymbol(","));
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
    }
    s = ExpectKeyword("VALUES");
    if (!s.ok()) return s;
    do {
      s = ExpectSymbol("(");
      if (!s.ok()) return s;
      std::vector<Operand> row;
      do {
        Operand op;
        s = ParseOperand(&op);
        if (!s.ok()) return s;
        if (op.kind == Operand::Kind::kColumn) {
          return Error("column references are not allowed in VALUES");
        }
        row.push_back(std::move(op));
      } while (AcceptSymbol(","));
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      out->rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    return Status::Ok();
  }

  Status ParseUpdate(UpdateStmt* out) {
    Status s = ExpectKeyword("UPDATE");
    if (!s.ok()) return s;
    s = ExpectIdent(&out->table);
    if (!s.ok()) return s;
    s = ExpectKeyword("SET");
    if (!s.ok()) return s;
    do {
      Assignment a;
      s = ExpectIdent(&a.column);
      if (!s.ok()) return s;
      s = ExpectSymbol("=");
      if (!s.ok()) return s;
      // Detect "col = col + N" / "col = col - N".
      if (Peek().kind == TokenKind::kIdent && Peek().text == a.column &&
          Peek(1).kind == TokenKind::kSymbol &&
          (Peek(1).text == "+" || Peek(1).text == "-")) {
        Advance();  // column
        const bool negative = Advance().text == "-";
        if (Peek().kind != TokenKind::kInt) return Error("expected integer delta");
        a.is_delta = true;
        a.delta = Advance().int_value * (negative ? -1 : 1);
      } else {
        s = ParseOperand(&a.value);
        if (!s.ok()) return s;
        if (a.value.kind == Operand::Kind::kColumn) {
          return Error("only 'col = col +/- N' column expressions are supported");
        }
      }
      out->sets.push_back(std::move(a));
    } while (AcceptSymbol(","));
    return ParseWhere(&out->where);
  }

  Status ParseDelete(DeleteStmt* out) {
    Status s = ExpectKeyword("DELETE");
    if (!s.ok()) return s;
    s = ExpectKeyword("FROM");
    if (!s.ok()) return s;
    s = ExpectIdent(&out->table);
    if (!s.ok()) return s;
    return ParseWhere(&out->where);
  }

  Status ParseColumnType(rdb::ColumnDef* col) {
    const Token& t = Peek();
    if (t.IsKeyword("INT") || t.IsKeyword("INTEGER") || t.IsKeyword("BIGINT")) {
      Advance();
      col->type = rdb::ColumnType::kInt;
    } else if (t.IsKeyword("DOUBLE") || t.IsKeyword("FLOAT")) {
      Advance();
      col->type = rdb::ColumnType::kDouble;
    } else if (t.IsKeyword("TIMESTAMP")) {
      Advance();
      col->type = rdb::ColumnType::kTimestamp;
    } else if (t.IsKeyword("VARCHAR")) {
      Advance();
      col->type = rdb::ColumnType::kVarchar;
      if (AcceptSymbol("(")) {
        if (Peek().kind != TokenKind::kInt || Peek().int_value <= 0) {
          return Error("VARCHAR length must be a positive integer");
        }
        col->max_length = static_cast<uint32_t>(Advance().int_value);
        Status s = ExpectSymbol(")");
        if (!s.ok()) return s;
      }
    } else {
      return Error("expected a column type");
    }
    // Optional (N) on INT/TIMESTAMP, MySQL-style display width — ignored.
    if (col->type != rdb::ColumnType::kVarchar && AcceptSymbol("(")) {
      if (Peek().kind != TokenKind::kInt) return Error("expected display width");
      Advance();
      Status s = ExpectSymbol(")");
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  Status ParseCreate(Statement* out) {
    Status s = ExpectKeyword("CREATE");
    if (!s.ok()) return s;
    bool unique = AcceptKeyword("UNIQUE");
    bool ordered = AcceptKeyword("ORDERED");
    if (AcceptKeyword("INDEX")) {
      CreateIndexStmt stmt;
      stmt.unique = unique;
      stmt.ordered = ordered;
      s = ExpectIdent(&stmt.index);
      if (!s.ok()) return s;
      s = ExpectKeyword("ON");
      if (!s.ok()) return s;
      s = ExpectIdent(&stmt.table);
      if (!s.ok()) return s;
      s = ExpectSymbol("(");
      if (!s.ok()) return s;
      s = ExpectIdent(&stmt.column);
      if (!s.ok()) return s;
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      *out = std::move(stmt);
      return Status::Ok();
    }
    if (unique || ordered) return Error("expected INDEX");
    s = ExpectKeyword("TABLE");
    if (!s.ok()) return s;
    std::string table;
    s = ExpectIdent(&table);
    if (!s.ok()) return s;
    s = ExpectSymbol("(");
    if (!s.ok()) return s;
    std::vector<rdb::ColumnDef> columns;
    std::string primary_key;
    do {
      if (Peek().IsKeyword("PRIMARY")) {
        Advance();
        s = ExpectKeyword("KEY");
        if (!s.ok()) return s;
        s = ExpectSymbol("(");
        if (!s.ok()) return s;
        s = ExpectIdent(&primary_key);
        if (!s.ok()) return s;
        s = ExpectSymbol(")");
        if (!s.ok()) return s;
        continue;
      }
      rdb::ColumnDef col;
      s = ExpectIdent(&col.name);
      if (!s.ok()) return s;
      s = ParseColumnType(&col);
      if (!s.ok()) return s;
      while (true) {
        if (AcceptKeyword("NOT")) {
          s = ExpectKeyword("NULL");
          if (!s.ok()) return s;
          col.nullable = false;
        } else if (AcceptKeyword("NULL")) {
          col.nullable = true;
        } else if (AcceptKeyword("AUTO_INCREMENT")) {
          if (col.type != rdb::ColumnType::kInt) {
            return Error("AUTO_INCREMENT requires an INT column");
          }
          col.auto_increment = true;
        } else if (AcceptKeyword("PRIMARY")) {
          s = ExpectKeyword("KEY");
          if (!s.ok()) return s;
          primary_key = col.name;
        } else {
          break;
        }
      }
      columns.push_back(std::move(col));
    } while (AcceptSymbol(","));
    s = ExpectSymbol(")");
    if (!s.ok()) return s;
    CreateTableStmt stmt;
    stmt.schema = rdb::TableSchema(table, std::move(columns));
    stmt.primary_key = std::move(primary_key);
    *out = std::move(stmt);
    return Status::Ok();
  }

  Status ParseDrop(DropTableStmt* out) {
    Status s = ExpectKeyword("DROP");
    if (!s.ok()) return s;
    s = ExpectKeyword("TABLE");
    if (!s.ok()) return s;
    return ExpectIdent(&out->table);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t param_count_ = 0;
};

}  // namespace

rlscommon::Status Parse(std::string_view text, Statement* out) {
  std::vector<Token> tokens;
  rlscommon::Status status = Tokenize(text, &tokens);
  if (!status.ok()) return status;
  Parser parser(std::move(tokens));
  return parser.ParseStatement(out);
}

}  // namespace sql
