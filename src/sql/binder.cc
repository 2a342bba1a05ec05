#include "sql/binder.h"

#include <algorithm>
#include <utility>

#include "sql/parser.h"
#include "util/string_util.h"

namespace asqp {
namespace sql {

namespace {

using util::Result;
using util::Status;

class Binder {
 public:
  Binder(SelectStatement&& stmt, const storage::Database& db) : db_(db) {
    out_.stmt = std::move(stmt);
  }

  Result<BoundQuery> Run() {
    // Resolve FROM tables.
    for (const TableRef& ref : out_.stmt.from) {
      ASQP_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                            db_.GetTable(ref.table));
      out_.tables.push_back(std::move(t));
    }
    // Resolve column references everywhere.
    for (SelectItem& item : out_.stmt.items) {
      if (item.expr) ASQP_RETURN_NOT_OK(BindExpr(item.expr));
    }
    if (out_.stmt.where) ASQP_RETURN_NOT_OK(BindExpr(out_.stmt.where));
    for (ExprPtr& g : out_.stmt.group_by) ASQP_RETURN_NOT_OK(BindExpr(g));
    // HAVING and, in aggregate queries, ORDER BY reference *output*
    // columns (aliases / aggregate names); leave refs that do not resolve
    // against the tables unbound — the executor resolves them by output
    // name.
    const bool lenient_order = out_.stmt.HasAggregates();
    for (OrderItem& o : out_.stmt.order_by) {
      ASQP_RETURN_NOT_OK(BindExpr(o.expr, lenient_order));
    }
    if (out_.stmt.having) {
      ASQP_RETURN_NOT_OK(BindExpr(out_.stmt.having, /*lenient=*/true));
    }

    // Classify WHERE conjuncts, in CollectConjuncts order.
    out_.filters.resize(out_.tables.size());
    ClassifyConjuncts(out_.stmt.where);
    return std::move(out_);
  }

 private:
  Status BindExpr(const ExprPtr& expr, bool lenient = false) {
    if (!expr) return Status::OK();
    if (expr->kind == ExprKind::kColumnRef) {
      const Status st = ResolveColumn(expr.get());
      if (!st.ok() && lenient && st.code() == util::StatusCode::kNotFound) {
        return Status::OK();  // resolved by output name at execution
      }
      return st;
    }
    ASQP_RETURN_NOT_OK(BindExpr(expr->left, lenient));
    ASQP_RETURN_NOT_OK(BindExpr(expr->right, lenient));
    return Status::OK();
  }

  Status ResolveColumn(Expr* ref) {
    int found_table = -1;
    int found_col = -1;
    for (size_t t = 0; t < out_.stmt.from.size(); ++t) {
      const TableRef& tr = out_.stmt.from[t];
      if (!ref->qualifier.empty() && ref->qualifier != tr.binding_name() &&
          ref->qualifier != tr.table) {
        continue;
      }
      auto idx = out_.tables[t]->schema().FieldIndex(ref->column);
      if (!idx.has_value()) continue;
      if (found_table >= 0) {
        return Status::InvalidArgument(
            util::Format("ambiguous column reference '%s'", ref->column.c_str()));
      }
      found_table = static_cast<int>(t);
      found_col = static_cast<int>(*idx);
    }
    if (found_table < 0) {
      return Status::NotFound(util::Format(
          "column '%s%s%s' not found in any FROM table",
          ref->qualifier.c_str(), ref->qualifier.empty() ? "" : ".",
          ref->column.c_str()));
    }
    ref->table_idx = found_table;
    ref->col_idx = found_col;
    return Status::OK();
  }

  /// Tables referenced under `expr` appended to `tables` (deduped by caller).
  static void ReferencedTables(const ExprPtr& expr, std::vector<int>* tables) {
    if (!expr) return;
    if (expr->kind == ExprKind::kColumnRef) {
      tables->push_back(expr->table_idx);
      return;
    }
    ReferencedTables(expr->left, tables);
    ReferencedTables(expr->right, tables);
  }

  /// Classify each top-level AND conjunct of `expr`, left to right.
  void ClassifyConjuncts(const ExprPtr& expr) {
    if (!expr) return;
    if (expr->kind == ExprKind::kBinary && expr->op == BinOp::kAnd) {
      ClassifyConjuncts(expr->left);
      ClassifyConjuncts(expr->right);
      return;
    }
    Classify(expr);
  }

  void Classify(const ExprPtr& conjunct) {
    std::vector<int>& refs = refs_;  // reused across conjuncts
    refs.clear();
    ReferencedTables(conjunct, &refs);
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());

    if (refs.empty()) {
      // Constant predicate; keep as residual (rare, cheap to evaluate).
      out_.residual.push_back(conjunct);
      out_.residual_tables.push_back({});
      return;
    }
    if (refs.size() == 1) {
      out_.filters[refs[0]].push_back(conjunct);
      return;
    }
    // t1.c = t2.c equi-join?
    if (refs.size() == 2 && conjunct->kind == ExprKind::kBinary &&
        conjunct->op == BinOp::kEq &&
        conjunct->left->kind == ExprKind::kColumnRef &&
        conjunct->right->kind == ExprKind::kColumnRef) {
      JoinPredicate jp;
      jp.left_table = conjunct->left->table_idx;
      jp.left_col = conjunct->left->col_idx;
      jp.right_table = conjunct->right->table_idx;
      jp.right_col = conjunct->right->col_idx;
      out_.joins.push_back(jp);
      return;
    }
    out_.residual.push_back(conjunct);
    out_.residual_tables.push_back(refs);
  }

  const storage::Database& db_;
  BoundQuery out_;
  /// Tables one conjunct references (Classify's scratch).
  std::vector<int> refs_;
};

}  // namespace

Result<BoundQuery> Bind(SelectStatement&& stmt, const storage::Database& db) {
  Binder binder(std::move(stmt), db);
  return binder.Run();
}

Result<BoundQuery> Bind(const SelectStatement& stmt,
                        const storage::Database& db) {
  return Bind(stmt.Clone(), db);
}

Result<BoundQuery> ParseAndBind(const std::string& sql,
                                const storage::Database& db) {
  ASQP_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(sql));
  return Bind(std::move(stmt), db);
}

}  // namespace sql
}  // namespace asqp
