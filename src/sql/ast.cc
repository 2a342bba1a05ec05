#include "sql/ast.h"

#include <sstream>
#include <utility>

#include "util/thread_cached_allocator.h"

namespace asqp {
namespace sql {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
  }
  return "?";
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone: return "";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

namespace {

/// Every node comes from the thread-cached pool: parses and clones
/// allocate a statement's nodes in a burst, and its release frees them
/// together (see util::ThreadCachedAllocator).
template <typename... Args>
ExprPtr NewExpr(Args&&... args) {
  return std::allocate_shared<Expr>(util::ThreadCachedAllocator<Expr>(),
                                    std::forward<Args>(args)...);
}

}  // namespace

ExprPtr Expr::Literal(storage::Value v) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(std::string qualifier, std::string column) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr left, ExprPtr right) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kNot;
  e->left = std::move(operand);
  return e;
}

ExprPtr Expr::In(ExprPtr operand, std::vector<storage::Value> list,
                 bool negated) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kIn;
  e->left = std::move(operand);
  e->in_list = std::move(list);
  e->negated = negated;
  return e;
}

ExprPtr Expr::Between(ExprPtr operand, storage::Value lo, storage::Value hi,
                      bool negated) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kBetween;
  e->left = std::move(operand);
  e->between_lo = std::move(lo);
  e->between_hi = std::move(hi);
  e->negated = negated;
  return e;
}

ExprPtr Expr::Like(ExprPtr operand, std::string pattern, bool negated) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kLike;
  e->left = std::move(operand);
  e->like_pattern = std::move(pattern);
  e->negated = negated;
  return e;
}

ExprPtr Expr::IsNull(ExprPtr operand, bool negated) {
  ExprPtr e = NewExpr();
  e->kind = ExprKind::kIsNull;
  e->left = std::move(operand);
  e->negated = negated;
  return e;
}

ExprPtr Expr::Clone() const {
  ExprPtr e = NewExpr(*this);
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  return e;
}

namespace {

std::string QuoteLiteral(const storage::Value& v) {
  if (v.type() == storage::ValueType::kString) {
    std::string out = "'";
    for (char c : v.AsString()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return v.ToString();
}

}  // namespace

std::string Expr::ToSql() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return QuoteLiteral(literal);
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kBinary: {
      const bool paren = op == BinOp::kOr || op == BinOp::kAnd;
      std::string l = left->ToSql();
      std::string r = right->ToSql();
      std::string body = l + " " + BinOpName(op) + " " + r;
      return paren ? "(" + body + ")" : body;
    }
    case ExprKind::kNot:
      return "NOT (" + left->ToSql() + ")";
    case ExprKind::kIn: {
      std::string body = left->ToSql();
      body += negated ? " NOT IN (" : " IN (";
      for (size_t i = 0; i < in_list.size(); ++i) {
        if (i) body += ", ";
        body += QuoteLiteral(in_list[i]);
      }
      body += ")";
      return body;
    }
    case ExprKind::kBetween:
      return left->ToSql() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             QuoteLiteral(between_lo) + " AND " + QuoteLiteral(between_hi);
    case ExprKind::kLike:
      return left->ToSql() + (negated ? " NOT LIKE " : " LIKE ") +
             QuoteLiteral(storage::Value(like_pattern));
    case ExprKind::kIsNull:
      return left->ToSql() + (negated ? " IS NOT NULL" : " IS NULL");
  }
  return "?";
}

SelectItem SelectItem::Clone() const {
  SelectItem out = *this;
  if (expr) out.expr = expr->Clone();
  return out;
}

std::string SelectItem::ToSql() const {
  std::string body;
  if (agg != AggFunc::kNone) {
    body = std::string(AggFuncName(agg)) + "(" +
           (distinct ? "DISTINCT " : "") + (star ? "*" : expr->ToSql()) + ")";
  } else {
    body = star ? "*" : expr->ToSql();
  }
  if (!alias.empty()) body += " AS " + alias;
  return body;
}

bool SelectStatement::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.agg != AggFunc::kNone) return true;
  }
  return !group_by.empty();
}

SelectStatement SelectStatement::Clone() const {
  SelectStatement out;
  out.distinct = distinct;
  out.from = from;
  out.limit = limit;
  out.items.reserve(items.size());
  for (const SelectItem& item : items) out.items.push_back(item.Clone());
  if (where) out.where = where->Clone();
  if (having) out.having = having->Clone();
  out.group_by.reserve(group_by.size());
  for (const ExprPtr& g : group_by) out.group_by.push_back(g->Clone());
  out.order_by.reserve(order_by.size());
  for (const OrderItem& o : order_by) {
    out.order_by.push_back(OrderItem{o.expr->Clone(), o.desc});
  }
  return out;
}

std::string SelectStatement::ToSql() const {
  std::ostringstream out;
  out << "SELECT ";
  if (distinct) out << "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out << ", ";
    out << items[i].ToSql();
  }
  out << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i) out << ", ";
    out << from[i].table;
    if (!from[i].alias.empty()) out << " " << from[i].alias;
  }
  if (where) out << " WHERE " << where->ToSql();
  if (!group_by.empty()) {
    out << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i) out << ", ";
      out << group_by[i]->ToSql();
    }
  }
  if (having) out << " HAVING " << having->ToSql();
  if (!order_by.empty()) {
    out << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i) out << ", ";
      out << order_by[i].expr->ToSql();
      if (order_by[i].desc) out << " DESC";
    }
  }
  if (limit >= 0) out << " LIMIT " << limit;
  return out.str();
}

void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (!expr) return;
  if (expr->kind == ExprKind::kBinary && expr->op == BinOp::kAnd) {
    CollectConjuncts(expr->left, out);
    CollectConjuncts(expr->right, out);
    return;
  }
  out->push_back(expr);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const ExprPtr& c : conjuncts) {
    acc = acc ? Expr::Binary(BinOp::kAnd, acc, c) : c;
  }
  return acc;
}

}  // namespace sql
}  // namespace asqp
