#include "exec/evaluator.h"

#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace asqp {
namespace exec {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using storage::Value;
using storage::ValueType;

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard matching with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value EvaluateScalar(const Expr& expr, const JoinedRow& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return row.ColumnValue(expr.table_idx, expr.col_idx);
    case ExprKind::kBinary: {
      switch (expr.op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: {
          const Value l = EvaluateScalar(*expr.left, row);
          const Value r = EvaluateScalar(*expr.right, row);
          if (l.is_null() || r.is_null() || !l.is_numeric() || !r.is_numeric()) {
            return Value::Null();
          }
          const double a = l.ToNumeric();
          const double b = r.ToNumeric();
          double out = 0.0;
          switch (expr.op) {
            case BinOp::kAdd: out = a + b; break;
            case BinOp::kSub: out = a - b; break;
            case BinOp::kMul: out = a * b; break;
            case BinOp::kDiv:
              if (b == 0.0) return Value::Null();
              out = a / b;
              break;
            default: break;
          }
          if (l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64 &&
              expr.op != BinOp::kDiv) {
            return Value(static_cast<int64_t>(out));
          }
          return Value(out);
        }
        default:
          // Comparison / boolean used in scalar position: 1 or 0.
          return Value(static_cast<int64_t>(EvaluatePredicate(expr, row)));
      }
    }
    default:
      return Value(static_cast<int64_t>(EvaluatePredicate(expr, row)));
  }
}

bool EvaluatePredicate(const Expr& expr, const JoinedRow& row) {
  switch (expr.kind) {
    case ExprKind::kBinary: {
      switch (expr.op) {
        case BinOp::kAnd:
          return EvaluatePredicate(*expr.left, row) &&
                 EvaluatePredicate(*expr.right, row);
        case BinOp::kOr:
          return EvaluatePredicate(*expr.left, row) ||
                 EvaluatePredicate(*expr.right, row);
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          const Value l = EvaluateScalar(*expr.left, row);
          const Value r = EvaluateScalar(*expr.right, row);
          if (l.is_null() || r.is_null()) return false;  // NULL -> unknown
          const int cmp = l.Compare(r);
          switch (expr.op) {
            case BinOp::kEq: return cmp == 0;
            case BinOp::kNe: return cmp != 0;
            case BinOp::kLt: return cmp < 0;
            case BinOp::kLe: return cmp <= 0;
            case BinOp::kGt: return cmp > 0;
            case BinOp::kGe: return cmp >= 0;
            default: return false;
          }
        }
        default: {
          // Arithmetic in boolean position: nonzero is true.
          const Value v = EvaluateScalar(expr, row);
          return !v.is_null() && v.ToNumeric() != 0.0;
        }
      }
    }
    case ExprKind::kNot:
      return !EvaluatePredicate(*expr.left, row);
    case ExprKind::kIn: {
      const Value v = EvaluateScalar(*expr.left, row);
      if (v.is_null()) return false;
      bool found = false;
      for (const Value& candidate : expr.in_list) {
        if (!candidate.is_null() && v.Compare(candidate) == 0) {
          found = true;
          break;
        }
      }
      return expr.negated ? !found : found;
    }
    case ExprKind::kBetween: {
      const Value v = EvaluateScalar(*expr.left, row);
      if (v.is_null() || expr.between_lo.is_null() || expr.between_hi.is_null()) {
        return false;
      }
      const bool inside =
          v.Compare(expr.between_lo) >= 0 && v.Compare(expr.between_hi) <= 0;
      return expr.negated ? !inside : inside;
    }
    case ExprKind::kLike: {
      const Value v = EvaluateScalar(*expr.left, row);
      if (v.is_null() || v.type() != ValueType::kString) return false;
      const bool match = LikeMatch(v.AsString(), expr.like_pattern);
      return expr.negated ? !match : match;
    }
    case ExprKind::kIsNull: {
      const Value v = EvaluateScalar(*expr.left, row);
      return expr.negated ? !v.is_null() : v.is_null();
    }
    case ExprKind::kLiteral:
      return !expr.literal.is_null() && expr.literal.ToNumeric() != 0.0;
    case ExprKind::kColumnRef: {
      const Value v = EvaluateScalar(expr, row);
      return !v.is_null() && v.ToNumeric() != 0.0;
    }
  }
  return false;
}

namespace {

/// Match a column reference against output-column names: exact rendered
/// form first ("m.title"), then the bare column name ("title"), then a
/// qualified suffix ("x.title" for unqualified "title").
util::Result<size_t> FindOutputColumn(
    const Expr& ref, const std::vector<std::string>& names) {
  const std::string rendered = ref.ToSql();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == rendered) return i;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == ref.column) return i;
  }
  if (ref.qualifier.empty()) {
    for (size_t i = 0; i < names.size(); ++i) {
      const size_t dot = names[i].rfind('.');
      if (dot != std::string::npos && names[i].substr(dot + 1) == ref.column) {
        return i;
      }
    }
  }
  return util::Status::NotFound(util::Format(
      "'%s' does not name an output column", rendered.c_str()));
}

/// A predicate's outcome as its scalar value, 1 or 0, built in place: GCC
/// 12 with -fsanitize=address loses track of a freshly built numeric
/// Value's variant index when it is moved into a Result, and reports the
/// string alternative as maybe-uninitialized.
util::Result<Value> PredicateValue(bool outcome) {
  return util::Result<Value>(std::in_place, static_cast<int64_t>(outcome));
}

}  // namespace

util::Result<Value> EvaluateScalarOnRow(
    const Expr& expr, const std::vector<std::string>& column_names,
    const std::vector<Value>& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      ASQP_ASSIGN_OR_RETURN(size_t idx, FindOutputColumn(expr, column_names));
      return row[idx];
    }
    case ExprKind::kBinary: {
      switch (expr.op) {
        case BinOp::kAnd: {
          ASQP_ASSIGN_OR_RETURN(bool l, EvaluatePredicateOnRow(
                                            *expr.left, column_names, row));
          if (!l) return PredicateValue(false);
          ASQP_ASSIGN_OR_RETURN(bool r, EvaluatePredicateOnRow(
                                            *expr.right, column_names, row));
          return PredicateValue(r);
        }
        case BinOp::kOr: {
          ASQP_ASSIGN_OR_RETURN(bool l, EvaluatePredicateOnRow(
                                            *expr.left, column_names, row));
          if (l) return PredicateValue(true);
          ASQP_ASSIGN_OR_RETURN(bool r, EvaluatePredicateOnRow(
                                            *expr.right, column_names, row));
          return PredicateValue(r);
        }
        default: {
          ASQP_ASSIGN_OR_RETURN(
              Value l, EvaluateScalarOnRow(*expr.left, column_names, row));
          ASQP_ASSIGN_OR_RETURN(
              Value r, EvaluateScalarOnRow(*expr.right, column_names, row));
          if (IsComparison(expr.op)) {
            if (l.is_null() || r.is_null()) return Value::Null();
            const int cmp = l.Compare(r);
            bool result = false;
            switch (expr.op) {
              case BinOp::kEq: result = cmp == 0; break;
              case BinOp::kNe: result = cmp != 0; break;
              case BinOp::kLt: result = cmp < 0; break;
              case BinOp::kLe: result = cmp <= 0; break;
              case BinOp::kGt: result = cmp > 0; break;
              case BinOp::kGe: result = cmp >= 0; break;
              default: break;
            }
            return PredicateValue(result);
          }
          // Arithmetic.
          if (l.is_null() || r.is_null() || !l.is_numeric() || !r.is_numeric()) {
            return Value::Null();
          }
          const double a = l.ToNumeric();
          const double b = r.ToNumeric();
          switch (expr.op) {
            case BinOp::kAdd: return Value(a + b);
            case BinOp::kSub: return Value(a - b);
            case BinOp::kMul: return Value(a * b);
            case BinOp::kDiv:
              return b == 0.0 ? Value::Null() : Value(a / b);
            default: return Value::Null();
          }
        }
      }
    }
    case ExprKind::kNot: {
      ASQP_ASSIGN_OR_RETURN(
          bool operand, EvaluatePredicateOnRow(*expr.left, column_names, row));
      return PredicateValue(!operand);
    }
    case ExprKind::kIn: {
      ASQP_ASSIGN_OR_RETURN(Value v,
                            EvaluateScalarOnRow(*expr.left, column_names, row));
      if (v.is_null()) return PredicateValue(false);
      bool found = false;
      for (const Value& candidate : expr.in_list) {
        if (!candidate.is_null() && v.Compare(candidate) == 0) {
          found = true;
          break;
        }
      }
      return PredicateValue(expr.negated ? !found : found);
    }
    case ExprKind::kBetween: {
      ASQP_ASSIGN_OR_RETURN(Value v,
                            EvaluateScalarOnRow(*expr.left, column_names, row));
      if (v.is_null()) return PredicateValue(false);
      const bool inside = v.Compare(expr.between_lo) >= 0 &&
                          v.Compare(expr.between_hi) <= 0;
      return PredicateValue(expr.negated ? !inside : inside);
    }
    case ExprKind::kLike: {
      ASQP_ASSIGN_OR_RETURN(Value v,
                            EvaluateScalarOnRow(*expr.left, column_names, row));
      if (v.is_null() || v.type() != ValueType::kString) {
        return PredicateValue(false);
      }
      const bool match = LikeMatch(v.AsString(), expr.like_pattern);
      return PredicateValue(expr.negated ? !match : match);
    }
    case ExprKind::kIsNull: {
      ASQP_ASSIGN_OR_RETURN(Value v,
                            EvaluateScalarOnRow(*expr.left, column_names, row));
      return PredicateValue(expr.negated ? !v.is_null() : v.is_null());
    }
  }
  return Value::Null();
}

util::Result<bool> EvaluatePredicateOnRow(
    const Expr& expr, const std::vector<std::string>& column_names,
    const std::vector<Value>& row) {
  ASQP_ASSIGN_OR_RETURN(Value v, EvaluateScalarOnRow(expr, column_names, row));
  return !v.is_null() && v.ToNumeric() != 0.0;
}

}  // namespace exec
}  // namespace asqp
