#include "embed/embedder.h"

#include <cmath>

#include "util/string_util.h"

namespace asqp {
namespace embed {

void FeatureHasher::Accumulate(std::string_view token, float weight,
                               Vector* vec) const {
  if (vec->size() != dim_) vec->assign(dim_, 0.0f);
  const uint64_t h = util::Fnv1a(token);
  const size_t bucket = h % dim_;
  // Salted second hash decides the sign: the hash of token + "#sign",
  // continued from the token's.
  const uint64_t h2 = util::Fnv1a("#sign", h);
  const float sign = (h2 & 1) ? 1.0f : -1.0f;
  (*vec)[bucket] += sign * weight;
}

std::string QueryEmbedder::ValueBucket(const storage::Value& v) {
  switch (v.type()) {
    case storage::ValueType::kNull:
      return "null";
    case storage::ValueType::kString:
      return "s:" + v.AsString();
    default: {
      // Log-scale magnitude bucket: nearby numeric constants share tokens.
      const double num = v.ToNumeric();
      const double mag = std::fabs(num);
      const int bucket =
          mag < 1.0 ? 0 : static_cast<int>(std::floor(std::log2(mag)));
      return util::Format("n:%s%d", num < 0 ? "-" : "+", bucket);
    }
  }
}

void QueryEmbedder::EmbedExpr(const sql::Expr& expr,
                              const std::string& context, Vector* vec) const {
  using sql::ExprKind;
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      // Categorical constants carry the semantics of an exploration
      // interest ("area = 'ml'" vs "area = 'databases'"), so they dominate
      // the embedding; numeric constants matter less (and are bucketed).
      const float weight =
          expr.literal.type() == storage::ValueType::kString ? 6.0f : 1.0f;
      hasher_.Accumulate("val|" + context + "|" + ValueBucket(expr.literal),
                         weight, vec);
      return;
    }
    case ExprKind::kColumnRef:
      hasher_.Accumulate("col|" + expr.column, 1.0f, vec);
      return;
    case ExprKind::kBinary: {
      std::string ctx = context;
      // Column-anchored context so "year > C" and "year < C" differ but
      // share the column token.
      if (expr.left && expr.left->kind == ExprKind::kColumnRef) {
        ctx = expr.left->column;
      }
      hasher_.Accumulate(
          std::string("op|") + sql::BinOpName(expr.op) + "|" + ctx, 0.75f,
          vec);
      if (expr.left) EmbedExpr(*expr.left, ctx, vec);
      if (expr.right) EmbedExpr(*expr.right, ctx, vec);
      return;
    }
    case ExprKind::kNot:
      hasher_.Accumulate("op|not|" + context, 0.5f, vec);
      if (expr.left) EmbedExpr(*expr.left, context, vec);
      return;
    case ExprKind::kIn: {
      std::string ctx = expr.left && expr.left->kind == ExprKind::kColumnRef
                            ? expr.left->column
                            : context;
      hasher_.Accumulate("op|in|" + ctx, 0.75f, vec);
      if (expr.left) EmbedExpr(*expr.left, ctx, vec);
      for (const storage::Value& v : expr.in_list) {
        const float weight =
            v.type() == storage::ValueType::kString ? 3.0f : 0.5f;
        hasher_.Accumulate("val|" + ctx + "|" + ValueBucket(v), weight, vec);
      }
      return;
    }
    case ExprKind::kBetween: {
      std::string ctx = expr.left && expr.left->kind == ExprKind::kColumnRef
                            ? expr.left->column
                            : context;
      hasher_.Accumulate("op|between|" + ctx, 0.75f, vec);
      if (expr.left) EmbedExpr(*expr.left, ctx, vec);
      hasher_.Accumulate("val|" + ctx + "|" + ValueBucket(expr.between_lo),
                         0.4f, vec);
      hasher_.Accumulate("val|" + ctx + "|" + ValueBucket(expr.between_hi),
                         0.4f, vec);
      return;
    }
    case ExprKind::kLike: {
      std::string ctx = expr.left && expr.left->kind == ExprKind::kColumnRef
                            ? expr.left->column
                            : context;
      hasher_.Accumulate("op|like|" + ctx, 0.75f, vec);
      hasher_.Accumulate("val|" + ctx + "|" + expr.like_pattern, 2.0f, vec);
      if (expr.left) EmbedExpr(*expr.left, ctx, vec);
      return;
    }
    case ExprKind::kIsNull:
      hasher_.Accumulate("op|isnull|" + context, 0.5f, vec);
      if (expr.left) EmbedExpr(*expr.left, context, vec);
      return;
  }
}

Vector QueryEmbedder::Embed(const sql::SelectStatement& stmt) const {
  Vector vec(hasher_.dim(), 0.0f);
  for (const sql::TableRef& t : stmt.from) {
    hasher_.Accumulate("tbl|" + t.table, 1.0f, &vec);
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.agg != sql::AggFunc::kNone) {
      hasher_.Accumulate(std::string("agg|") + sql::AggFuncName(item.agg),
                         0.5f, &vec);
    }
    if (item.expr) EmbedExpr(*item.expr, "select", &vec);
  }
  if (stmt.where) EmbedExpr(*stmt.where, "", &vec);
  for (const sql::ExprPtr& g : stmt.group_by) {
    hasher_.Accumulate("groupby", 0.5f, &vec);
    EmbedExpr(*g, "groupby", &vec);
  }
  NormalizeInPlace(&vec);
  return vec;
}

Vector TupleEmbedder::EmbedRow(const storage::Table& table,
                               uint32_t row) const {
  Vector vec(hasher_.dim(), 0.0f);
  hasher_.Accumulate("tbl|" + table.name(), 1.0f, &vec);
  const storage::Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const storage::Field& f = schema.field(c);
    const storage::Column& col = table.column(c);
    if (col.IsNull(row)) {
      hasher_.Accumulate(f.name + "|null", 0.25f, &vec);
      continue;
    }
    // Column name participates in every token.
    switch (f.type) {
      case storage::ValueType::kString:
        hasher_.Accumulate(f.name + "=" + col.StringAt(row), 1.0f, &vec);
        break;
      default: {
        const double num = col.NumericAt(row);
        // Exact-value token (dominant) plus a coarse magnitude token so
        // rows with nearby-but-unequal numerics retain some similarity.
        hasher_.Accumulate(util::Format("%s=%.6g", f.name.c_str(), num), 1.0f,
                           &vec);
        const double mag = std::fabs(num);
        const int bucket =
            mag < 1.0 ? 0 : static_cast<int>(std::floor(std::log2(mag)));
        hasher_.Accumulate(
            util::Format("%s~%s%d", f.name.c_str(), num < 0 ? "-" : "+",
                         bucket),
            0.5f, &vec);
        break;
      }
    }
  }
  NormalizeInPlace(&vec);
  return vec;
}

Vector TupleEmbedder::EmbedJoined(
    const std::vector<const storage::Table*>& tables,
    const std::vector<uint32_t>& rows) const {
  Vector vec(hasher_.dim(), 0.0f);
  for (size_t t = 0; t < tables.size() && t < rows.size(); ++t) {
    const Vector part = EmbedRow(*tables[t], rows[t]);
    AddInPlace(&vec, part);
  }
  NormalizeInPlace(&vec);
  return vec;
}

}  // namespace embed
}  // namespace asqp
