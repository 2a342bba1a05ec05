#include "sql/canonicalize.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace asqp {
namespace sql {

namespace {

/// How a literal renders: kExact keeps the type tag (scalar positions,
/// where INT64 vs DOUBLE changes the produced Value); kCompare normalizes
/// numeric spelling (comparison positions, where the executor compares
/// numerically across INT64/DOUBLE).
enum class LiteralMode { kExact, kCompare };

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendDouble(double d, std::string* out) {
  // Exactly printf's "%.17g" (to_chars with a precision is specified as
  // printf in the C locale), without the format-string machinery.
  char buf[40];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('\'');
  for (char c : s) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

void AppendLiteral(const storage::Value& v, LiteralMode mode,
                   std::string* out) {
  switch (v.type()) {
    case storage::ValueType::kNull:
      out->append("NULL");
      return;
    case storage::ValueType::kString:
      out->append("s:");
      AppendQuoted(v.AsString(), out);
      return;
    case storage::ValueType::kInt64:
      out->append(mode == LiteralMode::kCompare ? "n:" : "i:");
      AppendInt(v.AsInt64(), out);
      return;
    case storage::ValueType::kDouble: {
      const double d = v.AsDouble();
      if (mode == LiteralMode::kCompare) {
        out->append("n:");
        // 2000 and 2000.0 compare equal, so they must render equal: an
        // integral double within the exact-integer range prints as an
        // integer. (Beyond 2^53 doubles are not exact anyway.)
        if (std::isfinite(d) && d == std::floor(d) &&
            std::abs(d) < 9007199254740992.0) {
          AppendInt(static_cast<int64_t>(d), out);
        } else {
          AppendDouble(d, out);
        }
      } else {
        out->append("d:");
        AppendDouble(d, out);
      }
      return;
    }
  }
  out->append("?");
}

/// Whether a kBetween may expand into its comparison parts. Non-negated:
/// always (with a NULL bound both spellings are constant-false). Negated:
/// only when both bounds are non-NULL — NOT BETWEEN with a NULL bound is
/// constant-false, but `x < NULL OR x > hi` can still pass via the other
/// disjunct, so the spellings differ and must not collide.
bool BetweenExpands(const Expr& e) {
  return !e.negated || (!e.between_lo.is_null() && !e.between_hi.is_null());
}

/// Renders canonical text into one output buffer. Order-insensitive
/// groups (AND/OR parts, IN values, the operands of =, <>, + and *) are
/// rendered in place, their parts recorded as slices of the buffer, and
/// then rewritten in sorted order through one scratch buffer — no
/// per-node strings.
class Renderer {
 public:
  explicit Renderer(std::string* out) : out_(*out) { slices_.reserve(16); }

  void Render(const Expr& e, LiteralMode mode) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        AppendLiteral(e.literal, mode, &out_);
        return;
      case ExprKind::kColumnRef:
        if (e.table_idx >= 0 && e.col_idx >= 0) {
          // Positional form: alias spelling is gone after binding.
          out_.push_back('t');
          AppendInt(e.table_idx, &out_);
          out_.append(".c");
          AppendInt(e.col_idx, &out_);
        } else {
          // Unbound (e.g. HAVING refs over output columns): spelled form.
          out_.append("col:");
          out_.append(e.qualifier);
          out_.push_back(':');
          out_.append(e.column);
        }
        return;
      case ExprKind::kBinary:
        RenderBinary(e);
        return;
      case ExprKind::kNot:
        out_.append("(NOT ");
        Render(*e.left, LiteralMode::kExact);
        out_.push_back(')');
        return;
      case ExprKind::kIn: {
        out_.append(e.negated ? "(NIN " : "(IN ");
        Comparand(*e.left);
        out_.append(" [");
        // IN lists are sets: values sort and deduplicate.
        const size_t base = slices_.size();
        const size_t region = out_.size();
        for (const storage::Value& v : e.in_list) {
          if (out_.size() > region) out_.push_back(',');
          const size_t begin = out_.size();
          AppendLiteral(v, LiteralMode::kCompare, &out_);
          slices_.push_back(Slice{begin, out_.size()});
        }
        SortSlices(base, region, ',', /*sep_first=*/false, /*dedup=*/true);
        out_.append("])");
        return;
      }
      case ExprKind::kBetween:
        if (BetweenExpands(e)) {
          // Standalone BETWEEN renders as the AND/OR of its expansion
          // parts, matching what the paired-inequality spelling renders at
          // the same position.
          out_.append(e.negated ? "(OR" : "(AND");
          const size_t base = slices_.size();
          const size_t region = out_.size();
          BetweenParts(e);
          SortSlices(base, region, ' ', /*sep_first=*/true, /*dedup=*/false);
          out_.push_back(')');
          return;
        }
        // Negated BETWEEN with a NULL bound: no sound expansion exists.
        out_.append("(NBETWEEN ");
        Comparand(*e.left);
        out_.push_back(' ');
        AppendLiteral(e.between_lo, LiteralMode::kCompare, &out_);
        out_.push_back(' ');
        AppendLiteral(e.between_hi, LiteralMode::kCompare, &out_);
        out_.push_back(')');
        return;
      case ExprKind::kLike:
        out_.append(e.negated ? "(NLIKE " : "(LIKE ");
        Comparand(*e.left);
        out_.push_back(' ');
        AppendQuoted(e.like_pattern, &out_);
        out_.push_back(')');
        return;
      case ExprKind::kIsNull:
        out_.append(e.negated ? "(NOTNULL " : "(ISNULL ");
        Render(*e.left, LiteralMode::kExact);
        out_.push_back(')');
        return;
    }
  }

 private:
  /// A rendered part: out_[begin, end).
  struct Slice {
    size_t begin;
    size_t end;
  };

  std::string_view View(const Slice& s) const {
    return std::string_view(out_).substr(s.begin, s.end - s.begin);
  }

  /// Render a comparison/IN/BETWEEN operand: literals in compare mode,
  /// everything else descends in exact mode (literals inside arithmetic
  /// keep their type — `a + 5` and `a + 5.0` can yield different Values).
  void Comparand(const Expr& e) {
    Render(e, e.kind == ExprKind::kLiteral ? LiteralMode::kCompare
                                           : LiteralMode::kExact);
  }

  /// Append " <part>" and record the part as a slice.
  template <typename Fn>
  void Part(Fn&& render) {
    out_.push_back(' ');
    const size_t begin = out_.size();
    render();
    slices_.push_back(Slice{begin, out_.size()});
  }

  /// The comparison parts a BETWEEN expands into, each as " <part>".
  /// Under the evaluator's semantics `x BETWEEN lo AND hi` is exactly
  /// `x >= lo AND x <= hi` (both spellings are false whenever the operand
  /// or either bound is NULL), and `x NOT BETWEEN lo AND hi` with non-NULL
  /// bounds is exactly `x < lo OR x > hi`. Rendering the parts through the
  /// comparison rules (>/>= flip to </<= with swapped operands) collapses
  /// the two spellings to one fingerprint.
  void BetweenParts(const Expr& e) {
    if (!e.negated) {
      // x >= lo == lo <= x;  x <= hi.
      Part([&] {
        out_.append("(<= ");
        AppendLiteral(e.between_lo, LiteralMode::kCompare, &out_);
        out_.push_back(' ');
        Comparand(*e.left);
        out_.push_back(')');
      });
      Part([&] {
        out_.append("(<= ");
        Comparand(*e.left);
        out_.push_back(' ');
        AppendLiteral(e.between_hi, LiteralMode::kCompare, &out_);
        out_.push_back(')');
      });
    } else {
      // x < lo;  x > hi == hi < x.
      Part([&] {
        out_.append("(< ");
        Comparand(*e.left);
        out_.push_back(' ');
        AppendLiteral(e.between_lo, LiteralMode::kCompare, &out_);
        out_.push_back(')');
      });
      Part([&] {
        out_.append("(< ");
        AppendLiteral(e.between_hi, LiteralMode::kCompare, &out_);
        out_.push_back(' ');
        Comparand(*e.left);
        out_.push_back(')');
      });
    }
  }

  /// Flatten a same-op AND/OR chain into " <part>"s. A BETWEEN operand
  /// whose expansion op matches the chain (AND for BETWEEN, OR for NOT
  /// BETWEEN) contributes its paired-inequality parts, so both spellings
  /// flatten identically.
  void FlattenParts(const Expr& e, BinOp op) {
    if (e.kind == ExprKind::kBinary && e.op == op) {
      FlattenParts(*e.left, op);
      FlattenParts(*e.right, op);
      return;
    }
    if (e.kind == ExprKind::kBetween && BetweenExpands(e) &&
        ((op == BinOp::kAnd && !e.negated) ||
         (op == BinOp::kOr && e.negated))) {
      BetweenParts(e);
      return;
    }
    Part([&] { Render(e, LiteralMode::kExact); });
  }

  /// Two operands of a commutative operator as "<min> <max>".
  void CommutedOperands(const Expr& left, const Expr& right, bool compare) {
    const size_t base = slices_.size();
    const size_t region = out_.size();
    for (const Expr* operand : {&left, &right}) {
      if (out_.size() > region) out_.push_back(' ');
      const size_t begin = out_.size();
      if (compare) {
        Comparand(*operand);
      } else {
        Render(*operand, LiteralMode::kExact);
      }
      slices_.push_back(Slice{begin, out_.size()});
    }
    SortSlices(base, region, ' ', /*sep_first=*/false, /*dedup=*/false);
  }

  void RenderBinary(const Expr& e) {
    switch (e.op) {
      case BinOp::kAnd:
      case BinOp::kOr: {
        out_.append(e.op == BinOp::kAnd ? "(AND" : "(OR");
        const size_t base = slices_.size();
        const size_t region = out_.size();
        FlattenParts(e, e.op);
        SortSlices(base, region, ' ', /*sep_first=*/true, /*dedup=*/false);
        out_.push_back(')');
        return;
      }
      case BinOp::kEq:
      case BinOp::kNe:
        out_.append(e.op == BinOp::kEq ? "(= " : "(<> ");
        CommutedOperands(*e.left, *e.right, /*compare=*/true);
        out_.push_back(')');
        return;
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        // Normalize direction: a > b  ==  b < a;  a >= b  ==  b <= a.
        const bool flip = e.op == BinOp::kGt || e.op == BinOp::kGe;
        const bool strict = e.op == BinOp::kLt || e.op == BinOp::kGt;
        out_.append(strict ? "(< " : "(<= ");
        Comparand(flip ? *e.right : *e.left);
        out_.push_back(' ');
        Comparand(flip ? *e.left : *e.right);
        out_.push_back(')');
        return;
      }
      case BinOp::kAdd:
      case BinOp::kMul:
        // Commutative (IEEE addition/multiplication of two operands is
        // order-insensitive); associativity is NOT assumed, so chains
        // are not flattened.
        out_.append(e.op == BinOp::kAdd ? "(+ " : "(* ");
        CommutedOperands(*e.left, *e.right, /*compare=*/false);
        out_.push_back(')');
        return;
      case BinOp::kSub:
      case BinOp::kDiv:
        out_.append(e.op == BinOp::kSub ? "(- " : "(/ ");
        Render(*e.left, LiteralMode::kExact);
        out_.push_back(' ');
        Render(*e.right, LiteralMode::kExact);
        out_.push_back(')');
        return;
    }
  }

  /// Rewrite out_[region, end) — the parts slices_[base, end) separated by
  /// `sep` (and preceded by it when `sep_first`) — with the parts in
  /// sorted order, dropping repeats when `dedup`. The region is the tail
  /// of the buffer, and every nested group inside it is already sorted.
  void SortSlices(size_t base, size_t region, char sep, bool sep_first,
                  bool dedup) {
    const auto first = slices_.begin() + static_cast<std::ptrdiff_t>(base);
    auto last = slices_.end();
    std::sort(first, last, [this](const Slice& a, const Slice& b) {
      return View(a) < View(b);
    });
    if (dedup) {
      last = std::unique(first, last, [this](const Slice& a, const Slice& b) {
        return View(a) == View(b);
      });
    }
    scratch_.assign(out_, region, std::string::npos);
    out_.resize(region);
    for (auto it = first; it != last; ++it) {
      if (sep_first || it != first) out_.push_back(sep);
      out_.append(scratch_, it->begin - region, it->end - it->begin);
    }
    slices_.resize(base);
  }

  std::string& out_;
  /// Copy of the region being reordered (SortSlices).
  std::string scratch_;
  /// Parts of the groups being rendered, innermost last.
  std::vector<Slice> slices_;
};

void AppendSelectItem(const SelectItem& item, Renderer* render,
                      std::string* out) {
  out->append(AggFuncName(item.agg));
  out->push_back(':');
  if (item.distinct) out->append("D:");
  if (item.star) {
    out->push_back('*');
  } else if (item.expr != nullptr) {
    render->Render(*item.expr, LiteralMode::kExact);
  }
  // The alias is the output column name — part of the result bytes.
  if (!item.alias.empty()) {
    out->append(" AS ");
    out->append(item.alias);
  }
}

}  // namespace

std::string CanonicalizeExpr(const Expr& expr) {
  std::string out;
  Renderer(&out).Render(expr, LiteralMode::kExact);
  return out;
}

std::string CanonicalizeStatement(const SelectStatement& stmt) {
  std::string out;
  out.reserve(256);
  Renderer render(&out);
  out.append("SELECT");
  if (stmt.distinct) out.append(" DISTINCT");
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    out.append(i == 0 ? " " : "; ");
    AppendSelectItem(stmt.items[i], &render, &out);
  }
  // FROM order is significant (join seeding, `SELECT *` column order);
  // aliases are not (refs render positionally).
  out.append(" FROM");
  for (const TableRef& t : stmt.from) {
    out.push_back(' ');
    out.append(t.table);
  }
  if (stmt.where != nullptr) {
    out.append(" WHERE ");
    render.Render(*stmt.where, LiteralMode::kExact);
  }
  if (!stmt.group_by.empty()) {
    out.append(" GROUP BY");
    for (const ExprPtr& g : stmt.group_by) {
      out.push_back(' ');
      render.Render(*g, LiteralMode::kExact);
    }
  }
  if (stmt.having != nullptr) {
    out.append(" HAVING ");
    render.Render(*stmt.having, LiteralMode::kExact);
  }
  if (!stmt.order_by.empty()) {
    out.append(" ORDER BY");
    for (const OrderItem& o : stmt.order_by) {
      out.push_back(' ');
      render.Render(*o.expr, LiteralMode::kExact);
      if (o.desc) out.append(" DESC");
    }
  }
  if (stmt.limit >= 0) {
    out.append(" LIMIT ");
    AppendInt(stmt.limit, &out);
  }
  return out;
}

QueryFingerprint FingerprintQuery(const SelectStatement& bound_stmt) {
  QueryFingerprint fp;
  fp.canonical = CanonicalizeStatement(bound_stmt);
  fp.hash = util::Fnv1a(fp.canonical);
  return fp;
}

}  // namespace sql
}  // namespace asqp
