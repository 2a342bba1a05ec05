#include "aqp/spn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "util/random.h"
#include "util/string_util.h"

namespace asqp {
namespace aqp {

namespace {

using util::Result;
using util::Status;

/// Numeric encoding of a cell for correlation / clustering: numerics
/// as-is, categoricals as their dictionary code.
double EncodedCell(const storage::Table& table, int col, uint32_t row) {
  const storage::Column& c = table.column(col);
  if (c.IsNull(row)) return 0.0;
  if (c.type() == storage::ValueType::kString) {
    return static_cast<double>(c.StringCodeAt(row));
  }
  return c.NumericAt(row);
}

/// |Pearson correlation| of two columns over a row sample.
double AbsCorrelation(const storage::Table& table, int a, int b,
                      const std::vector<uint32_t>& rows) {
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  const double n = static_cast<double>(rows.size());
  for (uint32_t r : rows) {
    const double x = EncodedCell(table, a, r);
    const double y = EncodedCell(table, b, r);
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  if (va <= 1e-12 || vb <= 1e-12) return 0.0;
  return std::fabs(cov / std::sqrt(va * vb));
}

}  // namespace

double Spn::Histogram::Selectivity(const ColumnPredicate& predicate) const {
  if (total == 0) return 0.0;
  double matching = 0.0;
  if (is_numeric) {
    if (counts.empty()) return 0.0;
    const double width =
        (hi - lo) <= 0.0 ? 1.0 : (hi - lo) / static_cast<double>(counts.size());
    for (size_t b = 0; b < counts.size(); ++b) {
      const double bin_lo = lo + width * static_cast<double>(b);
      const double bin_hi = bin_lo + width;
      // Fractional overlap of [bin_lo, bin_hi) with [pred.lo, pred.hi].
      const double overlap_lo = std::max(bin_lo, predicate.lo);
      const double overlap_hi = std::min(bin_hi, predicate.hi);
      if (overlap_hi <= overlap_lo) continue;
      const double fraction = width <= 0.0 ? 1.0 : (overlap_hi - overlap_lo) / width;
      matching += counts[b] * std::min(1.0, fraction);
    }
  } else {
    for (size_t i = 0; i < categories.size(); ++i) {
      const bool member = predicate.categories.count(categories[i]) > 0;
      if (predicate.categories.empty() ||
          (member != predicate.negate_categories)) {
        matching += counts[i];
      }
    }
  }
  return std::min(1.0, matching / static_cast<double>(total));
}

Result<Spn> Spn::Learn(const storage::Table& table, const SpnOptions& options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot learn an SPN from an empty table");
  }
  Spn spn;
  spn.table_ = &table;
  spn.schema_ = table.schema();
  spn.total_rows_ = table.num_rows();

  util::Rng rng(options.seed);

  // Recursive builder.
  std::function<NodePtr(std::vector<uint32_t>, std::vector<int>, size_t)>
      build = [&](std::vector<uint32_t> rows, std::vector<int> cols,
                  size_t depth) -> NodePtr {
    auto node = std::make_unique<Node>();
    node->rows = rows.size();
    ++spn.num_nodes_;

    const bool must_leaf = rows.size() < options.min_instances ||
                           cols.size() <= 1 || depth >= options.max_depth;

    if (!must_leaf) {
      // --- Try a product split: connected components of the dependency
      // graph under the correlation threshold.
      std::vector<uint32_t> sample = rows;
      if (sample.size() > 512) {
        std::vector<size_t> idx = rng.SampleIndices(sample.size(), 512);
        std::vector<uint32_t> sub;
        sub.reserve(idx.size());
        for (size_t i : idx) sub.push_back(sample[i]);
        sample = std::move(sub);
      }
      std::vector<int> component(cols.size(), -1);
      int num_components = 0;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (component[i] >= 0) continue;
        // BFS over dependent columns.
        std::vector<size_t> queue = {i};
        component[i] = num_components;
        while (!queue.empty()) {
          const size_t u = queue.back();
          queue.pop_back();
          for (size_t v = 0; v < cols.size(); ++v) {
            if (component[v] >= 0) continue;
            if (AbsCorrelation(table, cols[u], cols[v], sample) >
                options.correlation_threshold) {
              component[v] = num_components;
              queue.push_back(v);
            }
          }
        }
        ++num_components;
      }
      if (num_components > 1) {
        node->kind = Node::Kind::kProduct;
        for (int comp = 0; comp < num_components; ++comp) {
          std::vector<int> child_cols;
          for (size_t i = 0; i < cols.size(); ++i) {
            if (component[i] == comp) child_cols.push_back(cols[i]);
          }
          node->child_columns.push_back(child_cols);
          node->children.push_back(build(rows, child_cols, depth + 1));
        }
        return node;
      }

      // --- Row split (sum node): 2-means over encoded rows.
      // Pick the column with the highest variance as the split driver plus
      // a second random column, 2-means in that 2-D space.
      std::vector<double> center_a, center_b;
      const int ca = cols[rng.NextBounded(cols.size())];
      const int cb = cols[rng.NextBounded(cols.size())];
      // Initialize with two distinct random rows.
      const uint32_t r1 = rows[rng.NextBounded(rows.size())];
      const uint32_t r2 = rows[rng.NextBounded(rows.size())];
      center_a = {EncodedCell(table, ca, r1), EncodedCell(table, cb, r1)};
      center_b = {EncodedCell(table, ca, r2), EncodedCell(table, cb, r2)};
      std::vector<uint8_t> side(rows.size(), 0);
      for (int iter = 0; iter < 8; ++iter) {
        double sa0 = 0, sa1 = 0, sb0 = 0, sb1 = 0;
        size_t na = 0, nb = 0;
        for (size_t i = 0; i < rows.size(); ++i) {
          const double x = EncodedCell(table, ca, rows[i]);
          const double y = EncodedCell(table, cb, rows[i]);
          const double da = (x - center_a[0]) * (x - center_a[0]) +
                            (y - center_a[1]) * (y - center_a[1]);
          const double db = (x - center_b[0]) * (x - center_b[0]) +
                            (y - center_b[1]) * (y - center_b[1]);
          side[i] = da <= db ? 0 : 1;
          if (side[i] == 0) {
            sa0 += x;
            sa1 += y;
            ++na;
          } else {
            sb0 += x;
            sb1 += y;
            ++nb;
          }
        }
        if (na > 0) center_a = {sa0 / na, sa1 / na};
        if (nb > 0) center_b = {sb0 / nb, sb1 / nb};
      }
      std::vector<uint32_t> left, right;
      for (size_t i = 0; i < rows.size(); ++i) {
        (side[i] == 0 ? left : right).push_back(rows[i]);
      }
      if (!left.empty() && !right.empty()) {
        node->kind = Node::Kind::kSum;
        const double n = static_cast<double>(rows.size());
        node->weights = {static_cast<double>(left.size()) / n,
                         static_cast<double>(right.size()) / n};
        node->children.push_back(build(std::move(left), cols, depth + 1));
        node->children.push_back(build(std::move(right), cols, depth + 1));
        return node;
      }
      // Degenerate split: fall through to a leaf.
    }

    // --- Leaf: per-column histograms + numeric means.
    node->kind = Node::Kind::kLeaf;
    node->columns = cols;
    for (int col : cols) {
      const storage::Column& c = table.column(col);
      Histogram h;
      h.total = rows.size();
      if (c.type() == storage::ValueType::kString) {
        h.is_numeric = false;
        std::map<std::string, double> counts;
        for (uint32_t r : rows) {
          if (c.IsNull(r)) {
            ++h.nulls;
            continue;
          }
          counts[c.StringAt(r)] += 1.0;
        }
        for (auto& [value, count] : counts) {
          h.categories.push_back(value);
          h.counts.push_back(count);
        }
        node->numeric_means.push_back(0.0);
      } else {
        h.is_numeric = true;
        double lo = 1e300, hi = -1e300, sum = 0.0;
        size_t n = 0;
        for (uint32_t r : rows) {
          if (c.IsNull(r)) {
            ++h.nulls;
            continue;
          }
          const double v = c.NumericAt(r);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
          sum += v;
          ++n;
        }
        if (n == 0) {
          lo = 0.0;
          hi = 1.0;
        }
        h.lo = lo;
        h.hi = hi > lo ? hi : lo + 1.0;
        h.counts.assign(options.num_histogram_bins, 0.0);
        for (uint32_t r : rows) {
          if (c.IsNull(r)) continue;
          const double v = c.NumericAt(r);
          size_t bin = static_cast<size_t>((v - h.lo) / (h.hi - h.lo) *
                                           static_cast<double>(h.counts.size()));
          bin = std::min(bin, h.counts.size() - 1);
          h.counts[bin] += 1.0;
        }
        node->numeric_means.push_back(n == 0 ? 0.0
                                             : sum / static_cast<double>(n));
      }
      node->histograms.push_back(std::move(h));
    }
    return node;
  };

  std::vector<uint32_t> all_rows(table.num_rows());
  for (uint32_t r = 0; r < table.num_rows(); ++r) all_rows[r] = r;
  std::vector<int> all_cols(table.num_columns());
  for (size_t c = 0; c < all_cols.size(); ++c) all_cols[c] = static_cast<int>(c);
  spn.root_ = build(std::move(all_rows), std::move(all_cols), 0);
  return spn;
}

Spn::Moment Spn::Evaluate(const Node& node,
                          const std::vector<ColumnPredicate>& predicates,
                          int measure_col) const {
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      double prob = 1.0;
      double mean = 0.0;
      bool has_measure = false;
      for (size_t i = 0; i < node.columns.size(); ++i) {
        const int col = node.columns[i];
        if (col == measure_col) {
          mean = node.numeric_means[i];
          has_measure = true;
        }
        for (const ColumnPredicate& p : predicates) {
          if (p.col == col) prob *= node.histograms[i].Selectivity(p);
        }
      }
      Moment m;
      m.probability = prob;
      // Leaf independence: E[measure * 1(pred)] = mean * P(pred).
      m.expected_measure = has_measure ? mean * prob : 0.0;
      return m;
    }
    case Node::Kind::kSum: {
      Moment m;
      for (size_t i = 0; i < node.children.size(); ++i) {
        const Moment child =
            Evaluate(*node.children[i], predicates, measure_col);
        m.probability += node.weights[i] * child.probability;
        m.expected_measure += node.weights[i] * child.expected_measure;
      }
      return m;
    }
    case Node::Kind::kProduct: {
      // P = prod of per-component probabilities; the measure lives in
      // exactly one component: E[m * 1] = E_comp[m * 1_comp] * prod other P.
      Moment m;
      m.probability = 1.0;
      double measure_expectation = 0.0;
      double measure_component_prob = 1.0;
      bool measure_found = false;
      for (size_t i = 0; i < node.children.size(); ++i) {
        const Moment child =
            Evaluate(*node.children[i], predicates, measure_col);
        m.probability *= child.probability;
        const bool has_measure =
            std::find(node.child_columns[i].begin(),
                      node.child_columns[i].end(),
                      measure_col) != node.child_columns[i].end();
        if (has_measure) {
          measure_expectation = child.expected_measure;
          measure_component_prob = child.probability;
          measure_found = true;
        }
      }
      if (measure_found) {
        const double others =
            measure_component_prob > 0.0
                ? m.probability / measure_component_prob
                : 0.0;
        m.expected_measure = measure_expectation * others;
      }
      return m;
    }
  }
  return {};
}

double Spn::Probability(const std::vector<ColumnPredicate>& predicates) const {
  return Evaluate(*root_, predicates, /*measure_col=*/-1).probability;
}

double Spn::EstimateCount(
    const std::vector<ColumnPredicate>& predicates) const {
  return Probability(predicates) * static_cast<double>(total_rows_);
}

double Spn::EstimateSum(int measure_col,
                        const std::vector<ColumnPredicate>& predicates) const {
  return Evaluate(*root_, predicates, measure_col).expected_measure *
         static_cast<double>(total_rows_);
}

double Spn::EstimateAvg(int measure_col,
                        const std::vector<ColumnPredicate>& predicates) const {
  const Moment m = Evaluate(*root_, predicates, measure_col);
  if (m.probability <= 0.0) return 0.0;
  return m.expected_measure / m.probability;
}

Spn::ExtremeResult Spn::EvaluateExtreme(
    const Node& node, int measure_col,
    const std::vector<ColumnPredicate>& predicates, bool want_min) const {
  constexpr double kMinMass = 1e-6;
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      ExtremeResult result;
      result.probability =
          Evaluate(node, predicates, /*measure_col=*/-1).probability;
      if (result.probability < kMinMass) return result;
      // Feasible measure interval after intersecting measure predicates.
      double lo = -1e300, hi = 1e300;
      for (const ColumnPredicate& p : predicates) {
        if (p.col == measure_col) {
          lo = std::max(lo, p.lo);
          hi = std::min(hi, p.hi);
        }
      }
      for (size_t i = 0; i < node.columns.size(); ++i) {
        if (node.columns[i] != measure_col) continue;
        const Histogram& h = node.histograms[i];
        if (!h.is_numeric || h.counts.empty()) return result;
        const double width =
            (h.hi - h.lo) / static_cast<double>(h.counts.size());
        // Scan bins from the wanted end for surviving mass.
        for (size_t step = 0; step < h.counts.size(); ++step) {
          const size_t b = want_min ? step : h.counts.size() - 1 - step;
          if (h.counts[b] <= 0.0) continue;
          const double bin_lo = h.lo + width * static_cast<double>(b);
          const double bin_hi = bin_lo + width;
          if (bin_hi < lo || bin_lo > hi) continue;
          result.has_value = true;
          result.value = want_min ? std::max(bin_lo, lo) : std::min(bin_hi, hi);
          return result;
        }
        return result;
      }
      return result;
    }
    case Node::Kind::kSum: {
      ExtremeResult result;
      for (size_t i = 0; i < node.children.size(); ++i) {
        const ExtremeResult child = EvaluateExtreme(
            *node.children[i], measure_col, predicates, want_min);
        result.probability += node.weights[i] * child.probability;
        if (child.has_value &&
            node.weights[i] * child.probability >= kMinMass) {
          if (!result.has_value ||
              (want_min ? child.value < result.value
                        : child.value > result.value)) {
            result.has_value = true;
            result.value = child.value;
          }
        }
      }
      return result;
    }
    case Node::Kind::kProduct: {
      ExtremeResult result;
      result.probability = 1.0;
      for (size_t i = 0; i < node.children.size(); ++i) {
        const ExtremeResult child = EvaluateExtreme(
            *node.children[i], measure_col, predicates, want_min);
        result.probability *= child.probability;
        const bool has_measure =
            std::find(node.child_columns[i].begin(),
                      node.child_columns[i].end(),
                      measure_col) != node.child_columns[i].end();
        if (has_measure && child.has_value) {
          result.has_value = true;
          result.value = child.value;
        }
      }
      if (result.probability < kMinMass) result.has_value = false;
      return result;
    }
  }
  return {};
}

double Spn::EstimateMin(int measure_col,
                        const std::vector<ColumnPredicate>& predicates) const {
  const ExtremeResult e =
      EvaluateExtreme(*root_, measure_col, predicates, true);
  return e.has_value ? e.value : 0.0;
}

double Spn::EstimateMax(int measure_col,
                        const std::vector<ColumnPredicate>& predicates) const {
  const ExtremeResult e =
      EvaluateExtreme(*root_, measure_col, predicates, false);
  return e.has_value ? e.value : 0.0;
}

Result<std::vector<ColumnPredicate>> Spn::PredicatesFromQuery(
    const sql::BoundQuery& query) {
  if (query.num_tables() != 1) {
    return Status::InvalidArgument("SPN estimates single-table queries only");
  }
  if (!query.residual.empty()) {
    return Status::NotImplemented("unsupported predicate form for SPN");
  }
  std::vector<ColumnPredicate> out;
  for (const sql::ExprPtr& conjunct : query.filters[0]) {
    const sql::Expr& e = *conjunct;
    ColumnPredicate p;
    switch (e.kind) {
      case sql::ExprKind::kBinary: {
        if (!sql::IsComparison(e.op) ||
            e.left->kind != sql::ExprKind::kColumnRef ||
            e.right->kind != sql::ExprKind::kLiteral) {
          return Status::NotImplemented("unsupported comparison for SPN");
        }
        p.col = e.left->col_idx;
        const storage::Value& v = e.right->literal;
        if (v.type() == storage::ValueType::kString) {
          if (e.op != sql::BinOp::kEq && e.op != sql::BinOp::kNe) {
            return Status::NotImplemented("string range predicate for SPN");
          }
          p.categories.insert(v.AsString());
          p.negate_categories = e.op == sql::BinOp::kNe;
        } else {
          const double num = v.ToNumeric();
          switch (e.op) {
            // Point predicates take a unit-width interval so they overlap
            // histogram bins (integer domains; for continuous columns this
            // slightly over-smooths, which is the right bias for AQP).
            case sql::BinOp::kEq: p.lo = num - 0.5; p.hi = num + 0.5; break;
            case sql::BinOp::kLt:
            case sql::BinOp::kLe: p.hi = num; break;
            case sql::BinOp::kGt:
            case sql::BinOp::kGe: p.lo = num; break;
            default:
              return Status::NotImplemented("<> over numerics for SPN");
          }
        }
        break;
      }
      case sql::ExprKind::kBetween: {
        if (e.negated || e.left->kind != sql::ExprKind::kColumnRef) {
          return Status::NotImplemented("NOT BETWEEN for SPN");
        }
        p.col = e.left->col_idx;
        p.lo = e.between_lo.ToNumeric();
        p.hi = e.between_hi.ToNumeric();
        break;
      }
      case sql::ExprKind::kIn: {
        if (e.left->kind != sql::ExprKind::kColumnRef) {
          return Status::NotImplemented("IN over expression for SPN");
        }
        p.col = e.left->col_idx;
        for (const storage::Value& v : e.in_list) {
          if (v.type() != storage::ValueType::kString) {
            return Status::NotImplemented("numeric IN for SPN");
          }
          p.categories.insert(v.AsString());
        }
        p.negate_categories = e.negated;
        break;
      }
      default:
        return Status::NotImplemented("unsupported predicate kind for SPN");
    }
    out.push_back(std::move(p));
  }
  return out;
}

Result<exec::ResultSet> Spn::EstimateAggregateQuery(
    const sql::BoundQuery& query) const {
  ASQP_ASSIGN_OR_RETURN(std::vector<ColumnPredicate> predicates,
                        PredicatesFromQuery(query));
  if (!query.stmt.HasAggregates()) {
    return Status::InvalidArgument("EstimateAggregateQuery needs aggregates");
  }
  if (query.stmt.group_by.size() > 1) {
    return Status::NotImplemented("multi-column GROUP BY for SPN");
  }

  // Output columns mirror the executor's layout.
  std::vector<std::string> names;
  for (const sql::SelectItem& item : query.stmt.items) {
    names.push_back(item.alias.empty()
                        ? (item.agg == sql::AggFunc::kNone
                               ? (item.expr ? item.expr->ToSql() : "*")
                               : util::ToLower(sql::AggFuncName(item.agg)))
                        : item.alias);
  }
  exec::ResultSet::Rows rows;

  // Group values: distinct categories of the GROUP BY column.
  std::vector<std::optional<std::string>> groups;
  int group_col = -1;
  if (!query.stmt.group_by.empty()) {
    const sql::Expr& g = *query.stmt.group_by[0];
    if (g.kind != sql::ExprKind::kColumnRef) {
      return Status::NotImplemented("GROUP BY expression for SPN");
    }
    group_col = g.col_idx;
    const storage::Column& col = table_->column(group_col);
    if (col.type() != storage::ValueType::kString) {
      return Status::NotImplemented("numeric GROUP BY for SPN");
    }
    for (uint32_t code = 0; code < col.dict_size(); ++code) {
      groups.emplace_back(col.dict_entry(code));
    }
  } else {
    groups.emplace_back(std::nullopt);  // single global group
  }

  for (const auto& group_value : groups) {
    std::vector<ColumnPredicate> preds = predicates;
    if (group_value.has_value()) {
      ColumnPredicate gp;
      gp.col = group_col;
      gp.categories.insert(*group_value);
      preds.push_back(std::move(gp));
    }
    const double count = EstimateCount(preds);
    if (group_value.has_value() && count < 0.5) continue;  // empty group

    std::vector<storage::Value> row;
    for (const sql::SelectItem& item : query.stmt.items) {
      switch (item.agg) {
        case sql::AggFunc::kNone:
          // if/else instead of a ternary: GCC 12's -O2 maybe-uninitialized
          // pass false-positives on the ternary's moved-from variant
          // temporary.
          if (group_value.has_value()) {
            row.emplace_back(*group_value);
          } else {
            row.emplace_back();
          }
          break;
        case sql::AggFunc::kCount:
          row.emplace_back(static_cast<int64_t>(std::llround(count)));
          break;
        case sql::AggFunc::kSum: {
          if (!item.expr || item.expr->kind != sql::ExprKind::kColumnRef) {
            return Status::NotImplemented("SUM over expression for SPN");
          }
          row.emplace_back(EstimateSum(item.expr->col_idx, preds));
          break;
        }
        case sql::AggFunc::kAvg: {
          if (!item.expr || item.expr->kind != sql::ExprKind::kColumnRef) {
            return Status::NotImplemented("AVG over expression for SPN");
          }
          row.emplace_back(EstimateAvg(item.expr->col_idx, preds));
          break;
        }
        case sql::AggFunc::kMin:
        case sql::AggFunc::kMax: {
          if (!item.expr || item.expr->kind != sql::ExprKind::kColumnRef) {
            return Status::NotImplemented("MIN/MAX over expression for SPN");
          }
          row.emplace_back(item.agg == sql::AggFunc::kMin
                               ? EstimateMin(item.expr->col_idx, preds)
                               : EstimateMax(item.expr->col_idx, preds));
          break;
        }
        default:
          return Status::NotImplemented("unsupported aggregate for SPN");
      }
    }
    rows.push_back(std::move(row));
  }
  return exec::ResultSet(std::move(names), std::move(rows));
}

}  // namespace aqp
}  // namespace asqp
