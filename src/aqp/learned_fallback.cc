#include "aqp/learned_fallback.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "aqp/spn.h"
#include "exec/executor.h"
#include "metric/relative_error.h"
#include "util/random.h"
#include "util/string_util.h"

namespace asqp {
namespace aqp {

namespace {

using util::Result;
using util::Status;

/// Per-column view of a query's conjunctive predicates: numeric intervals
/// intersected per column, categorical predicates kept per-conjunct.
struct MergedPredicates {
  std::map<int, std::pair<double, double>> intervals;   // col -> [lo, hi]
  std::vector<const ColumnPredicate*> categorical;      // original conjuncts
};

MergedPredicates Merge(const std::vector<ColumnPredicate>& predicates) {
  MergedPredicates merged;
  for (const ColumnPredicate& p : predicates) {
    if (p.categories.empty()) {
      auto [it, inserted] =
          merged.intervals.emplace(p.col, std::make_pair(p.lo, p.hi));
      if (!inserted) {
        it->second.first = std::max(it->second.first, p.lo);
        it->second.second = std::min(it->second.second, p.hi);
      }
    } else {
      merged.categorical.push_back(&p);
    }
  }
  return merged;
}

/// Output column name for one select item, mirroring the executor's
/// aggregate output layout (and Spn::EstimateAggregateQuery).
std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.agg == sql::AggFunc::kNone) {
    return item.expr ? item.expr->ToSql() : "*";
  }
  return util::ToLower(sql::AggFuncName(item.agg));
}

}  // namespace

double LearnedFallback::ColumnSynopsis::Selectivity(double plo,
                                                    double phi) const {
  const double total = nulls + non_null;
  if (total <= 0.0 || counts.empty()) return 0.0;
  if (phi < plo) return 0.0;
  const double width =
      (hi - lo) <= 0.0 ? 1.0 : (hi - lo) / static_cast<double>(counts.size());
  double matching = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double bin_lo = lo + width * static_cast<double>(b);
    const double bin_hi = bin_lo + width;
    const double overlap_lo = std::max(bin_lo, plo);
    const double overlap_hi = std::min(bin_hi, phi);
    if (overlap_hi <= overlap_lo) continue;
    const double fraction =
        width <= 0.0 ? 1.0 : (overlap_hi - overlap_lo) / width;
    matching += counts[b] * std::min(1.0, fraction);
  }
  return std::min(1.0, matching / total);
}

double LearnedFallback::ColumnSynopsis::SelectivityCategorical(
    const std::set<std::string>& cats, bool negate) const {
  const double total = nulls + non_null;
  if (total <= 0.0) return 0.0;
  double matching = 0.0;
  for (size_t i = 0; i < categories.size(); ++i) {
    const bool member = cats.count(categories[i]) > 0;
    if (cats.empty() || (member != negate)) matching += counts[i];
  }
  return std::min(1.0, matching / total);
}

LearnedFallback::TableSynopsis LearnedFallback::FitTable(
    const storage::Table& table, const std::vector<uint32_t>& rows,
    const LearnedFallbackOptions& options) {
  TableSynopsis syn;
  syn.name = table.name();
  syn.full_rows = static_cast<double>(table.num_rows());
  syn.fitted_rows = static_cast<double>(rows.size());
  syn.scale = rows.empty() ? 1.0 : syn.full_rows / syn.fitted_rows;

  const size_t num_bins = std::max<size_t>(1, options.num_bins);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    ColumnSynopsis out;
    out.name = table.schema().fields()[c].name;
    if (col.type() == storage::ValueType::kString) {
      out.is_numeric = false;
      std::map<std::string, double> cat_counts;
      for (uint32_t r : rows) {
        if (col.IsNull(r)) {
          out.nulls += 1.0;
          continue;
        }
        out.non_null += 1.0;
        cat_counts[col.StringAt(r)] += 1.0;
      }
      for (auto& [value, count] : cat_counts) {
        out.categories.push_back(value);
        out.counts.push_back(count);
      }
    } else {
      out.is_numeric = true;
      double lo = 1e300, hi = -1e300;
      for (uint32_t r : rows) {
        if (col.IsNull(r)) {
          out.nulls += 1.0;
          continue;
        }
        const double v = col.NumericAt(r);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        out.total_sum += v;
        out.non_null += 1.0;
      }
      if (out.non_null <= 0.0) {
        lo = 0.0;
        hi = 1.0;
      }
      out.lo = lo;
      out.hi = hi > lo ? hi : lo + 1.0;
      out.min_value = lo;
      out.max_value = hi > lo ? hi : lo;
      out.counts.assign(num_bins, 0.0);
      out.sums.assign(num_bins, 0.0);
      for (uint32_t r : rows) {
        if (col.IsNull(r)) continue;
        const double v = col.NumericAt(r);
        size_t bin = static_cast<size_t>((v - out.lo) / (out.hi - out.lo) *
                                         static_cast<double>(num_bins));
        bin = std::min(bin, num_bins - 1);
        out.counts[bin] += 1.0;
        out.sums[bin] += v;
      }
    }
    syn.columns.push_back(std::move(out));
  }
  return syn;
}

Result<LearnedFallback> LearnedFallback::Fit(
    const storage::Database& db, const storage::ApproximationSet& set,
    const LearnedFallbackOptions& options) {
  LearnedFallback fb;
  fb.options_ = options;
  for (const std::string& name : db.TableNames()) {
    ASQP_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> table,
                          db.GetTable(name));
    if (table->num_rows() == 0) continue;
    std::vector<uint32_t> rows = set.RowsFor(name);
    if (rows.empty()) {
      // No approximation-set coverage: stride-sample the full table so
      // tier 1 can still answer (the scale factor compensates).
      const size_t n = table->num_rows();
      const size_t cap = std::max<size_t>(1, options.max_fit_rows);
      const size_t stride = std::max<size_t>(1, (n + cap - 1) / cap);
      rows.reserve(n / stride + 1);
      for (size_t r = 0; r < n; r += stride) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    fb.tables_.emplace(name, FitTable(*table, rows, options));
  }
  if (options.calibration_queries > 0) fb.Calibrate(db);
  return fb;
}

std::string LearnedFallback::CategoryOf(const sql::SelectStatement& stmt) {
  // Priority mirrors bench_fig12's CategoryOf (later aggregates dominate)
  // extended with MIN/MAX.
  std::string op = "CNT";
  for (const sql::SelectItem& item : stmt.items) {
    switch (item.agg) {
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax:
        if (op == "CNT") op = item.agg == sql::AggFunc::kMin ? "MIN" : "MAX";
        break;
      case sql::AggFunc::kAvg:
        if (op != "SUM") op = "AVG";
        break;
      case sql::AggFunc::kSum:
        op = "SUM";
        break;
      default:
        break;
    }
  }
  return stmt.group_by.empty() ? op : "G+" + op;
}

Result<const LearnedFallback::TableSynopsis*> LearnedFallback::Classify(
    const sql::BoundQuery& query) const {
  if (query.num_tables() != 1) {
    return Status::NotImplemented("learned fallback: single-table only");
  }
  if (!query.residual.empty()) {
    return Status::NotImplemented("learned fallback: residual predicates");
  }
  const sql::SelectStatement& stmt = query.stmt;
  if (!stmt.HasAggregates()) {
    return Status::NotImplemented("learned fallback: aggregates only");
  }
  if (stmt.distinct || stmt.having != nullptr || stmt.limit >= 0 ||
      !stmt.order_by.empty()) {
    return Status::NotImplemented(
        "learned fallback: DISTINCT/HAVING/ORDER BY/LIMIT unsupported");
  }
  auto it = tables_.find(query.tables[0]->name());
  if (it == tables_.end()) {
    return Status::NotFound("learned fallback: no synopsis for table " +
                            query.tables[0]->name());
  }
  const TableSynopsis& syn = it->second;

  int group_col = -1;
  if (!stmt.group_by.empty()) {
    if (stmt.group_by.size() > 1) {
      return Status::NotImplemented("learned fallback: multi-column GROUP BY");
    }
    const sql::Expr& g = *stmt.group_by[0];
    if (g.kind != sql::ExprKind::kColumnRef || g.col_idx < 0 ||
        static_cast<size_t>(g.col_idx) >= syn.columns.size() ||
        syn.columns[static_cast<size_t>(g.col_idx)].is_numeric) {
      return Status::NotImplemented(
          "learned fallback: GROUP BY must be one categorical column");
    }
    group_col = g.col_idx;
  }

  for (const sql::SelectItem& item : stmt.items) {
    switch (item.agg) {
      case sql::AggFunc::kNone:
        if (!item.expr || item.expr->kind != sql::ExprKind::kColumnRef ||
            item.expr->col_idx != group_col) {
          return Status::NotImplemented(
              "learned fallback: non-aggregate item must be the GROUP BY "
              "column");
        }
        break;
      case sql::AggFunc::kCount:
        if (item.distinct) {
          return Status::NotImplemented(
              "learned fallback: COUNT(DISTINCT) unsupported");
        }
        break;
      case sql::AggFunc::kSum:
      case sql::AggFunc::kAvg:
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax: {
        if (!item.expr || item.expr->kind != sql::ExprKind::kColumnRef ||
            item.expr->col_idx < 0 ||
            static_cast<size_t>(item.expr->col_idx) >= syn.columns.size() ||
            !syn.columns[static_cast<size_t>(item.expr->col_idx)].is_numeric) {
          return Status::NotImplemented(
              "learned fallback: aggregate over a numeric column required");
        }
        break;
      }
      default:
        return Status::NotImplemented("learned fallback: unsupported item");
    }
  }
  return &syn;
}

bool LearnedFallback::CanAnswer(const sql::BoundQuery& query) const {
  if (!Classify(query).ok()) return false;
  return Spn::PredicatesFromQuery(query).ok();
}

double LearnedFallback::ErrorEstimateFor(
    const sql::SelectStatement& stmt) const {
  auto it = calibrated_errors_.find(CategoryOf(stmt));
  return it == calibrated_errors_.end() ? options_.default_error : it->second;
}

Result<LearnedAnswer> LearnedFallback::Answer(
    const sql::BoundQuery& query) const {
  ASQP_ASSIGN_OR_RETURN(const TableSynopsis* syn, Classify(query));
  ASQP_ASSIGN_OR_RETURN(std::vector<ColumnPredicate> predicates,
                        Spn::PredicatesFromQuery(query));
  const sql::SelectStatement& stmt = query.stmt;
  const MergedPredicates merged = Merge(predicates);

  // Per-column selectivity of `merged` plus an optional group restriction.
  const auto column_selectivity = [&](int col,
                                      const std::string* group_value,
                                      int group_col) -> double {
    const ColumnSynopsis& cs = syn->columns[static_cast<size_t>(col)];
    double sel = 1.0;
    auto it = merged.intervals.find(col);
    if (it != merged.intervals.end()) {
      sel *= cs.Selectivity(it->second.first, it->second.second);
    }
    for (const ColumnPredicate* p : merged.categorical) {
      if (p->col == col) {
        sel *= cs.SelectivityCategorical(p->categories, p->negate_categories);
      }
    }
    if (group_value != nullptr && col == group_col) {
      sel *= cs.SelectivityCategorical({*group_value}, /*negate=*/false);
    }
    return sel;
  };

  // Columns touched by any predicate or the group restriction.
  const auto touched_columns = [&](int group_col) {
    std::set<int> cols;
    for (const auto& [col, interval] : merged.intervals) cols.insert(col);
    for (const ColumnPredicate* p : merged.categorical) cols.insert(p->col);
    if (group_col >= 0) cols.insert(group_col);
    return cols;
  };

  int group_col = -1;
  if (!stmt.group_by.empty()) group_col = stmt.group_by[0]->col_idx;

  std::vector<std::string> names;
  names.reserve(stmt.items.size());
  for (const sql::SelectItem& item : stmt.items) {
    names.push_back(OutputName(item));
  }
  LearnedAnswer answer;
  exec::ResultSet::Rows rows;
  answer.category = CategoryOf(stmt);
  answer.error_estimate = ErrorEstimateFor(stmt);

  // Group values: the group column's observed categories (one sentinel
  // "global group" when ungrouped).
  std::vector<const std::string*> groups;
  if (group_col >= 0) {
    const ColumnSynopsis& gcs = syn->columns[static_cast<size_t>(group_col)];
    groups.reserve(gcs.categories.size());
    for (const std::string& cat : gcs.categories) groups.push_back(&cat);
  } else {
    groups.push_back(nullptr);
  }

  for (const std::string* group_value : groups) {
    const std::set<int> cols = touched_columns(group_value ? group_col : -1);
    double p_all = 1.0;
    for (int col : cols) p_all *= column_selectivity(col, group_value, group_col);
    const double count_est = syn->full_rows * p_all;
    if (group_value != nullptr && count_est < 0.5) continue;  // empty group

    // SUM of `m` under the predicates: the per-bin sums restricted to m's
    // own interval, scaled by the other columns' joint selectivity
    // (independence) and the sampling fraction.
    const auto sum_estimate = [&](int m) -> double {
      const ColumnSynopsis& ms = syn->columns[static_cast<size_t>(m)];
      double mlo = -1e300, mhi = 1e300;
      auto it = merged.intervals.find(m);
      if (it != merged.intervals.end()) {
        mlo = it->second.first;
        mhi = it->second.second;
      }
      double restricted = 0.0;
      if (ms.counts.empty()) return 0.0;
      const double width = (ms.hi - ms.lo) <= 0.0
                               ? 1.0
                               : (ms.hi - ms.lo) /
                                     static_cast<double>(ms.counts.size());
      for (size_t b = 0; b < ms.sums.size(); ++b) {
        const double bin_lo = ms.lo + width * static_cast<double>(b);
        const double bin_hi = bin_lo + width;
        const double overlap_lo = std::max(bin_lo, mlo);
        const double overlap_hi = std::min(bin_hi, mhi);
        if (overlap_hi <= overlap_lo) continue;
        const double fraction =
            width <= 0.0 ? 1.0 : (overlap_hi - overlap_lo) / width;
        restricted += ms.sums[b] * std::min(1.0, fraction);
      }
      double p_others = 1.0;
      for (int col : cols) {
        if (col == m) {
          // Categorical predicates on the measure still apply; only its
          // own interval is already folded into `restricted`.
          for (const ColumnPredicate* p : merged.categorical) {
            if (p->col == col) {
              p_others *= ms.SelectivityCategorical(p->categories,
                                                    p->negate_categories);
            }
          }
          continue;
        }
        p_others *= column_selectivity(col, group_value, group_col);
      }
      return restricted * p_others * syn->scale;
    };

    // Expected matching non-null count of `m` (AVG denominator).
    const auto count_non_null = [&](int m) -> double {
      const ColumnSynopsis& ms = syn->columns[static_cast<size_t>(m)];
      const double total = ms.nulls + ms.non_null;
      const double nn_frac = total > 0.0 ? ms.non_null / total : 0.0;
      return count_est * nn_frac;
    };

    const auto extreme_estimate = [&](int m, bool want_min) -> double {
      const ColumnSynopsis& ms = syn->columns[static_cast<size_t>(m)];
      double mlo = -1e300, mhi = 1e300;
      auto it = merged.intervals.find(m);
      if (it != merged.intervals.end()) {
        mlo = it->second.first;
        mhi = it->second.second;
      }
      if (ms.counts.empty()) return 0.0;
      const double width = (ms.hi - ms.lo) <= 0.0
                               ? 1.0
                               : (ms.hi - ms.lo) /
                                     static_cast<double>(ms.counts.size());
      for (size_t step = 0; step < ms.counts.size(); ++step) {
        const size_t b = want_min ? step : ms.counts.size() - 1 - step;
        if (ms.counts[b] <= 0.0) continue;
        const double bin_lo = ms.lo + width * static_cast<double>(b);
        const double bin_hi = bin_lo + width;
        if (bin_hi < mlo || bin_lo > mhi) continue;
        return want_min ? std::max(bin_lo, mlo) : std::min(bin_hi, mhi);
      }
      return 0.0;
    };

    std::vector<storage::Value> row;
    row.reserve(stmt.items.size());
    for (const sql::SelectItem& item : stmt.items) {
      switch (item.agg) {
        case sql::AggFunc::kNone:
          if (group_value != nullptr) {
            row.emplace_back(*group_value);
          } else {
            row.emplace_back();
          }
          break;
        case sql::AggFunc::kCount:
          row.emplace_back(static_cast<int64_t>(std::llround(count_est)));
          break;
        case sql::AggFunc::kSum:
          row.emplace_back(sum_estimate(item.expr->col_idx));
          break;
        case sql::AggFunc::kAvg: {
          const double denom = count_non_null(item.expr->col_idx);
          row.emplace_back(denom > 1e-9
                               ? sum_estimate(item.expr->col_idx) / denom
                               : 0.0);
          break;
        }
        case sql::AggFunc::kMin:
          row.emplace_back(extreme_estimate(item.expr->col_idx, true));
          break;
        case sql::AggFunc::kMax:
          row.emplace_back(extreme_estimate(item.expr->col_idx, false));
          break;
        default:
          return Status::NotImplemented("learned fallback: unsupported item");
      }
    }
    rows.push_back(std::move(row));
  }
  answer.result = exec::ResultSet(std::move(names), std::move(rows));
  return answer;
}

void LearnedFallback::Calibrate(const storage::Database& db) {
  // Answer synthetic aggregates with both the synopsis and the real
  // executor; the mean observed relative error per operator category is
  // what ErrorEstimateFor reports at serve time.
  exec::QueryEngine engine(exec::ExecOptions{});
  storage::DatabaseView full_view(&db);
  util::Rng rng(options_.seed ^ 0x1fa11bacULL);
  std::map<std::string, std::pair<double, size_t>> accumulated;

  static const sql::AggFunc kOps[] = {sql::AggFunc::kCount, sql::AggFunc::kSum,
                                      sql::AggFunc::kAvg, sql::AggFunc::kMin,
                                      sql::AggFunc::kMax};

  for (const auto& [table_name, syn] : tables_) {
    if (syn.full_rows > static_cast<double>(options_.calibration_max_rows)) {
      continue;
    }
    // Numeric columns with spread (measure + predicate candidates) and a
    // low-cardinality categorical for the grouped variants.
    std::vector<int> numeric_cols;
    int group_col = -1;
    for (size_t c = 0; c < syn.columns.size(); ++c) {
      const ColumnSynopsis& cs = syn.columns[c];
      if (cs.is_numeric && cs.non_null > 0.0 && cs.hi > cs.lo) {
        numeric_cols.push_back(static_cast<int>(c));
      } else if (!cs.is_numeric && cs.categories.size() >= 2 &&
                 cs.categories.size() <= 64 && group_col < 0) {
        group_col = static_cast<int>(c);
      }
    }
    if (numeric_cols.empty()) continue;

    for (sql::AggFunc op : kOps) {
      for (int grouped = 0; grouped < (group_col >= 0 ? 2 : 1); ++grouped) {
        for (size_t q = 0; q < options_.calibration_queries; ++q) {
          const int measure =
              numeric_cols[rng.NextBounded(numeric_cols.size())];
          const int pred_col =
              numeric_cols[rng.NextBounded(numeric_cols.size())];
          const ColumnSynopsis& ps =
              syn.columns[static_cast<size_t>(pred_col)];
          const double span = ps.hi - ps.lo;
          // Mirror the shapes exploratory workloads actually use: half
          // the probes are narrow, Eq-like windows (a point predicate on
          // an integer column lands in one histogram bin), the rest wide
          // range scans. Wide-only probes flatter the synopsis — the
          // calibrated estimate must answer for the hard case too.
          const double width = rng.Bernoulli(0.5)
                                   ? rng.UniformDouble(0.02, 0.12)
                                   : rng.UniformDouble(0.2, 0.6);
          const double a =
              ps.lo + rng.UniformDouble(0.0, 1.0 - width) * span;
          const double b = a + width * span;

          sql::SelectStatement stmt;
          stmt.from.push_back(sql::TableRef{table_name, ""});
          std::vector<sql::ExprPtr> conjuncts;
          conjuncts.push_back(sql::Expr::Between(
              sql::Expr::ColumnRef(table_name, ps.name),
              storage::Value(a), storage::Value(b)));
          // A second conjunct on another column half the time: the
          // synopsis assumes independence across predicate columns, and
          // the calibration has to pay for that assumption where the data
          // is correlated.
          if (numeric_cols.size() > 1 && rng.Bernoulli(0.5)) {
            const int second =
                numeric_cols[rng.NextBounded(numeric_cols.size())];
            if (second != pred_col) {
              const ColumnSynopsis& ss =
                  syn.columns[static_cast<size_t>(second)];
              conjuncts.push_back(sql::Expr::Binary(
                  sql::BinOp::kGe,
                  sql::Expr::ColumnRef(table_name, ss.name),
                  sql::Expr::Literal(storage::Value(
                      ss.lo + rng.UniformDouble(0.2, 0.8) * (ss.hi - ss.lo)))));
            }
          }
          stmt.where = sql::AndAll(conjuncts);
          if (grouped) {
            const std::string& dim =
                syn.columns[static_cast<size_t>(group_col)].name;
            stmt.group_by.push_back(sql::Expr::ColumnRef(table_name, dim));
            sql::SelectItem key;
            key.expr = sql::Expr::ColumnRef(table_name, dim);
            stmt.items.push_back(std::move(key));
          }
          sql::SelectItem agg;
          agg.agg = op;
          if (op == sql::AggFunc::kCount) {
            agg.star = true;
          } else {
            agg.expr = sql::Expr::ColumnRef(
                table_name, syn.columns[static_cast<size_t>(measure)].name);
          }
          stmt.items.push_back(std::move(agg));

          auto bound = sql::Bind(stmt, db);
          if (!bound.ok()) continue;
          auto estimated = Answer(bound.value());
          if (!estimated.ok()) continue;
          auto truth = engine.Execute(bound.value(), full_view,
                                      util::ExecContext());
          if (!truth.ok()) continue;
          auto err = metric::RelativeError(truth.value(),
                                           estimated.value().result,
                                           grouped ? 1u : 0u);
          if (!err.ok()) continue;
          auto& slot = accumulated[CategoryOf(stmt)];
          slot.first += err.value();
          slot.second += 1;
        }
      }
    }
  }

  for (const auto& [category, sum_count] : accumulated) {
    if (sum_count.second == 0) continue;
    const double mean = sum_count.first / static_cast<double>(sum_count.second);
    // Floor keeps the estimate honest: a perfectly calibrated category
    // still reports *some* error (the synopsis is lossy by construction).
    calibrated_errors_[category] = std::clamp(mean, 0.02, 1.0);
  }
}

Status LearnedFallback::SaveTo(std::ostream& out) const {
  out.precision(17);
  out << "asqp-learned-fallback v1\n";
  out << "options " << options_.num_bins << " " << options_.default_error
      << "\n";
  out << "calibrated " << calibrated_errors_.size() << "\n";
  for (const auto& [category, err] : calibrated_errors_) {
    out << category << " " << err << "\n";
  }
  out << "tables " << tables_.size() << "\n";
  for (const auto& [name, syn] : tables_) {
    out << "table " << name << " " << syn.full_rows << " " << syn.fitted_rows
        << " " << syn.scale << " " << syn.columns.size() << "\n";
    for (const ColumnSynopsis& cs : syn.columns) {
      if (cs.is_numeric) {
        out << "numcol " << cs.name << " " << cs.lo << " " << cs.hi << " "
            << cs.min_value << " " << cs.max_value << " " << cs.total_sum
            << " " << cs.nulls << " " << cs.non_null << " " << cs.counts.size()
            << "\n";
        for (size_t b = 0; b < cs.counts.size(); ++b) {
          out << cs.counts[b] << " " << cs.sums[b] << "\n";
        }
      } else {
        out << "catcol " << cs.name << " " << cs.nulls << " " << cs.non_null
            << " " << cs.categories.size() << "\n";
        for (size_t i = 0; i < cs.categories.size(); ++i) {
          out << cs.counts[i] << "\t" << cs.categories[i] << "\n";
        }
      }
    }
  }
  if (!out.good()) return Status::Internal("learned fallback: write failed");
  return Status::OK();
}

Result<LearnedFallback> LearnedFallback::LoadFrom(std::istream& in) {
  const auto malformed = [](const std::string& what) {
    return Status::ParseError("learned fallback: malformed " + what);
  };
  std::string line;
  if (!std::getline(in, line) || line != "asqp-learned-fallback v1") {
    return malformed("header");
  }
  LearnedFallback fb;
  std::string token;
  if (!(in >> token) || token != "options" || !(in >> fb.options_.num_bins) ||
      !(in >> fb.options_.default_error)) {
    return malformed("options");
  }
  size_t num_calibrated = 0;
  if (!(in >> token) || token != "calibrated" || !(in >> num_calibrated)) {
    return malformed("calibration header");
  }
  for (size_t i = 0; i < num_calibrated; ++i) {
    std::string category;
    double err = 0.0;
    if (!(in >> category >> err)) return malformed("calibration entry");
    fb.calibrated_errors_[category] = err;
  }
  size_t num_tables = 0;
  if (!(in >> token) || token != "tables" || !(in >> num_tables)) {
    return malformed("table header");
  }
  for (size_t t = 0; t < num_tables; ++t) {
    TableSynopsis syn;
    size_t num_cols = 0;
    if (!(in >> token) || token != "table" || !(in >> syn.name) ||
        !(in >> syn.full_rows >> syn.fitted_rows >> syn.scale >> num_cols)) {
      return malformed("table entry");
    }
    for (size_t c = 0; c < num_cols; ++c) {
      ColumnSynopsis cs;
      if (!(in >> token)) return malformed("column kind");
      if (token == "numcol") {
        size_t bins = 0;
        cs.is_numeric = true;
        if (!(in >> cs.name >> cs.lo >> cs.hi >> cs.min_value >>
              cs.max_value >> cs.total_sum >> cs.nulls >> cs.non_null >>
              bins)) {
          return malformed("numeric column");
        }
        cs.counts.resize(bins);
        cs.sums.resize(bins);
        for (size_t b = 0; b < bins; ++b) {
          if (!(in >> cs.counts[b] >> cs.sums[b])) return malformed("bin");
        }
      } else if (token == "catcol") {
        size_t cats = 0;
        cs.is_numeric = false;
        if (!(in >> cs.name >> cs.nulls >> cs.non_null >> cats)) {
          return malformed("categorical column");
        }
        cs.counts.resize(cats);
        cs.categories.resize(cats);
        for (size_t i = 0; i < cats; ++i) {
          if (!(in >> cs.counts[i])) return malformed("category count");
          // Category text follows a tab and runs to end of line (it may
          // contain spaces).
          if (in.get() != '\t') return malformed("category separator");
          if (!std::getline(in, cs.categories[i])) {
            return malformed("category value");
          }
        }
      } else {
        return malformed("column kind '" + token + "'");
      }
      syn.columns.push_back(std::move(cs));
    }
    const std::string name = syn.name;
    fb.tables_.emplace(name, std::move(syn));
  }
  return fb;
}

}  // namespace aqp
}  // namespace asqp
