// Differential SQL fuzz harness for the morsel-parallel QueryEngine: a
// seeded generator produces hundreds of random queries — FK joins up to 4
// tables, nested AND/OR/NOT predicate trees (IN / BETWEEN / LIKE /
// IS NULL), GROUP BY / HAVING / ORDER BY / LIMIT, NULL-heavy columns,
// occasional cross products — and every query runs on a planner-off
// sequential reference engine and on variant engines crossing
// {planner off, planner on + column statistics, planner on no-stats} x
// {1, 2, 4, 8} threads x {ordered secondary indexes on, off}
// over IMDB, flights, and a synthetic Zipf-skewed-key table, asserting
// byte-identical ResultSets. The index legs are the fuzz-level proof that
// the access path (IndexRangeScan vs FullScan) is a pure cost decision:
// candidates come back in scan order and every conjunct is re-evaluated,
// so not one byte may move when a catalog is attached. All engines share one morsel_rows: the
// morsel decomposition is part of the deterministic plan spec (see
// DESIGN.md "Partitioned build & partial aggregation"); neither thread
// count nor the cost-based planner may change a single byte.
//
// ASQP_SEED overrides the generator seed (CI runs three values under
// TSan), so a reported failure reproduces with the printed seed + index.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exec/executor.h"
#include "plan/stats.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "storage/database.h"
#include "storage/index.h"
#include "tests/testing.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloadgen/generator.h"

namespace asqp {
namespace exec {
namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprPtr;
using storage::Value;
using storage::ValueType;

// TSan slows execution 5-15x; shrink the data, keep the 200+ query count
// (the acceptance bar holds under -DASQP_SANITIZE=thread).
#ifdef ASQP_SANITIZE_THREAD
constexpr double kDataScale = 0.01;
constexpr size_t kSkewedRows = 600;
#else
constexpr double kDataScale = 0.02;
constexpr size_t kSkewedRows = 2400;
#endif
constexpr size_t kQueriesPerDataset = 210;

// Tiny morsels force many chunks per operator even on test-sized tables.
constexpr size_t kMorselRows = 64;

uint64_t SeedFromEnv() {
  const char* env = std::getenv("ASQP_SEED");
  if (env == nullptr || *env == '\0') return 20260805;
  return std::strtoull(env, nullptr, 10);
}

QueryEngine MakeEngine(size_t threads, bool planner = true,
                       std::shared_ptr<const plan::StatsCatalog> stats =
                           nullptr,
                       std::shared_ptr<const storage::IndexCatalog> indexes =
                           nullptr) {
  ExecOptions options;
  // A tight intermediate cap keeps runaway join blowups cheap; capped
  // queries must still fail with the same Status code on every engine.
  options.max_intermediate_rows = 400'000;
  options.num_threads = threads;
  options.morsel_rows = kMorselRows;
  options.enable_planner = planner;
  options.planner_stats = std::move(stats);
  options.index_catalog = std::move(indexes);
  return QueryEngine(options);
}

/// A dataset the fuzzer can draw from: database + FK join graph.
struct FuzzDataset {
  std::string name;
  std::shared_ptr<storage::Database> db;
  std::vector<workloadgen::FkEdge> fks;
};

/// Synthetic skewed-key tables: `fact.k` follows a Zipf distribution over
/// `dim.k` (a handful of keys own most rows — the partitioned build's
/// worst case), `detail.fact_id` is Zipf over fact ids, and grp / val /
/// note / amt are NULL-heavy (~30%), so group keys, aggregates, and
/// predicates all hit NULLs constantly.
FuzzDataset MakeSkewed() {
  using storage::Schema;
  using storage::Table;

  util::Rng rng(7);
  auto db = std::make_shared<storage::Database>();

  constexpr size_t kDims = 48;
  auto dim = std::make_shared<Table>(
      "dim", Schema({{"k", ValueType::kInt64},
                     {"label", ValueType::kString},
                     {"weight", ValueType::kDouble}}));
  const char* kLabels[] = {"red", "green", "blue", "cyan", "teal"};
  for (size_t i = 0; i < kDims; ++i) {
    EXPECT_TRUE(
        dim->AppendRow(
               {Value(static_cast<int64_t>(i)),
                rng.Bernoulli(0.3)
                    ? Value()
                    : Value(std::string(kLabels[rng.NextBounded(5)])),
                rng.Bernoulli(0.3) ? Value() : Value(rng.UniformDouble(0, 10))})
            .ok());
  }

  auto fact = std::make_shared<Table>(
      "fact", Schema({{"id", ValueType::kInt64},
                      {"k", ValueType::kInt64},
                      {"grp", ValueType::kString},
                      {"val", ValueType::kDouble},
                      {"cnt", ValueType::kInt64}}));
  const char* kGroups[] = {"a", "b", "c", "d", "e", "f", "g"};
  for (size_t i = 0; i < kSkewedRows; ++i) {
    EXPECT_TRUE(
        fact->AppendRow(
                {Value(static_cast<int64_t>(i)),
                 Value(static_cast<int64_t>(rng.Zipf(kDims, 1.2))),
                 rng.Bernoulli(0.3)
                     ? Value()
                     : Value(std::string(kGroups[rng.Zipf(7, 1.0)])),
                 rng.Bernoulli(0.3) ? Value()
                                    : Value(rng.UniformDouble(-50, 50)),
                 Value(rng.UniformInt(0, 5))})
            .ok());
  }

  auto detail = std::make_shared<Table>(
      "detail", Schema({{"fact_id", ValueType::kInt64},
                        {"note", ValueType::kString},
                        {"amt", ValueType::kDouble}}));
  for (size_t i = 0; i < kSkewedRows; ++i) {
    EXPECT_TRUE(detail
                    ->AppendRow({Value(static_cast<int64_t>(
                                     rng.Zipf(kSkewedRows, 1.1))),
                                 rng.Bernoulli(0.4)
                                     ? Value()
                                     : Value(std::string(
                                           kLabels[rng.NextBounded(5)])),
                                 rng.Bernoulli(0.3)
                                     ? Value()
                                     : Value(rng.UniformDouble(0, 100))})
                    .ok());
  }

  EXPECT_TRUE(db->AddTable(dim).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());
  EXPECT_TRUE(db->AddTable(detail).ok());
  return FuzzDataset{
      "skewed",
      db,
      {{"fact", "k", "dim", "k"}, {"detail", "fact_id", "fact", "id"}}};
}

std::vector<FuzzDataset> MakeDatasets() {
  data::DatasetOptions options;
  options.scale = kDataScale;
  options.workload_size = 1;  // workload unused; the fuzzer generates its own
  options.seed = 42;
  data::DatasetBundle imdb = data::MakeImdbJob(options);
  data::DatasetBundle flights = data::MakeFlights(options);
  return {FuzzDataset{"imdb", imdb.db, imdb.fks},
          FuzzDataset{"flights", flights.db, flights.fks},
          MakeSkewed()};
}

/// Seeded query generator over one dataset's FK graph. Distinct from
/// workloadgen::QueryGenerator on purpose: this one is adversarial —
/// nested predicate trees, DISTINCT aggregates, HAVING over aggregate
/// aliases, all-NULL group keys, and deliberate cross products — rather
/// than paper-shaped exploration queries.
class QueryFuzzer {
 public:
  QueryFuzzer(const FuzzDataset& dataset, util::Rng* rng)
      : dataset_(dataset), rng_(rng) {
    for (const workloadgen::FkEdge& fk : dataset.fks) {
      AddTable(fk.child_table);
      AddTable(fk.parent_table);
    }
  }

  sql::SelectStatement Generate() {
    sql::SelectStatement stmt;
    from_positions_.clear();
    stmt.from.clear();
    std::vector<ExprPtr> conjuncts;
    PickTables(&stmt, &conjuncts);
    if (rng_->Bernoulli(0.85)) conjuncts.push_back(GenPredicate(stmt, 0));
    stmt.where = sql::AndAll(conjuncts);
    if (rng_->Bernoulli(0.5)) {
      GenAggregateSelect(&stmt);
    } else {
      GenPlainSelect(&stmt);
    }
    return stmt;
  }

 private:
  struct ColRef {
    size_t from_idx;  // position in stmt.from
    size_t col;
  };

  void AddTable(const std::string& name) {
    for (const auto& n : table_names_) {
      if (n == name) return;
    }
    auto table = dataset_.db->GetTable(name);
    ASSERT_TRUE(table.ok()) << name;
    table_names_.push_back(name);
    tables_.push_back(table.value());
  }

  const storage::Table& TableAt(const sql::SelectStatement& stmt,
                                size_t from_idx) const {
    for (size_t i = 0; i < table_names_.size(); ++i) {
      if (table_names_[i] == stmt.from[from_idx].table) return *tables_[i];
    }
    ADD_FAILURE() << "unknown table " << stmt.from[from_idx].table;
    return *tables_[0];
  }

  /// Grow a connected FK subgraph of 1-4 tables (or, rarely, a two-table
  /// cross product), emitting equi-join conjuncts as edges are added.
  void PickTables(sql::SelectStatement* stmt, std::vector<ExprPtr>* conjuncts) {
    const size_t nt = table_names_.size();
    if (nt >= 2 && rng_->Bernoulli(0.06)) {
      // Cross product over the two smallest tables (disconnected FROM).
      size_t a = 0, b = 1;
      for (size_t i = 0; i < nt; ++i) {
        if (tables_[i]->num_rows() < tables_[a]->num_rows()) a = i;
      }
      if (b == a) b = 0;
      for (size_t i = 0; i < nt; ++i) {
        if (i != a && tables_[i]->num_rows() < tables_[b]->num_rows()) b = i;
      }
      AddFrom(stmt, table_names_[a]);
      AddFrom(stmt, table_names_[b]);
      return;
    }
    const size_t want = 1 + rng_->NextBounded(4);
    AddFrom(stmt, table_names_[rng_->NextBounded(nt)]);
    while (stmt->from.size() < want) {
      // Edges with exactly one endpoint inside the chosen set.
      std::vector<const workloadgen::FkEdge*> frontier;
      for (const workloadgen::FkEdge& fk : dataset_.fks) {
        const bool child_in = from_positions_.count(fk.child_table) > 0;
        const bool parent_in = from_positions_.count(fk.parent_table) > 0;
        if (child_in != parent_in) frontier.push_back(&fk);
      }
      if (frontier.empty()) break;
      const workloadgen::FkEdge& fk =
          *frontier[rng_->NextBounded(frontier.size())];
      const bool child_new = from_positions_.count(fk.child_table) == 0;
      AddFrom(stmt, child_new ? fk.child_table : fk.parent_table);
      conjuncts->push_back(Expr::Binary(
          BinOp::kEq,
          Expr::ColumnRef(stmt->from[from_positions_[fk.child_table]].alias,
                          fk.child_col),
          Expr::ColumnRef(stmt->from[from_positions_[fk.parent_table]].alias,
                          fk.parent_col)));
    }
  }

  void AddFrom(sql::SelectStatement* stmt, const std::string& table) {
    from_positions_[table] = stmt->from.size();
    stmt->from.push_back(
        {table, std::string("t") + std::to_string(stmt->from.size())});
  }

  ColRef RandomColumn(const sql::SelectStatement& stmt) {
    const size_t from_idx = rng_->NextBounded(stmt.from.size());
    return {from_idx,
            rng_->NextBounded(TableAt(stmt, from_idx).num_columns())};
  }

  ExprPtr ColumnExpr(const sql::SelectStatement& stmt, const ColRef& c) const {
    const storage::Table& t = TableAt(stmt, c.from_idx);
    return Expr::ColumnRef(stmt.from[c.from_idx].alias,
                           t.schema().fields()[c.col].name);
  }

  Value SampleValue(const sql::SelectStatement& stmt, const ColRef& c) {
    const storage::Table& t = TableAt(stmt, c.from_idx);
    if (t.num_rows() == 0) return Value();
    return t.column(c.col).ValueAt(rng_->NextBounded(t.num_rows()));
  }

  Value SampleNonNull(const sql::SelectStatement& stmt, const ColRef& c) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      Value v = SampleValue(stmt, c);
      if (!v.is_null()) return v;
    }
    return Value();
  }

  /// Nested predicate tree: AND/OR interior nodes (sometimes NOT-wrapped),
  /// leaves drawn from comparison / IN / BETWEEN / LIKE / IS NULL with
  /// literals sampled from the actual column data.
  ExprPtr GenPredicate(const sql::SelectStatement& stmt, int depth) {
    if (depth < 3 && rng_->Bernoulli(0.4)) {
      ExprPtr node = Expr::Binary(rng_->Bernoulli(0.5) ? BinOp::kAnd
                                                       : BinOp::kOr,
                                  GenPredicate(stmt, depth + 1),
                                  GenPredicate(stmt, depth + 1));
      if (rng_->Bernoulli(0.15)) node = Expr::Not(std::move(node));
      return node;
    }
    const ColRef c = RandomColumn(stmt);
    ExprPtr col = ColumnExpr(stmt, c);
    const bool negated = rng_->Bernoulli(0.25);
    switch (rng_->NextBounded(6)) {
      case 0:
        return Expr::IsNull(std::move(col), negated);
      case 1: {
        std::vector<Value> in_list;
        const size_t n = 2 + rng_->NextBounded(3);
        for (size_t i = 0; i < n; ++i) {
          Value v = SampleNonNull(stmt, c);
          if (!v.is_null()) in_list.push_back(std::move(v));
        }
        if (in_list.empty()) return Expr::IsNull(std::move(col));
        return Expr::In(std::move(col), std::move(in_list), negated);
      }
      case 2: {
        Value lo = SampleNonNull(stmt, c);
        Value hi = SampleNonNull(stmt, c);
        if (lo.is_null() || hi.is_null()) {
          return Expr::IsNull(std::move(col));
        }
        if (lo.Compare(hi) > 0) std::swap(lo, hi);
        return Expr::Between(std::move(col), std::move(lo), std::move(hi),
                             negated);
      }
      case 3: {
        Value v = SampleNonNull(stmt, c);
        if (v.type() == ValueType::kString && !v.AsString().empty()) {
          const std::string& s = v.AsString();
          const std::string pattern =
              "%" + s.substr(0, std::min<size_t>(3, s.size())) + "%";
          return Expr::Like(std::move(col), pattern, negated);
        }
        [[fallthrough]];
      }
      default: {
        Value v = SampleNonNull(stmt, c);
        if (v.is_null()) return Expr::IsNull(std::move(col));
        static constexpr BinOp kCmps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                                          BinOp::kLe, BinOp::kGt, BinOp::kGe};
        return Expr::Binary(kCmps[rng_->NextBounded(6)], std::move(col),
                            Expr::Literal(std::move(v)));
      }
    }
  }

  void GenPlainSelect(sql::SelectStatement* stmt) {
    if (rng_->Bernoulli(0.08)) {
      sql::SelectItem star;
      star.star = true;
      stmt->items.push_back(std::move(star));
    } else {
      const size_t n = 1 + rng_->NextBounded(4);
      for (size_t i = 0; i < n; ++i) {
        sql::SelectItem item;
        item.expr = ColumnExpr(*stmt, RandomColumn(*stmt));
        stmt->items.push_back(std::move(item));
      }
    }
    stmt->distinct = rng_->Bernoulli(0.2);
    if (rng_->Bernoulli(0.4)) {
      const size_t n = 1 + rng_->NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        stmt->order_by.push_back({ColumnExpr(*stmt, RandomColumn(*stmt)),
                                  rng_->Bernoulli(0.5)});
      }
    }
    if (rng_->Bernoulli(0.5)) stmt->limit = rng_->UniformInt(1, 60);
  }

  void GenAggregateSelect(sql::SelectStatement* stmt) {
    const size_t groups = rng_->NextBounded(3);  // 0 = global aggregate
    for (size_t g = 0; g < groups; ++g) {
      const ColRef c = RandomColumn(*stmt);
      stmt->group_by.push_back(ColumnExpr(*stmt, c));
      sql::SelectItem item;
      item.expr = ColumnExpr(*stmt, c);
      item.alias = "grp" + std::to_string(g);
      stmt->items.push_back(std::move(item));
    }
    const size_t aggs = 1 + rng_->NextBounded(3);
    for (size_t a = 0; a < aggs; ++a) {
      sql::SelectItem item;
      item.alias = "agg" + std::to_string(a);
      static constexpr sql::AggFunc kFuncs[] = {
          sql::AggFunc::kCount, sql::AggFunc::kSum, sql::AggFunc::kAvg,
          sql::AggFunc::kMin, sql::AggFunc::kMax};
      item.agg = kFuncs[rng_->NextBounded(5)];
      if (item.agg == sql::AggFunc::kCount && rng_->Bernoulli(0.4)) {
        item.star = true;
      } else {
        item.expr = ColumnExpr(*stmt, RandomColumn(*stmt));
        item.distinct = rng_->Bernoulli(0.25);
      }
      stmt->items.push_back(std::move(item));
    }
    if (rng_->Bernoulli(0.35)) {
      static constexpr BinOp kCmps[] = {BinOp::kGe, BinOp::kGt, BinOp::kLe,
                                        BinOp::kLt};
      stmt->having = Expr::Binary(
          kCmps[rng_->NextBounded(4)],
          Expr::ColumnRef("", "agg" + std::to_string(rng_->NextBounded(aggs))),
          Expr::Literal(Value(rng_->UniformInt(0, 3))));
    }
    if (rng_->Bernoulli(0.5)) {
      // ORDER BY over output columns (aggregate aliases / group aliases).
      const size_t n = 1 + rng_->NextBounded(2);
      for (size_t i = 0; i < n; ++i) {
        const size_t pick = rng_->NextBounded(stmt->items.size());
        stmt->order_by.push_back({Expr::ColumnRef("", stmt->items[pick].alias),
                                  rng_->Bernoulli(0.5)});
      }
    }
    if (rng_->Bernoulli(0.4)) stmt->limit = rng_->UniformInt(1, 40);
  }

  const FuzzDataset& dataset_;
  util::Rng* rng_;
  std::vector<std::string> table_names_;
  std::vector<std::shared_ptr<storage::Table>> tables_;
  std::map<std::string, size_t> from_positions_;
};

/// Run one query on the reference engine (planner off, sequential) and on
/// every variant engine and require identical outcomes: same ok-ness and
/// Status code, and for ok queries byte-identical ResultSets (column
/// names, row count, and every serialized row, order included).
void RunDifferential(const FuzzDataset& dataset, const QueryEngine& seq,
                     const std::vector<QueryEngine>& parallel,
                     const sql::SelectStatement& stmt, size_t index,
                     uint64_t seed, size_t* executed_ok) {
  const std::string label = dataset.name + " query " + std::to_string(index) +
                            " (seed " + std::to_string(seed) +
                            "): " + stmt.ToSql();
  auto bound = sql::Bind(stmt, *dataset.db);
  ASSERT_TRUE(bound.ok()) << label << ": " << bound.status().ToString();
  storage::DatabaseView view(dataset.db.get());
  auto expected = seq.Execute(bound.value(), view);
  if (expected.ok()) ++*executed_ok;
  for (const QueryEngine& par : parallel) {
    const std::string engine_label =
        label + " @" + std::to_string(par.options().num_threads) +
        " threads planner-" +
        (par.options().enable_planner
             ? (par.options().planner_stats != nullptr ? "on" : "on-no-stats")
             : "off") +
        (par.options().index_catalog != nullptr ? " index-on" : " index-off");
    auto actual = par.Execute(bound.value(), view);
    ASSERT_EQ(expected.ok(), actual.ok())
        << engine_label << ": sequential=" << expected.status().ToString()
        << " parallel=" << actual.status().ToString();
    if (!expected.ok()) {
      ASSERT_EQ(expected.status().code(), actual.status().code())
          << engine_label;
      continue;
    }
    const ResultSet& want = expected.value();
    const ResultSet& got = actual.value();
    ASSERT_EQ(want.column_names(), got.column_names()) << engine_label;
    ASSERT_EQ(want.num_rows(), got.num_rows()) << engine_label;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(want.RowKey(r), got.RowKey(r))
          << engine_label << " row " << r << " differs";
    }
  }
}

TEST(DifferentialExecTest, SeqVsParallelOnGeneratedQueries) {
  const uint64_t seed = SeedFromEnv();
  // Reference: planner OFF, sequential — the unplanned runtime-greedy
  // pipeline. Every variant (planner off at higher thread counts, planner
  // on with real column statistics at every thread count) must reproduce
  // its bytes exactly.
  const QueryEngine seq = MakeEngine(1, /*planner=*/false);
  for (const FuzzDataset& dataset : MakeDatasets()) {
    // Statistics and index catalogs are per-database, so the planner-on
    // and index-on engines are built inside the dataset loop. The catalog
    // covers the full database (subset == nullptr) — exactly the scope of
    // the view every engine executes against — and indexes every column,
    // so the planner's access-path rule gets a real choice on every
    // generated conjunct.
    auto stats = std::make_shared<const plan::StatsCatalog>(
        plan::StatsCatalog::Collect(*dataset.db));
    const storage::DatabaseView full_view(dataset.db.get());
    auto indexes = std::make_shared<const storage::IndexCatalog>(
        storage::IndexCatalog::Build(full_view,
                                     storage::AllIndexColumns(*dataset.db),
                                     /*generation=*/0));
    std::vector<QueryEngine> variants;
    for (const size_t threads : {2, 4, 8}) {
      variants.push_back(MakeEngine(threads, /*planner=*/false));
    }
    for (const size_t threads : {1, 2, 4, 8}) {
      variants.push_back(MakeEngine(threads, /*planner=*/true, stats));
      variants.push_back(MakeEngine(threads, /*planner=*/true, stats,
                                    indexes));
    }
    // Planner with no statistics (fixed default selectivities) is its own
    // estimation code path; one sequential engine covers it, with and
    // without indexes (default selectivities drive the access-path rule
    // differently than real statistics do).
    variants.push_back(MakeEngine(1, /*planner=*/true));
    variants.push_back(MakeEngine(1, /*planner=*/true, nullptr, indexes));
    // Planner off + catalog attached: access paths are a planner rule, so
    // the catalog must be inert — full scans, identical bytes.
    variants.push_back(MakeEngine(2, /*planner=*/false, nullptr, indexes));
    util::Rng rng(seed ^ util::Fnv1a(dataset.name));
    QueryFuzzer fuzzer(dataset, &rng);
    size_t executed_ok = 0;
    for (size_t i = 0; i < kQueriesPerDataset; ++i) {
      const sql::SelectStatement stmt = fuzzer.Generate();
      RunDifferential(dataset, seq, variants, stmt, i, seed, &executed_ok);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The generator must produce mostly executable queries, or the
    // differential coverage is an illusion.
    EXPECT_GE(executed_ok, kQueriesPerDataset / 2)
        << dataset.name << ": too few queries executed cleanly";
  }
}

// ---- Deadline / cancellation / fault injection mid-operator. ----

std::shared_ptr<storage::Database> SkewedDb() { return MakeSkewed().db; }

TEST(DifferentialExecTest, FaultMidBuildReturnsResourceExhausted) {
  // exec.join.partition guards the per-morsel partition buffers, which
  // only exist on the parallel build path (the sequential build keeps the
  // existing exec.join.alloc point).
  const auto db = SkewedDb();
  storage::DatabaseView view(db.get());
  const std::string sql =
      "SELECT d.label, f.val FROM fact f, dim d WHERE f.k = d.k";
  auto& faults = util::FaultInjector::Global();
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    const QueryEngine engine = MakeEngine(threads);
    faults.Reset();
    // skip=2: the first chunks survive, so the fault lands mid-build.
    faults.Arm("exec.join.partition", /*count=*/1, /*skip=*/2);
    auto result = engine.ExecuteSql(sql, view);
    faults.Reset();
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("partition"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(DifferentialExecTest, FaultMidAggregationFailsBothEnginesAlike) {
  const auto db = SkewedDb();
  storage::DatabaseView view(db.get());
  const std::string sql =
      "SELECT f.grp, COUNT(*), SUM(f.val) FROM fact f GROUP BY f.grp";
  auto& faults = util::FaultInjector::Global();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const QueryEngine engine = MakeEngine(threads);
    faults.Reset();
    faults.Arm("exec.agg.partial", /*count=*/1, /*skip=*/2);
    auto result = engine.ExecuteSql(sql, view);
    faults.Reset();
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("aggregation"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(DifferentialExecTest, DeadlineMidBuildReturnsDeadlineExceeded) {
  const auto db = SkewedDb();
  storage::DatabaseView view(db.get());
  const QueryEngine par = MakeEngine(4);
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  auto result = par.ExecuteSql(
      "SELECT d.label, f.val FROM fact f, dim d WHERE f.k = d.k", view,
      context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

// ---- BETWEEN <-> paired-inequality equivalence. ----
//
// The canonical fingerprint collapses `x BETWEEN lo AND hi` with
// `lo <= x AND x <= hi` (and `x NOT BETWEEN lo AND hi` with
// `x < lo OR x > hi`), so the serving layer's answer cache may hand one
// spelling's cached bytes to the other. This test is the license for
// that: both spellings must execute to byte-identical ResultSets, with
// the planner on and off, including over NULL-heavy columns (comparisons
// with NULL are false in WHERE, so both spellings reject NULLs alike).
TEST(DifferentialExecTest, BetweenMatchesPairedInequalities) {
  const auto db = SkewedDb();
  storage::DatabaseView view(db.get());
  const struct {
    const char* between;
    const char* spelled;
  } kPairs[] = {
      {"SELECT f.id, f.val FROM fact f WHERE f.cnt BETWEEN 3 AND 17",
       "SELECT f.id, f.val FROM fact f WHERE 3 <= f.cnt AND f.cnt <= 17"},
      {"SELECT f.id FROM fact f WHERE f.val BETWEEN 1.5 AND 8.25",
       "SELECT f.id FROM fact f WHERE 1.5 <= f.val AND f.val <= 8.25"},
      {"SELECT f.id FROM fact f WHERE f.cnt NOT BETWEEN 5 AND 40",
       "SELECT f.id FROM fact f WHERE f.cnt < 5 OR f.cnt > 40"},
      {"SELECT d.label, COUNT(*) FROM fact f, dim d "
       "WHERE f.k = d.k AND d.k BETWEEN 2 AND 9 GROUP BY d.label",
       "SELECT d.label, COUNT(*) FROM fact f, dim d "
       "WHERE f.k = d.k AND 2 <= d.k AND d.k <= 9 GROUP BY d.label"},
  };
  for (const bool planner : {false, true}) {
    const QueryEngine engine = MakeEngine(1, planner);
    for (const auto& pair : kPairs) {
      const std::string label = std::string(pair.between) + " planner=" +
                                (planner ? "on" : "off");
      auto a = engine.ExecuteSql(pair.between, view);
      auto b = engine.ExecuteSql(pair.spelled, view);
      ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
      const ResultSet& want = a.value();
      const ResultSet& got = b.value();
      ASSERT_EQ(want.num_rows(), got.num_rows()) << label;
      for (size_t r = 0; r < want.num_rows(); ++r) {
        ASSERT_EQ(want.RowKey(r), got.RowKey(r)) << label << " row " << r;
      }
    }
  }
}

TEST(DifferentialExecTest, CancelMidAggregationReturnsCancelled) {
  const auto db = SkewedDb();
  storage::DatabaseView view(db.get());
  const QueryEngine par = MakeEngine(4);
  util::ExecContext context;
  context.RequestCancel();
  auto result = par.ExecuteSql(
      "SELECT f.grp, AVG(f.val) FROM fact f GROUP BY f.grp", view, context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled)
      << result.status().ToString();
}

}  // namespace
}  // namespace exec
}  // namespace asqp
