// Morsel-parallel QueryEngine: the parallel engine must produce
// bit-for-bit identical ResultSets to the sequential engine on every
// workload query (IMDB + flights), respect deadlines/cancellation
// mid-morsel without deadlocking, behave identically across thread
// counts (exercised under TSan), and survive a seeded fuzz loop of
// random SPJ queries. Also pins the bench harness's FilterNonEmpty to
// sequential semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bench_common.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "metric/score.h"
#include "sql/binder.h"
#include "tests/testing.h"
#include "workloadgen/generator.h"
#include "workloadgen/stats.h"

namespace asqp {
namespace exec {
namespace {

// TSan slows execution 5-15x; keep the workloads small there.
#ifdef ASQP_SANITIZE_THREAD
constexpr size_t kFuzzQueries = 12;
constexpr double kDataScale = 0.01;
constexpr size_t kWorkloadSize = 8;
#else
constexpr size_t kFuzzQueries = 40;
constexpr double kDataScale = 0.02;
constexpr size_t kWorkloadSize = 12;
#endif

data::DatasetBundle MakeBundle(const std::string& name) {
  data::DatasetOptions options;
  options.scale = kDataScale;
  options.workload_size = kWorkloadSize;
  options.seed = 42;
  if (name == "imdb") return data::MakeImdbJob(options);
  return data::MakeFlights(options);
}

QueryEngine MakeParallelEngine(size_t threads, size_t morsel_rows = 64) {
  ExecOptions options;
  options.num_threads = threads;
  // Tiny morsels force many chunks even on test-sized tables, so the
  // merge order and per-morsel deadline paths are actually exercised.
  options.morsel_rows = morsel_rows;
  return QueryEngine(options);
}

void ExpectSameResult(const ResultSet& expected, const ResultSet& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.column_names(), actual.column_names()) << label;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << label;
  for (size_t i = 0; i < expected.num_rows(); ++i) {
    ASSERT_EQ(expected.RowKey(i), actual.RowKey(i))
        << label << " row " << i << " differs";
  }
}

/// Run `stmt` through both engines and require identical output
/// (including row order). Queries that fail to bind are skipped; a query
/// that errors must error identically in both engines.
void CompareEngines(const storage::Database& db, const QueryEngine& seq,
                    const QueryEngine& par, const sql::SelectStatement& stmt) {
  const std::string label = stmt.ToSql();
  auto bound = sql::Bind(stmt, db);
  if (!bound.ok()) return;
  storage::DatabaseView view(&db);
  auto expected = seq.Execute(bound.value(), view);
  auto actual = par.Execute(bound.value(), view);
  ASSERT_EQ(expected.ok(), actual.ok())
      << label << ": sequential=" << expected.status().ToString()
      << " parallel=" << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  ExpectSameResult(expected.value(), actual.value(), label);
}

TEST(ParallelExecTest, WorkloadEqualityImdbAndFlights) {
  const QueryEngine seq;
  const QueryEngine par = MakeParallelEngine(4);
  for (const std::string& name : {std::string("imdb"), std::string("flights")}) {
    const data::DatasetBundle bundle = MakeBundle(name);
    ASSERT_GT(bundle.workload.size(), 0u) << name;
    for (const auto& wq : bundle.workload.queries()) {
      CompareEngines(*bundle.db, seq, par, wq.stmt);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelExecTest, ProvenanceEquality) {
  const data::DatasetBundle bundle = MakeBundle("imdb");
  const QueryEngine seq;
  const QueryEngine par = MakeParallelEngine(4);
  storage::DatabaseView view(bundle.db.get());
  for (const auto& wq : bundle.workload.queries()) {
    if (wq.stmt.HasAggregates()) continue;
    auto bound = sql::Bind(wq.stmt, *bundle.db);
    if (!bound.ok()) continue;
    auto expected = seq.ExecuteWithProvenance(bound.value(), view);
    auto actual = par.ExecuteWithProvenance(bound.value(), view);
    ASSERT_EQ(expected.ok(), actual.ok()) << wq.ToSql();
    if (!expected.ok()) continue;
    EXPECT_EQ(expected.value().table_names, actual.value().table_names);
    ASSERT_EQ(expected.value().tuples.size(), actual.value().tuples.size())
        << wq.ToSql();
    for (size_t i = 0; i < expected.value().tuples.size(); ++i) {
      ASSERT_EQ(expected.value().tuples[i], actual.value().tuples[i])
          << wq.ToSql() << " tuple " << i;
    }
  }
}

TEST(ParallelExecTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const data::DatasetBundle bundle = MakeBundle("imdb");
  const QueryEngine par = MakeParallelEngine(4);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id",
      *bundle.db);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // An already-expired deadline trips the first Tick of whichever morsel
  // runs first; the pool must drain and return (no deadlock), and the
  // propagated Status must be kDeadlineExceeded.
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  auto result = par.Execute(bound.value(), view, context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST(ParallelExecTest, CancellationPropagatesAcrossMorsels) {
  const data::DatasetBundle bundle = MakeBundle("imdb");
  const QueryEngine par = MakeParallelEngine(4);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT t.name FROM title t WHERE t.production_year >= 0", *bundle.db);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  util::ExecContext context;
  context.RequestCancel();
  auto result = par.Execute(bound.value(), view, context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled)
      << result.status().ToString();
}

TEST(ParallelExecTest, ThreadCountInvariance) {
  // 1 thread = sequential (no pool); 2 and 8 exercise real concurrency —
  // with 8 "threads" on fewer cores the pool still has 7 helpers, which
  // is exactly the oversubscription TSan should see.
  const auto db = testing::MakeTinyMovieDb();
  const QueryEngine seq;
  const std::vector<std::string> queries = {
      "SELECT m.title, r.actor FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND m.year >= 2010 AND r.salary > 12",
      "SELECT m.title, r.salary FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND r.salary > m.rating",
      "SELECT m.year, COUNT(*), AVG(r.salary) FROM movies m, roles r "
      "WHERE m.id = r.movie_id GROUP BY m.year ORDER BY m.year",
  };
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const QueryEngine par = MakeParallelEngine(threads, /*morsel_rows=*/2);
    storage::DatabaseView view(db.get());
    for (const std::string& sql : queries) {
      auto expected = seq.ExecuteSql(sql, view);
      auto actual = par.ExecuteSql(sql, view);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectSameResult(expected.value(), actual.value(),
                       sql + " @" + std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelExecTest, FuzzRandomSpjQueries) {
  const data::DatasetBundle bundle = MakeBundle("imdb");
  workloadgen::DatabaseStats stats =
      workloadgen::DatabaseStats::Collect(*bundle.db);
  workloadgen::QueryGenerator gen(bundle.db.get(), &stats, bundle.fks);
  workloadgen::QueryGenOptions options;
  options.max_joins = 2;
  options.max_predicates = 3;
  options.agg_fraction = 0.25;

  const QueryEngine seq;
  const QueryEngine par = MakeParallelEngine(4, /*morsel_rows=*/128);
  util::Rng rng(20240805);
  for (size_t i = 0; i < kFuzzQueries; ++i) {
    const sql::SelectStatement stmt = gen.Generate(options, &rng);
    CompareEngines(*bundle.db, seq, par, stmt);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fuzz query " << i << ": " << stmt.ToSql();
    }
  }
}

TEST(ParallelExecTest, ApproximationSetViewEquality) {
  // Restricted views route PhysicalRow through the subset; the parallel
  // scan must see the same visible ordinals.
  const auto db = testing::MakeTinyMovieDb();
  storage::ApproximationSet subset;
  for (uint32_t r : {0u, 2u, 3u, 5u, 7u}) subset.Add("movies", r);
  for (uint32_t r : {1u, 2u, 4u, 6u, 8u, 9u}) subset.Add("roles", r);
  subset.Seal();
  storage::DatabaseView view(db.get(), &subset);
  const QueryEngine seq;
  const QueryEngine par = MakeParallelEngine(4, /*morsel_rows=*/2);
  const std::string sql =
      "SELECT m.title, r.actor FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND m.year >= 2000";
  auto expected = seq.ExecuteSql(sql, view);
  auto actual = par.ExecuteSql(sql, view);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectSameResult(expected.value(), actual.value(), sql);
}

/// Three tables with one schema — sales(region STRING, units INT64,
/// price DOUBLE) — so the same query text runs against a NULL-heavy
/// populated table, an empty table, and a table whose group key is NULL
/// in every row.
std::shared_ptr<storage::Database> MakeNullHeavySalesDb() {
  using storage::Schema;
  using storage::Table;
  using storage::Value;
  using storage::ValueType;

  const Schema schema({{"region", ValueType::kString},
                       {"units", ValueType::kInt64},
                       {"price", ValueType::kDouble}});
  auto db = std::make_shared<storage::Database>();

  const auto str = [](const char* s) { return Value(std::string(s)); };
  const auto i64 = [](int64_t v) { return Value(v); };
  auto sales = std::make_shared<Table>("sales", schema);
  const std::vector<std::vector<Value>> kSales = {
      {str("east"), i64(4), Value(2.5)},   {str("west"), i64(7), Value(1.5)},
      {Value(), i64(4), Value(9.0)},       {str("east"), Value(), Value(2.5)},
      {str("north"), i64(-3), Value()},    {str("west"), i64(7), Value(4.25)},
      {Value(), Value(), Value()},         {str("east"), i64(11), Value(0.5)},
      {str("north"), i64(0), Value(9.0)},  {str("west"), Value(), Value(1.5)},
      {str("east"), i64(4), Value(-2.0)},  {Value(), i64(200), Value(0.125)},
      {str("north"), i64(-3), Value(6.5)}, {str("east"), i64(9), Value()},
      {str("west"), i64(1), Value(3.75)},  {str("south"), i64(5), Value(5.0)},
      {Value(), i64(7), Value(2.5)},       {str("north"), Value(), Value(8.0)},
      {str("south"), i64(5), Value()},     {str("east"), i64(2), Value(7.25)},
      {str("west"), i64(13), Value(1.0)},  {str("south"), Value(), Value(5.0)},
      {str("north"), i64(6), Value(0.25)}, {str("east"), i64(-8), Value(4.0)},
  };
  for (const auto& r : kSales) EXPECT_TRUE(sales->AppendRow(r).ok());

  auto empty = std::make_shared<Table>("empty_sales", schema);
  auto null_keys = std::make_shared<Table>("null_key_sales", schema);
  const std::vector<std::vector<Value>> kNullKeys = {
      {Value(), i64(3), Value(1.5)}, {Value(), Value(), Value(2.5)},
      {Value(), i64(3), Value()},    {Value(), i64(-1), Value(1.5)},
      {Value(), i64(8), Value(0.5)}, {Value(), Value(), Value()},
  };
  for (const auto& r : kNullKeys) EXPECT_TRUE(null_keys->AppendRow(r).ok());

  EXPECT_TRUE(db->AddTable(sales).ok());
  EXPECT_TRUE(db->AddTable(empty).ok());
  EXPECT_TRUE(db->AddTable(null_keys).ok());
  return db;
}

TEST(ParallelExecTest, AggregateMatrixSeqVsParallel) {
  // Every aggregate function x {no GROUP BY, GROUP BY, HAVING over the
  // aggregate, ORDER BY over the aggregate} x {NULL-heavy input, empty
  // input, all-NULL group key}, at thread counts {2, 4, 8} against a
  // sequential engine with the same morsel decomposition. morsel_rows=5
  // leaves a ragged final morsel on the 24-row table.
  const auto db = MakeNullHeavySalesDb();
  const QueryEngine seq = MakeParallelEngine(1, /*morsel_rows=*/5);
  const std::vector<std::string> aggs = {
      "COUNT(*)",          "COUNT(s.units)",
      "SUM(s.units)",      "AVG(s.price)",
      "MIN(s.price)",      "MAX(s.units)",
      "COUNT(DISTINCT s.region)", "SUM(DISTINCT s.units)",
  };
  std::vector<std::string> queries;
  for (const std::string& table :
       {std::string("sales"), std::string("empty_sales"),
        std::string("null_key_sales")}) {
    for (const std::string& agg : aggs) {
      const std::string from = " FROM " + table + " s";
      queries.push_back("SELECT " + agg + from);
      queries.push_back("SELECT s.region, " + agg + from +
                        " GROUP BY s.region");
      queries.push_back("SELECT s.region, " + agg + " AS a" + from +
                        " GROUP BY s.region HAVING a >= 1");
      queries.push_back("SELECT s.region, " + agg + " AS a" + from +
                        " GROUP BY s.region ORDER BY a LIMIT 3");
    }
  }
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    const QueryEngine par = MakeParallelEngine(threads, /*morsel_rows=*/5);
    storage::DatabaseView view(db.get());
    for (const std::string& sql : queries) {
      auto expected = seq.ExecuteSql(sql, view);
      auto actual = par.ExecuteSql(sql, view);
      ASSERT_TRUE(expected.ok()) << sql << ": "
                                 << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << sql << ": " << actual.status().ToString();
      ExpectSameResult(expected.value(), actual.value(),
                       sql + " @" + std::to_string(threads) + " threads");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelExecTest, CrossProductCapReportsPartialProgress) {
  // A disconnected join graph forces the cross-product path; a tight
  // intermediate-row cap must fail with an error that reports how many
  // rows were actually produced before the cap tripped.
  const auto db = testing::MakeTinyMovieDb();
  ExecOptions options;
  options.num_threads = 4;
  options.morsel_rows = 2;
  options.max_intermediate_rows = 20;  // 8 movies x 10 roles = 80 > 20
  const QueryEngine par(options);
  storage::DatabaseView view(db.get());
  auto result =
      par.ExecuteSql("SELECT m.title, r.actor FROM movies m, roles r", view);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kExecutionError)
      << result.status().ToString();
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("cross product"), std::string::npos) << message;
  EXPECT_NE(message.find("rows produced before the cap"), std::string::npos)
      << message;
}

TEST(ParallelExecTest, DeadlineMidCrossProductCancelsWithinOneMorsel) {
  // The cross-product rewrite ticks its deadline per outer row, so an
  // already-expired deadline must surface as kDeadlineExceeded from the
  // first morsel instead of materializing the full product first.
  const auto db = testing::MakeTinyMovieDb();
  const QueryEngine par = MakeParallelEngine(4, /*morsel_rows=*/2);
  storage::DatabaseView view(db.get());
  auto bound = sql::ParseAndBind(
      "SELECT m.title, r.actor FROM movies m, roles r", *db);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  auto result = par.Execute(bound.value(), view, context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST(ParallelExecTest, FilterNonEmptyMatchesSequentialSemantics) {
  // The bench harness's parallel FilterNonEmpty must keep exactly the
  // queries a sequential full-result-size pass keeps (the bugfix's
  // "assert identical query counts" contract).
  const data::DatasetBundle bundle = MakeBundle("imdb");
  // Small morsels, so the harness engine's operators run in parallel
  // over these small tables.
  const metric::Workload filtered =
      bench::FilterNonEmpty(*bundle.db, bundle.workload, /*morsel_rows=*/2);

  metric::ScoreEvaluator evaluator(bundle.db.get(),
                                   metric::ScoreOptions{.frame_size = 25});
  std::vector<std::string> expected;
  for (const auto& wq : bundle.workload.queries()) {
    auto size = evaluator.FullResultSize(wq.stmt);
    if (size.ok() && size.value() > 0) expected.push_back(wq.ToSql());
  }
  ASSERT_EQ(filtered.size(), expected.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(filtered.query(i).ToSql(), expected[i]);
  }
}

}  // namespace
}  // namespace exec
}  // namespace asqp
