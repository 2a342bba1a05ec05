#include <gtest/gtest.h>

#include <set>

#include "exec/evaluator.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "tests/testing.h"

namespace asqp {
namespace exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTinyMovieDb();
    view_ = std::make_unique<storage::DatabaseView>(db_.get());
  }

  ResultSet Run(const std::string& sql) {
    auto result = engine_.ExecuteSql(sql, *view_);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for " << sql;
    return result.ok() ? std::move(result).value() : ResultSet();
  }

  std::shared_ptr<storage::Database> db_;
  std::unique_ptr<storage::DatabaseView> view_;
  QueryEngine engine_;
};

TEST_F(ExecTest, FullScan) {
  auto rs = Run("SELECT * FROM movies");
  EXPECT_EQ(rs.num_rows(), 8u);
  EXPECT_EQ(rs.num_columns(), 4u);
  EXPECT_EQ(rs.column_names()[1], "movies.title");
}

TEST_F(ExecTest, FilterComparisons) {
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year = 2010").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year <> 2010").num_rows(), 6u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year > 2015").num_rows(), 3u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year >= 2015").num_rows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE rating < 6").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE rating <= 6.1").num_rows(), 3u);
}

TEST_F(ExecTest, BooleanCombinators) {
  EXPECT_EQ(
      Run("SELECT * FROM movies WHERE year = 2010 AND rating > 6").num_rows(),
      1u);
  EXPECT_EQ(
      Run("SELECT * FROM movies WHERE year = 1999 OR year = 2021").num_rows(),
      2u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE NOT year = 2010").num_rows(), 6u);
}

TEST_F(ExecTest, InBetweenLike) {
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year IN (1999, 2021)").num_rows(),
            2u);
  EXPECT_EQ(
      Run("SELECT * FROM movies WHERE year NOT IN (1999, 2021)").num_rows(),
      6u);
  EXPECT_EQ(
      Run("SELECT * FROM movies WHERE rating BETWEEN 6 AND 8").num_rows(),
      4u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE title LIKE 'e%'").num_rows(), 2u);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE title LIKE '%eta'").num_rows(),
            4u);  // beta, zeta, eta, theta
  EXPECT_EQ(Run("SELECT * FROM movies WHERE title LIKE '_eta'").num_rows(),
            2u);  // beta, zeta
}

TEST_F(ExecTest, Projection) {
  auto rs = Run("SELECT title, year FROM movies WHERE id = 3");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.row(0)[0].AsString(), "gamma");
  EXPECT_EQ(rs.row(0)[1].AsInt64(), 2010);
}

TEST_F(ExecTest, ArithmeticInProjectionAndFilter) {
  auto rs = Run("SELECT rating * 2 FROM movies WHERE id = 1");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.row(0)[0].AsDouble(), 15.0);
  EXPECT_EQ(Run("SELECT * FROM movies WHERE year - 2000 > 15").num_rows(), 3u);
}

TEST_F(ExecTest, HashJoin) {
  auto rs = Run(
      "SELECT m.title, r.actor FROM movies m, roles r "
      "WHERE m.id = r.movie_id");
  EXPECT_EQ(rs.num_rows(), 10u);
}

TEST_F(ExecTest, JoinWithFilters) {
  auto rs = Run(
      "SELECT m.title, r.actor FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND m.year >= 2010 AND r.salary > 12");
  // movies with year>=2010: gamma(3) delta(4) epsilon(5) zeta(6) eta(7)
  // theta(8); roles with salary>12: cat@3(20), dan@5(30), cat@5(25),
  // ann@7(14), bob@8(13).
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(ExecTest, JoinOnSyntax) {
  auto rs = Run(
      "SELECT m.title FROM movies m JOIN roles r ON m.id = r.movie_id "
      "WHERE r.actor = 'ann'");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(ExecTest, ResidualCrossTablePredicate) {
  auto rs = Run(
      "SELECT m.title, r.salary FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND r.salary > m.rating");
  // Every joined pair in the tiny dataset has salary > rating.
  std::set<std::string> titles;
  for (size_t i = 0; i < rs.num_rows(); ++i) titles.insert(rs.row(i)[0].AsString());
  EXPECT_EQ(rs.num_rows(), 10u);
  EXPECT_TRUE(titles.count("alpha"));
}

TEST_F(ExecTest, DistinctAndOrderByLimit) {
  auto rs = Run("SELECT DISTINCT actor FROM roles ORDER BY actor");
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.row(0)[0].AsString(), "ann");
  EXPECT_EQ(rs.row(4)[0].AsString(), "eve");

  auto top = Run("SELECT title FROM movies ORDER BY rating DESC LIMIT 3");
  ASSERT_EQ(top.num_rows(), 3u);
  EXPECT_EQ(top.row(0)[0].AsString(), "epsilon");
  EXPECT_EQ(top.row(1)[0].AsString(), "gamma");
  EXPECT_EQ(top.row(2)[0].AsString(), "eta");
}

TEST_F(ExecTest, LimitWithoutOrder) {
  EXPECT_EQ(Run("SELECT * FROM movies LIMIT 4").num_rows(), 4u);
  EXPECT_EQ(Run("SELECT * FROM movies LIMIT 0").num_rows(), 0u);
}

TEST_F(ExecTest, AggregatesNoGroup) {
  auto rs = Run("SELECT COUNT(*), SUM(rating), AVG(rating), MIN(year), "
                "MAX(year) FROM movies");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.row(0)[0].AsInt64(), 8);
  EXPECT_NEAR(rs.row(0)[1].AsDouble(), 55.0, 1e-9);
  EXPECT_NEAR(rs.row(0)[2].AsDouble(), 55.0 / 8, 1e-9);
  EXPECT_EQ(rs.row(0)[3].AsInt64(), 1999);
  EXPECT_EQ(rs.row(0)[4].AsInt64(), 2021);
}

TEST_F(ExecTest, AggregateOverEmptyInput) {
  auto rs = Run("SELECT COUNT(*), SUM(rating) FROM movies WHERE year = 1900");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.row(0)[0].AsInt64(), 0);
  EXPECT_TRUE(rs.row(0)[1].is_null());
}

TEST_F(ExecTest, GroupBy) {
  auto rs = Run("SELECT year, COUNT(*) FROM movies GROUP BY year");
  EXPECT_EQ(rs.num_rows(), 7u);  // 2010 appears twice
  int64_t total = 0;
  for (size_t i = 0; i < rs.num_rows(); ++i) total += rs.row(i)[1].AsInt64();
  EXPECT_EQ(total, 8);
}

TEST_F(ExecTest, GroupByOverJoin) {
  auto rs = Run(
      "SELECT r.actor, COUNT(*), AVG(r.salary) FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND m.year >= 2010 GROUP BY r.actor");
  // Joined rows with year>=2010: cat@3, bob@3, dan@5, cat@5, ann@7, eve@8,
  // bob@8 -> actors: cat(2), bob(2), dan(1), ann(1), eve(1).
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(ExecTest, CountDistinct) {
  auto rs = Run("SELECT COUNT(DISTINCT actor) FROM roles");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.row(0)[0].AsInt64(), 5);

  auto grouped = Run(
      "SELECT m.year, COUNT(DISTINCT r.actor) AS actors FROM movies m, "
      "roles r WHERE m.id = r.movie_id GROUP BY m.year ORDER BY actors "
      "DESC LIMIT 1");
  ASSERT_EQ(grouped.num_rows(), 1u);
  // 2021 (theta) has eve+bob = 2 distinct actors; others <= 2 as well, but
  // ordering is stable so any year with 2 wins; check the count.
  EXPECT_EQ(grouped.row(0)[1].AsInt64(), 2);
}

TEST_F(ExecTest, SumDistinctSkipsDuplicates) {
  // Two movies in 2010; their ratings are distinct, so SUM(DISTINCT year)
  // counts 2010 once.
  auto rs = Run("SELECT SUM(DISTINCT year) FROM movies WHERE year = 2010");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.row(0)[0].AsDouble(), 2010.0);
}

TEST_F(ExecTest, HavingFiltersGroups) {
  auto rs = Run(
      "SELECT year, COUNT(*) AS c FROM movies GROUP BY year HAVING c > 1");
  ASSERT_EQ(rs.num_rows(), 1u);  // only 2010 has two movies
  EXPECT_EQ(rs.row(0)[0].AsInt64(), 2010);
  EXPECT_EQ(rs.row(0)[1].AsInt64(), 2);
}

TEST_F(ExecTest, HavingOnAggregateNameWithoutAlias) {
  auto rs = Run("SELECT actor, COUNT(*) FROM roles GROUP BY actor "
                "HAVING count >= 3");
  EXPECT_EQ(rs.num_rows(), 2u);  // ann and bob appear 3x
}

TEST_F(ExecTest, OrderByOverAggregates) {
  auto rs = Run(
      "SELECT actor, AVG(salary) AS avg_s FROM roles GROUP BY actor "
      "ORDER BY avg_s DESC LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.row(0)[0].AsString(), "dan");  // 30.0
  EXPECT_EQ(rs.row(1)[0].AsString(), "cat");  // 22.5
}

TEST_F(ExecTest, HavingPlusOrderByPlusLimit) {
  auto rs = Run(
      "SELECT actor, COUNT(*) AS c, SUM(salary) AS total FROM roles "
      "GROUP BY actor HAVING c >= 2 ORDER BY total DESC LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  // Multi-role actors: ann(33), bob(36), cat(45).
  EXPECT_EQ(rs.row(0)[0].AsString(), "cat");
  EXPECT_EQ(rs.row(1)[0].AsString(), "bob");
}

TEST_F(ExecTest, HavingUnknownNameIsError) {
  storage::DatabaseView view(db_.get());
  auto result = engine_.ExecuteSql(
      "SELECT actor, COUNT(*) FROM roles GROUP BY actor HAVING nope > 1",
      view);
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecTest, ExecutionOverSubsetIsMonotoneSubset) {
  storage::ApproximationSet subset;
  subset.Add("movies", 0);  // alpha
  subset.Add("movies", 2);  // gamma
  subset.Add("roles", 0);   // ann@1
  subset.Add("roles", 3);   // cat@3
  subset.Add("roles", 5);   // dan@5 (movie absent from subset)
  subset.Seal();
  storage::DatabaseView sub_view(db_.get(), &subset);

  ASSERT_OK_AND_ASSIGN(
      auto bound,
      sql::ParseAndBind("SELECT m.title, r.actor FROM movies m, roles r "
                        "WHERE m.id = r.movie_id",
                        *db_));
  ASSERT_OK_AND_ASSIGN(auto full, engine_.Execute(bound, *view_));
  ASSERT_OK_AND_ASSIGN(auto approx, engine_.Execute(bound, sub_view));

  EXPECT_EQ(approx.num_rows(), 2u);  // (alpha,ann), (gamma,cat)
  // SPJ queries are monotone: every approximate row appears in the full
  // result.
  auto full_keys = full.RowKeySet();
  for (size_t i = 0; i < approx.num_rows(); ++i) {
    EXPECT_TRUE(full_keys.count(approx.RowKey(i)));
  }
}

TEST_F(ExecTest, CrossProductGuard) {
  QueryEngine tiny_engine(ExecOptions{.max_intermediate_rows = 10});
  auto result = tiny_engine.ExecuteSql(
      "SELECT * FROM movies m, roles r WHERE m.rating > r.salary", *view_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kExecutionError);
}

TEST_F(ExecTest, SelfJoinViaAliases) {
  auto rs = Run(
      "SELECT a.title, b.title FROM movies a, movies b "
      "WHERE a.year = b.year AND a.id < b.id");
  ASSERT_EQ(rs.num_rows(), 1u);  // the two 2010 movies
  EXPECT_EQ(rs.row(0)[0].AsString(), "gamma");
  EXPECT_EQ(rs.row(0)[1].AsString(), "delta");
}

TEST_F(ExecTest, ResultSetCopySharesItsSourcesRows) {
  const ResultSet source = Run("SELECT title, year FROM movies");
  ASSERT_GT(source.num_rows(), 0u);
  const ResultSet copy = source;
  EXPECT_EQ(&copy.rows(), &source.rows());
  ResultSet assigned;
  assigned = copy;
  EXPECT_EQ(&assigned.rows(), &source.rows());
  EXPECT_EQ(assigned.column_names(), source.column_names());
}

TEST_F(ExecTest, ResultSetCopyOutlivesItsSource) {
  std::vector<std::string> want;
  ResultSet copy;
  {
    const ResultSet source = Run("SELECT title FROM movies ORDER BY title");
    for (size_t i = 0; i < source.num_rows(); ++i) {
      want.push_back(source.RowKey(i));
    }
    copy = source;
  }
  ASSERT_EQ(want.size(), 8u);
  ASSERT_EQ(copy.num_rows(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(copy.RowKey(i), want[i]);
  EXPECT_EQ(copy.column_names(), std::vector<std::string>{"title"});
}

TEST_F(ExecTest, ResultRowsHoldNoSpareSlots) {
  // Copies and cache entries keep the rows block alive whole, so every
  // builder sizes it and each row exactly, however many rows it dropped.
  for (const char* sql : {
           "SELECT m.title, r.actor FROM movies m, roles r "
           "WHERE m.id = r.movie_id ORDER BY m.title LIMIT 1",
           "SELECT id, title, year FROM movies WHERE year >= 2010",
           "SELECT * FROM movies m, roles r WHERE m.id = r.movie_id",
           "SELECT DISTINCT actor FROM roles",
           "SELECT year, COUNT(*) AS c FROM movies GROUP BY year "
           "ORDER BY c DESC LIMIT 1",
           "SELECT year, COUNT(*) AS c, MAX(rating) FROM movies GROUP BY year "
           "HAVING c >= 1 LIMIT 2",
       }) {
    SCOPED_TRACE(sql);
    const ResultSet rs = Run(sql);
    ASSERT_GT(rs.num_rows(), 0u);
    EXPECT_EQ(rs.rows().capacity(), rs.num_rows());
    for (const ResultSet::Row& row : rs.rows()) {
      EXPECT_EQ(row.capacity(), row.size());
    }
  }
}

TEST(ResultSetTest, RowsBlockHoldsNoSpareRowSlots) {
  ResultSet::Rows rows;
  rows.reserve(64);
  rows.push_back({storage::Value(int64_t{1})});
  const ResultSet rs({"a"}, std::move(rows));
  EXPECT_EQ(rs.rows().capacity(), 1u);
}

TEST(ResultSetTest, DefaultMovedFromAndRowlessResultsReadAsEmpty) {
  const ResultSet none;
  EXPECT_EQ(none.num_columns(), 0u);
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_TRUE(none.rows().empty());
  EXPECT_TRUE(none.RowKeySet().empty());

  ResultSet source({"a"}, {{storage::Value(int64_t{1})}});
  const ResultSet moved = std::move(source);
  ASSERT_EQ(moved.num_rows(), 1u);
  EXPECT_EQ(moved.row(0)[0].AsInt64(), 1);
  // A moved-from result is empty, not unspecified.
  EXPECT_EQ(source.num_columns(), 0u);
  EXPECT_EQ(source.num_rows(), 0u);
  EXPECT_TRUE(source.rows().empty());

  // A result without rows allocates no rows block: every one reads the
  // same shared empty rows.
  const ResultSet rowless({"a"});
  EXPECT_EQ(rowless.num_columns(), 1u);
  EXPECT_EQ(&rowless.rows(), &none.rows());
  EXPECT_EQ(&source.rows(), &none.rows());
}

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_FALSE(LikeMatch("hello", "x%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%c"));
}

TEST(EvaluatorTest, NullSemantics) {
  storage::Database db;
  auto t = std::make_shared<storage::Table>(
      "t", storage::Schema({{"x", storage::ValueType::kInt64}}));
  ASSERT_OK(t->AppendRow({storage::Value(int64_t{1})}));
  ASSERT_OK(t->AppendRow({storage::Value()}));
  ASSERT_OK(db.AddTable(t));
  storage::DatabaseView view(&db);
  QueryEngine engine;
  // NULL never matches comparisons (WHERE treats unknown as false)...
  ASSERT_OK_AND_ASSIGN(auto rs, engine.ExecuteSql(
      "SELECT * FROM t WHERE x = 1 OR x <> 1", view));
  EXPECT_EQ(rs.num_rows(), 1u);
  // ...but IS NULL finds it.
  ASSERT_OK_AND_ASSIGN(auto rs2,
                       engine.ExecuteSql("SELECT * FROM t WHERE x IS NULL", view));
  EXPECT_EQ(rs2.num_rows(), 1u);
  ASSERT_OK_AND_ASSIGN(auto rs3, engine.ExecuteSql(
      "SELECT * FROM t WHERE x IS NOT NULL", view));
  EXPECT_EQ(rs3.num_rows(), 1u);
}

}  // namespace
}  // namespace exec
}  // namespace asqp
