#include <gtest/gtest.h>

#include "metric/diversity.h"
#include "metric/relative_error.h"
#include "metric/score.h"
#include "metric/workload.h"
#include "sql/parser.h"
#include "tests/testing.h"

namespace asqp {
namespace metric {
namespace {

TEST(WorkloadTest, FromSqlAndNormalize) {
  ASSERT_OK_AND_ASSIGN(
      Workload w, Workload::FromSql({"SELECT * FROM movies",
                                     "SELECT * FROM roles WHERE salary > 10"}));
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w.query(0).weight, 0.5);
  EXPECT_DOUBLE_EQ(w.query(1).weight, 0.5);
}

TEST(WorkloadTest, FromSqlPropagatesParseErrors) {
  EXPECT_FALSE(Workload::FromSql({"SELECT FROM"}).ok());
}

TEST(WorkloadTest, NormalizeHandlesZeroWeights) {
  Workload w;
  ASSERT_OK_AND_ASSIGN(auto stmt, sql::Parse("SELECT * FROM t"));
  w.Add(stmt.Clone(), 0.0);
  w.Add(stmt.Clone(), 0.0);
  w.NormalizeWeights();
  EXPECT_DOUBLE_EQ(w.query(0).weight, 0.5);
}

TEST(WorkloadTest, TrainTestSplitPartitions) {
  Workload w;
  ASSERT_OK_AND_ASSIGN(auto stmt, sql::Parse("SELECT * FROM t"));
  for (int i = 0; i < 10; ++i) w.Add(stmt.Clone());
  w.NormalizeWeights();
  util::Rng rng(5);
  auto [train, test] = w.TrainTestSplit(0.7, &rng);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
  double train_sum = 0.0;
  for (const auto& q : train.queries()) train_sum += q.weight;
  EXPECT_NEAR(train_sum, 1.0, 1e-9);
}

TEST(WorkloadTest, TruncateRenormalizes) {
  Workload w;
  ASSERT_OK_AND_ASSIGN(auto stmt, sql::Parse("SELECT * FROM t"));
  for (int i = 0; i < 4; ++i) w.Add(stmt.Clone());
  w.NormalizeWeights();
  Workload t = w.Truncate(2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.query(0).weight, 0.5);
  EXPECT_EQ(w.Truncate(100).size(), 4u);
}

TEST(StripAggregatesTest, AggToSpj) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      sql::Parse("SELECT year, COUNT(*), AVG(rating) FROM movies "
                 "WHERE rating > 5 GROUP BY year"));
  sql::SelectStatement spj = StripAggregates(stmt);
  EXPECT_FALSE(spj.HasAggregates());
  EXPECT_TRUE(spj.group_by.empty());
  // year (select), rating (from AVG), year (from GROUP BY) stay observable.
  EXPECT_EQ(spj.items.size(), 3u);
  ASSERT_NE(spj.where, nullptr);  // WHERE survives
}

TEST(StripAggregatesTest, HavingDroppedWithAggregates) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      sql::Parse("SELECT actor, COUNT(*) AS c FROM roles GROUP BY actor "
                 "HAVING c > 2 ORDER BY c DESC"));
  sql::SelectStatement spj = StripAggregates(stmt);
  EXPECT_EQ(spj.having, nullptr);
  EXPECT_TRUE(spj.order_by.empty());
  EXPECT_FALSE(spj.HasAggregates());
}

TEST(StripAggregatesTest, CountDistinctKeepsBareColumn) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       sql::Parse("SELECT COUNT(DISTINCT actor) FROM roles"));
  sql::SelectStatement spj = StripAggregates(stmt);
  ASSERT_EQ(spj.items.size(), 1u);
  EXPECT_EQ(spj.items[0].agg, sql::AggFunc::kNone);
  ASSERT_NE(spj.items[0].expr, nullptr);
  EXPECT_EQ(spj.items[0].expr->column, "actor");
}

TEST(StripAggregatesTest, CountStarOnlyBecomesStar) {
  ASSERT_OK_AND_ASSIGN(auto stmt, sql::Parse("SELECT COUNT(*) FROM movies"));
  sql::SelectStatement spj = StripAggregates(stmt);
  ASSERT_EQ(spj.items.size(), 1u);
  EXPECT_TRUE(spj.items[0].star);
}

TEST(StripAggregatesTest, SpjUnchanged) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       sql::Parse("SELECT a FROM t WHERE a > 1 LIMIT 3"));
  sql::SelectStatement out = StripAggregates(stmt);
  EXPECT_EQ(out.ToSql(), stmt.ToSql());
}

class ScoreTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = testing::MakeTinyMovieDb(); }
  std::shared_ptr<storage::Database> db_;
};

TEST_F(ScoreTest, FullSubsetScoresOne) {
  storage::ApproximationSet all;
  for (const auto& name : db_->TableNames()) {
    ASSERT_OK_AND_ASSIGN(auto t, db_->GetTable(name));
    for (uint32_t r = 0; r < t->num_rows(); ++r) all.Add(name, r);
  }
  all.Seal();
  ASSERT_OK_AND_ASSIGN(
      Workload w,
      Workload::FromSql(
          {"SELECT * FROM movies WHERE year >= 2010",
           "SELECT m.title, r.actor FROM movies m, roles r WHERE m.id = "
           "r.movie_id"}));
  ScoreEvaluator eval(db_.get(), ScoreOptions{.frame_size = 50});
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, all));
  EXPECT_DOUBLE_EQ(score, 1.0);
}

TEST_F(ScoreTest, EmptySubsetScoresZero) {
  storage::ApproximationSet empty;
  empty.Seal();
  ASSERT_OK_AND_ASSIGN(Workload w, Workload::FromSql({"SELECT * FROM movies"}));
  ScoreEvaluator eval(db_.get());
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, empty));
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST_F(ScoreTest, PartialCoverage) {
  // Subset holds 2 of 8 movies; query returns all movies; F large.
  storage::ApproximationSet subset;
  subset.Add("movies", 0);
  subset.Add("movies", 1);
  subset.Seal();
  ASSERT_OK_AND_ASSIGN(Workload w, Workload::FromSql({"SELECT * FROM movies"}));
  ScoreEvaluator eval(db_.get(), ScoreOptions{.frame_size = 50});
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, subset));
  EXPECT_NEAR(score, 2.0 / 8.0, 1e-9);
}

TEST_F(ScoreTest, FrameSizeCapsTheDenominator) {
  // F=2: two covered tuples already saturate the query's score.
  storage::ApproximationSet subset;
  subset.Add("movies", 0);
  subset.Add("movies", 1);
  subset.Seal();
  ASSERT_OK_AND_ASSIGN(Workload w, Workload::FromSql({"SELECT * FROM movies"}));
  ScoreEvaluator eval(db_.get(), ScoreOptions{.frame_size = 2});
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, subset));
  EXPECT_DOUBLE_EQ(score, 1.0);
}

TEST_F(ScoreTest, EmptyFullResultCountsAsCovered) {
  storage::ApproximationSet empty;
  empty.Seal();
  ASSERT_OK_AND_ASSIGN(
      Workload w, Workload::FromSql({"SELECT * FROM movies WHERE year = 1800"}));
  ScoreEvaluator eval(db_.get());
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, empty));
  EXPECT_DOUBLE_EQ(score, 1.0);
}

TEST_F(ScoreTest, WeightsSteerTheScore) {
  storage::ApproximationSet subset;
  subset.Add("movies", 2);  // gamma, year 2010
  subset.Seal();
  Workload w;
  ASSERT_OK_AND_ASSIGN(auto covered,
                       sql::Parse("SELECT * FROM movies WHERE id = 3"));
  ASSERT_OK_AND_ASSIGN(auto uncovered,
                       sql::Parse("SELECT * FROM movies WHERE id = 5"));
  w.Add(std::move(covered), 0.9);
  w.Add(std::move(uncovered), 0.1);
  w.NormalizeWeights();
  ScoreEvaluator eval(db_.get());
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, subset));
  EXPECT_NEAR(score, 0.9, 1e-9);
}

TEST_F(ScoreTest, JoinQueryNeedsBothSides) {
  // Subset holds movie 1 but not its roles: the join yields nothing.
  storage::ApproximationSet subset;
  subset.Add("movies", 0);
  subset.Seal();
  ASSERT_OK_AND_ASSIGN(
      Workload w,
      Workload::FromSql({"SELECT m.title, r.actor FROM movies m, roles r "
                         "WHERE m.id = r.movie_id AND m.id = 1"}));
  ScoreEvaluator eval(db_.get());
  ASSERT_OK_AND_ASSIGN(double score, eval.Score(w, subset));
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(DiversityTest, IdenticalRowsZeroDistance) {
  const exec::ResultSet rs(
      {"a", "b"}, {{storage::Value(int64_t{1}), storage::Value(int64_t{2})},
                   {storage::Value(int64_t{1}), storage::Value(int64_t{2})}});
  EXPECT_DOUBLE_EQ(ResultDiversity(rs), 0.0);
}

TEST(DiversityTest, DisjointRowsFullDistance) {
  const exec::ResultSet rs({"a"}, {{storage::Value(std::string("x"))},
                                   {storage::Value(std::string("y"))}});
  EXPECT_DOUBLE_EQ(ResultDiversity(rs), 1.0);
}

TEST(DiversityTest, SingleRowIsZero) {
  const exec::ResultSet rs({"a"}, {{storage::Value(int64_t{1})}});
  EXPECT_DOUBLE_EQ(ResultDiversity(rs), 0.0);
}

TEST(DiversityTest, JaccardDistanceBasics) {
  EXPECT_DOUBLE_EQ(JaccardDistance({"a", "b"}, {"a", "b"}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({"a"}, {"b"}), 1.0);
  EXPECT_NEAR(JaccardDistance({"a", "b"}, {"b", "c"}), 1.0 - 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(JaccardDistance({}, {}), 0.0);
}

TEST(RelativeErrorTest, ScalarCases) {
  EXPECT_DOUBLE_EQ(ScalarRelativeError(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(ScalarRelativeError(100.0, 90.0), 0.1);
  EXPECT_DOUBLE_EQ(ScalarRelativeError(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ScalarRelativeError(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(ScalarRelativeError(10.0, 1000.0), 1.0);  // capped
}

TEST(RelativeErrorTest, GroupedComparison) {
  const exec::ResultSet truth(
      {"g", "sum"},
      {{storage::Value(std::string("a")), storage::Value(100.0)},
       {storage::Value(std::string("b")), storage::Value(50.0)}});

  const exec::ResultSet pred(
      {"g", "sum"}, {{storage::Value(std::string("a")), storage::Value(90.0)}});
  // Group "b" missing -> contributes 1.
  ASSERT_OK_AND_ASSIGN(double err, RelativeError(truth, pred, 1));
  EXPECT_NEAR(err, (0.1 + 1.0) / 2.0, 1e-9);
}

TEST(RelativeErrorTest, UngroupedScalar) {
  const exec::ResultSet truth({"cnt"}, {{storage::Value(int64_t{200})}});
  const exec::ResultSet pred({"cnt"}, {{storage::Value(int64_t{150})}});
  ASSERT_OK_AND_ASSIGN(double err, RelativeError(truth, pred, 0));
  EXPECT_NEAR(err, 0.25, 1e-9);
}

TEST(RelativeErrorTest, ColumnMismatchRejected) {
  exec::ResultSet truth({"a", "b"});
  exec::ResultSet pred({"a"});
  EXPECT_FALSE(RelativeError(truth, pred, 0).ok());
}

}  // namespace
}  // namespace metric
}  // namespace asqp
