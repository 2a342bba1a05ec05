#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/testing.h"
#include "util/random.h"

namespace asqp {
namespace sql {
namespace {

TEST(LexerTest, KeywordsIdentifiersNumbersStrings) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("SELECT Foo, 12, 3.5, 'it''s' FROM bar"));
  ASSERT_EQ(tokens.size(), 11u);  // incl. end token
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].Normalized(), "foo");  // identifiers lower-cased
  EXPECT_EQ(tokens[3].type, TokenType::kInteger);
  EXPECT_EQ(tokens[3].int_value, 12);
  EXPECT_EQ(tokens[5].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(tokens[5].float_value, 3.5);
  EXPECT_EQ(tokens[7].type, TokenType::kString);
  EXPECT_EQ(tokens[7].Normalized(), "it's");
}

TEST(LexerTest, TokensViewTheInputAndKeywordsAreIds) {
  const std::string input = "select Foo, 'it''s', 'ab' FROM bar";
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize(input));
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].keyword, Keyword::kSelect);
  EXPECT_EQ(tokens[0].text, "SELECT");  // the table's spelling
  // Identifiers and string literals are views of the input, as written.
  EXPECT_EQ(tokens[1].text, "Foo");
  EXPECT_EQ(tokens[1].text.data(), input.data() + 7);
  EXPECT_EQ(tokens[3].text, "it''s");
  EXPECT_TRUE(tokens[3].escaped);
  EXPECT_EQ(tokens[3].text.data(), input.data() + 13);
  EXPECT_EQ(tokens[5].text, "ab");
  EXPECT_FALSE(tokens[5].escaped);
  EXPECT_EQ(StringLiteralValue(tokens[5]), "ab");
  EXPECT_EQ(tokens[4].symbol, ',');
  EXPECT_EQ(tokens[6].keyword, Keyword::kFrom);
  EXPECT_EQ(tokens[7].Normalized(), "bar");
  EXPECT_EQ(tokens[8].type, TokenType::kEnd);
  EXPECT_EQ(tokens[8].position, input.size());
}

TEST(LexerTest, TwoCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("a <= b >= c <> d != e"));
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[3].text, ">=");
  EXPECT_EQ(tokens[5].text, "<>");
  EXPECT_EQ(tokens[7].text, "<>");  // != normalized
  EXPECT_EQ(tokens[5].symbol, kSymNe);
  EXPECT_EQ(tokens[7].symbol, kSymNe);
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

TEST(ParserTest, MinimalSelect) {
  ASSERT_OK_AND_ASSIGN(auto stmt, Parse("SELECT * FROM movies"));
  EXPECT_EQ(stmt.items.size(), 1u);
  EXPECT_TRUE(stmt.items[0].star);
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].table, "movies");
  EXPECT_EQ(stmt.limit, -1);
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(ParserTest, FullClauseSet) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      Parse("SELECT DISTINCT m.title, r.actor FROM movies m, roles r "
            "WHERE m.id = r.movie_id AND m.year >= 2010 "
            "ORDER BY m.title DESC LIMIT 5"));
  EXPECT_TRUE(stmt.distinct);
  EXPECT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].alias, "m");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].desc);
  EXPECT_EQ(stmt.limit, 5);
}

TEST(ParserTest, JoinOnNormalizedToWhere) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      Parse("SELECT * FROM movies m JOIN roles r ON m.id = r.movie_id "
            "WHERE r.salary > 10"));
  EXPECT_EQ(stmt.from.size(), 2u);
  ASSERT_NE(stmt.where, nullptr);
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(stmt.where, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      Parse("SELECT title FROM movies WHERE year IN (1999, 2004) "
            "AND rating BETWEEN 5.0 AND 9.0 AND title LIKE 'a%' "
            "AND title IS NOT NULL AND year NOT IN (2020)"));
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(stmt.where, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 5u);
  EXPECT_EQ(conjuncts[0]->kind, ExprKind::kIn);
  EXPECT_EQ(conjuncts[1]->kind, ExprKind::kBetween);
  EXPECT_EQ(conjuncts[2]->kind, ExprKind::kLike);
  EXPECT_EQ(conjuncts[3]->kind, ExprKind::kIsNull);
  EXPECT_TRUE(conjuncts[3]->negated);
  EXPECT_TRUE(conjuncts[4]->negated);
}

TEST(ParserTest, Aggregates) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      Parse("SELECT year, COUNT(*), AVG(rating) AS avg_r FROM movies "
            "GROUP BY year"));
  EXPECT_TRUE(stmt.HasAggregates());
  EXPECT_EQ(stmt.items[1].agg, AggFunc::kCount);
  EXPECT_TRUE(stmt.items[1].star);
  EXPECT_EQ(stmt.items[2].agg, AggFunc::kAvg);
  EXPECT_EQ(stmt.items[2].alias, "avg_r");
  EXPECT_EQ(stmt.group_by.size(), 1u);
}

TEST(ParserTest, CountDistinct) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       Parse("SELECT COUNT(DISTINCT actor) FROM roles"));
  EXPECT_EQ(stmt.items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(stmt.items[0].distinct);
  EXPECT_FALSE(stmt.items[0].star);
  // Round trip.
  ASSERT_OK_AND_ASSIGN(auto stmt2, Parse(stmt.ToSql()));
  EXPECT_EQ(stmt2.ToSql(), stmt.ToSql());
  // DISTINCT * is invalid.
  EXPECT_FALSE(Parse("SELECT COUNT(DISTINCT *) FROM roles").ok());
}

TEST(ParserTest, NeverCrashesOnFuzzedInput) {
  // Robustness: mutated/truncated queries must return ParseError, never
  // crash or hang.
  util::Rng rng(77);
  const std::string seeds[] = {
      "SELECT a, COUNT(*) FROM t WHERE x IN (1,2) AND y BETWEEN 2 AND 3 "
      "GROUP BY a HAVING count > 1 ORDER BY a DESC LIMIT 5",
      "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z LIKE 'p%'",
  };
  const std::string charset = "()',.<>=*- ";
  for (const std::string& seed_sql : seeds) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutated = seed_sql;
      const size_t edits = 1 + rng.NextBounded(4);
      for (size_t e = 0; e < edits; ++e) {
        const size_t pos = rng.NextBounded(mutated.size());
        switch (rng.NextBounded(3)) {
          case 0:  // replace
            mutated[pos] = charset[rng.NextBounded(charset.size())];
            break;
          case 1:  // delete
            mutated.erase(pos, 1 + rng.NextBounded(3));
            break;
          default:  // truncate
            mutated.resize(pos);
            break;
        }
        if (mutated.empty()) break;
      }
      auto result = Parse(mutated);  // outcome irrelevant; must not crash
      (void)result;
    }
  }
}

TEST(ParserTest, HavingClause) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      Parse("SELECT year, COUNT(*) AS c FROM movies GROUP BY year "
            "HAVING c > 1 ORDER BY c DESC"));
  ASSERT_NE(stmt.having, nullptr);
  EXPECT_EQ(stmt.having->op, BinOp::kGt);
  // Round trip.
  ASSERT_OK_AND_ASSIGN(auto stmt2, Parse(stmt.ToSql()));
  EXPECT_EQ(stmt2.ToSql(), stmt.ToSql());
}

TEST(ParserTest, HavingWithoutAggregatesRejected) {
  EXPECT_FALSE(Parse("SELECT a FROM t HAVING a > 1").ok());
}

TEST(ParserTest, OrPrecedenceBelowAnd) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  // Must parse as a=1 OR (b=2 AND c=3).
  ASSERT_EQ(stmt.where->op, BinOp::kOr);
  EXPECT_EQ(stmt.where->right->op, BinOp::kAnd);
}

TEST(ParserTest, NegativeNumbersAndArithmetic) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       Parse("SELECT * FROM t WHERE x > -5 AND y + 2 < 10"));
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(stmt.where, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->right->literal.AsInt64(), -5);
  EXPECT_EQ(conjuncts[1]->left->op, BinOp::kAdd);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * WHERE x = 1").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t trailing garbage tokens =").ok());
}

TEST(ParserTest, ToSqlRoundTrips) {
  const char* kQueries[] = {
      "SELECT * FROM movies",
      "SELECT m.title FROM movies m WHERE m.year >= 2010 LIMIT 3",
      "SELECT title FROM movies WHERE year IN (1999, 2004) AND rating "
      "BETWEEN 5 AND 9",
      "SELECT year, COUNT(*) FROM movies GROUP BY year",
      "SELECT m.title, r.actor FROM movies m, roles r WHERE m.id = "
      "r.movie_id AND (m.year = 1999 OR m.year = 2010)",
  };
  for (const char* q : kQueries) {
    ASSERT_OK_AND_ASSIGN(auto stmt, Parse(q));
    const std::string sql1 = stmt.ToSql();
    ASSERT_OK_AND_ASSIGN(auto stmt2, Parse(sql1));
    EXPECT_EQ(stmt2.ToSql(), sql1) << "for query: " << q;
  }
}

TEST(AstTest, CloneIsDeep) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       Parse("SELECT a FROM t WHERE a > 1 AND b = 'x'"));
  SelectStatement copy = stmt.Clone();
  // Mutating the copy must not affect the original.
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(copy.where, &conjuncts);
  conjuncts[0]->right->literal = storage::Value(int64_t{99});
  std::vector<ExprPtr> orig;
  CollectConjuncts(stmt.where, &orig);
  EXPECT_EQ(orig[0]->right->literal.AsInt64(), 1);
}

TEST(AstTest, AndAllOfEmptyIsNull) {
  EXPECT_EQ(AndAll({}), nullptr);
}

TEST(BinderTest, ResolvesQualifiedAndUnqualified) {
  auto db = testing::MakeTinyMovieDb();
  ASSERT_OK_AND_ASSIGN(
      auto bound,
      ParseAndBind("SELECT title, r.salary FROM movies m, roles r "
                   "WHERE m.id = r.movie_id AND rating > 7",
                   *db));
  EXPECT_EQ(bound.num_tables(), 2u);
  // `title` and `rating` resolve to movies (table 0); salary to roles.
  EXPECT_EQ(bound.stmt.items[0].expr->table_idx, 0);
  EXPECT_EQ(bound.stmt.items[1].expr->table_idx, 1);
  ASSERT_EQ(bound.joins.size(), 1u);
  EXPECT_EQ(bound.filters[0].size(), 1u);  // rating > 7 pushed to movies
  EXPECT_TRUE(bound.filters[1].empty());
  EXPECT_TRUE(bound.residual.empty());
}

TEST(BinderTest, AmbiguousColumnIsError) {
  storage::Database db;
  auto t1 = std::make_shared<storage::Table>(
      "t1", storage::Schema({{"x", storage::ValueType::kInt64}}));
  auto t2 = std::make_shared<storage::Table>(
      "t2", storage::Schema({{"x", storage::ValueType::kInt64}}));
  ASSERT_OK(db.AddTable(t1));
  ASSERT_OK(db.AddTable(t2));
  const auto result = ParseAndBind("SELECT x FROM t1, t2", db);
  EXPECT_FALSE(result.ok());
}

TEST(BinderTest, UnknownColumnAndTableErrors) {
  auto db = testing::MakeTinyMovieDb();
  EXPECT_FALSE(ParseAndBind("SELECT nope FROM movies", *db).ok());
  EXPECT_FALSE(ParseAndBind("SELECT * FROM nope", *db).ok());
}

TEST(BinderTest, ResidualPredicateClassification) {
  auto db = testing::MakeTinyMovieDb();
  // Cross-table non-equi predicate lands in residual.
  ASSERT_OK_AND_ASSIGN(
      auto bound,
      ParseAndBind("SELECT * FROM movies m, roles r "
                   "WHERE m.id = r.movie_id AND m.rating > r.salary",
                   *db));
  EXPECT_EQ(bound.joins.size(), 1u);
  ASSERT_EQ(bound.residual.size(), 1u);
  EXPECT_EQ(bound.residual_tables[0].size(), 2u);
}

TEST(BinderTest, OrAcrossTablesIsResidual) {
  auto db = testing::MakeTinyMovieDb();
  ASSERT_OK_AND_ASSIGN(
      auto bound,
      ParseAndBind("SELECT * FROM movies m, roles r WHERE m.id = r.movie_id "
                   "AND (m.year = 1999 OR r.salary > 20)",
                   *db));
  EXPECT_EQ(bound.residual.size(), 1u);
}

}  // namespace
}  // namespace sql
}  // namespace asqp
