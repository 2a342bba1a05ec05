#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "embed/vector_ops.h"
#include "sql/parser.h"
#include "tests/testing.h"
#include "util/string_util.h"

namespace asqp {
namespace embed {
namespace {

TEST(VectorOpsTest, DotNormCosine) {
  Vector a = {1.0f, 0.0f};
  Vector b = {0.0f, 2.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 0.0f);
  EXPECT_FLOAT_EQ(Norm(b), 2.0f);
  EXPECT_FLOAT_EQ(Cosine(a, b), 0.0f);
  EXPECT_FLOAT_EQ(Cosine(a, a), 1.0f);
  Vector zero = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(Cosine(a, zero), 0.0f);
}

TEST(VectorOpsTest, L2AndNormalize) {
  Vector a = {3.0f, 4.0f};
  Vector b = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(L2Distance(a, b), 5.0f);
  NormalizeInPlace(&a);
  EXPECT_NEAR(Norm(a), 1.0f, 1e-6);
  NormalizeInPlace(&b);  // zero vector: no-op, no NaN
  EXPECT_FLOAT_EQ(b[0], 0.0f);
}

TEST(FeatureHasherTest, DeterministicAndSpread) {
  FeatureHasher h(32);
  Vector a(32, 0.0f), b(32, 0.0f);
  h.Accumulate("token_x", 1.0f, &a);
  h.Accumulate("token_x", 1.0f, &b);
  EXPECT_EQ(a, b);
  Vector c(32, 0.0f);
  h.Accumulate("token_y", 1.0f, &c);
  EXPECT_NE(a, c);
}

TEST(FeatureHasherTest, SignIsTheHashOfTheSaltedToken) {
  // The bucket is Fnv1a(token) and the sign the low bit of
  // Fnv1a(token + "#sign"), which Accumulate computes without building that
  // string. Over empty, long and non-ASCII tokens the embedding keeps that
  // formula's bits.
  std::vector<std::string> corpus = {
      "",
      "a",
      "#sign",
      "col|title.name",
      std::string(1000, 'x') + "|tail",
      "val|\x80\xff|s:\xc3\xa9t\xc3\xa9",
      std::string("nul\0byte", 8)};
  for (size_t i = 0; i < 200; ++i) {
    corpus.push_back("op|>=|" + std::to_string(i * 7919));
  }
  constexpr size_t kDim = 64;
  FeatureHasher hasher(kDim);
  Vector got(kDim, 0.0f);
  Vector want(kDim, 0.0f);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string& token = corpus[i];
    EXPECT_EQ(util::Fnv1a("#sign", util::Fnv1a(token)),
              util::Fnv1a(token + "#sign"))
        << "token " << i;
    const float weight = 0.25f * static_cast<float>(i % 7 + 1);
    hasher.Accumulate(token, weight, &got);
    const float sign = (util::Fnv1a(token + "#sign") & 1) ? 1.0f : -1.0f;
    want[util::Fnv1a(token) % kDim] += sign * weight;
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), kDim * sizeof(float)), 0);
}

sql::SelectStatement MustParse(const std::string& s) {
  auto r = sql::Parse(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(QueryEmbedderTest, IdenticalQueriesIdenticalVectors) {
  QueryEmbedder e(64);
  const auto q = MustParse("SELECT a FROM t WHERE x > 5");
  EXPECT_EQ(e.Embed(q), e.Embed(q));
}

TEST(QueryEmbedderTest, SimilarQueriesCloserThanDissimilar) {
  QueryEmbedder e(64);
  const auto base = MustParse("SELECT title FROM movies WHERE year > 2000");
  const auto near = MustParse("SELECT title FROM movies WHERE year > 2003");
  const auto far = MustParse("SELECT actor FROM roles WHERE salary < 10");
  const float sim_near = Cosine(e.Embed(base), e.Embed(near));
  const float sim_far = Cosine(e.Embed(base), e.Embed(far));
  EXPECT_GT(sim_near, sim_far);
  EXPECT_GT(sim_near, 0.8f);
}

TEST(QueryEmbedderTest, UnitNorm) {
  QueryEmbedder e(64);
  const auto q = MustParse(
      "SELECT a, COUNT(*) FROM t WHERE b IN (1,2,3) AND c BETWEEN 2 AND 9 "
      "GROUP BY a");
  EXPECT_NEAR(Norm(e.Embed(q)), 1.0f, 1e-5);
}

TEST(QueryEmbedderTest, OperatorDirectionMatters) {
  QueryEmbedder e(64);
  const auto gt = MustParse("SELECT a FROM t WHERE x > 5");
  const auto lt = MustParse("SELECT a FROM t WHERE x < 5");
  EXPECT_LT(Cosine(e.Embed(gt), e.Embed(lt)), 0.999f);
}

TEST(TupleEmbedderTest, RowSimilarityTracksValueOverlap) {
  auto db = testing::MakeTinyMovieDb();
  auto movies = db->GetTable("movies").value();
  TupleEmbedder e(64);
  // Rows 2 and 3 share year=2010; rows 2 and 7 share nothing notable.
  const Vector v2 = e.EmbedRow(*movies, 2);
  const Vector v3 = e.EmbedRow(*movies, 3);
  const Vector v7 = e.EmbedRow(*movies, 7);
  EXPECT_GT(Cosine(v2, v3), Cosine(v2, v7));
  EXPECT_NEAR(Norm(v2), 1.0f, 1e-5);
}

TEST(TupleEmbedderTest, JoinedTupleBlendsTables) {
  auto db = testing::MakeTinyMovieDb();
  auto movies = db->GetTable("movies").value();
  auto roles = db->GetTable("roles").value();
  TupleEmbedder e(64);
  const Vector joined =
      e.EmbedJoined({movies.get(), roles.get()}, {0, 0});
  const Vector movie_only = e.EmbedRow(*movies, 0);
  EXPECT_NEAR(Norm(joined), 1.0f, 1e-5);
  EXPECT_GT(Cosine(joined, movie_only), 0.3f);
  EXPECT_LT(Cosine(joined, movie_only), 0.999f);
}

}  // namespace
}  // namespace embed
}  // namespace asqp
