// Golden corpus for the SQL front end: "same trees, same cache keys, same
// error offsets" as a test. Over a fixed corpus it pins FNV-1a digests of
//   * Parse(sql)->ToSql()                 (the parsed tree),
//   * FingerprintQuery(bound).canonical   (the answer-cache key),
//   * CanonicalizeExpr of every bound conjunct, with the binder's
//     filter / join / residual classification (the planner's
//     redundant-conjunct key),
// and the exact error message of every entry in a fixed list of malformed
// inputs.
//
// The corpus: workloadgen::QueryGenerator queries with fixed seeds over
// IMDB, FLIGHTS and a Zipf-skewed schema, SPJ and aggregate; each query's
// alias-renamed, flipped, reordered and BETWEEN-as-pair spellings (the
// spellings the serving layer's cache must collapse) plus a case-scrambled
// spelling of its text; the Fig. 7 MAS templates for both interest areas;
// and a hand-written tour of the grammar.
//
// The digests and messages were recorded before the string_view lexer,
// bind-by-move and the one-buffer canonicalizer replaced the code they
// pin (GCC 12.2, x86-64, glibc; the generated constants come from the
// synthetic data, so another libm may generate a different corpus). A
// front-end change that moves one byte of a tree, a key or a message
// fails here.
//
// Over the same corpus, FrontendBindTest checks that binding in place
// (Bind(SelectStatement&&), the serving path) equals binding a copy, and
// that the answerability estimator reads a bound statement exactly as the
// written one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "data/dataset.h"
#include "embed/embedder.h"
#include "metric/workload.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "tests/testing.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloadgen/generator.h"
#include "workloadgen/stats.h"

namespace asqp {
namespace sql {
namespace {

using storage::Value;
using storage::ValueType;

/// FNV-1a over every added entry, each followed by a record separator, so
/// entry boundaries are part of the digest.
class Digest {
 public:
  void Add(std::string_view s) {
    for (const char c : s) Mix(static_cast<unsigned char>(c));
    Mix(0x1e);
    ++entries_;
  }
  uint64_t hash() const { return hash_; }
  size_t entries() const { return entries_; }

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  size_t entries_ = 0;
};

// ---------------------------------------------------------------------------
// Spellings. The four rewrites the revisit-hot workload serves (they keep
// the canonical fingerprint), and a case scramble of the text (it keeps
// the parsed tree).

void RenameQualifiers(const ExprPtr& e,
                      const std::map<std::string, std::string>& rename) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef) {
    auto it = rename.find(e->qualifier);
    if (it != rename.end()) e->qualifier = it->second;
  }
  RenameQualifiers(e->left, rename);
  RenameQualifiers(e->right, rename);
}

SelectStatement RenameAliases(const SelectStatement& base) {
  SelectStatement s = base.Clone();
  std::map<std::string, std::string> rename;
  for (size_t i = 0; i < s.from.size(); ++i) {
    const std::string alias = std::string("r") + std::to_string(i);
    rename[s.from[i].binding_name()] = alias;
    s.from[i].alias = alias;
  }
  for (auto& item : s.items) RenameQualifiers(item.expr, rename);
  RenameQualifiers(s.where, rename);
  for (auto& g : s.group_by) RenameQualifiers(g, rename);
  RenameQualifiers(s.having, rename);
  for (auto& o : s.order_by) RenameQualifiers(o.expr, rename);
  return s;
}

SelectStatement ReorderConjuncts(const SelectStatement& base) {
  SelectStatement s = base.Clone();
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(s.where, &conjuncts);
  std::reverse(conjuncts.begin(), conjuncts.end());
  s.where = AndAll(conjuncts);
  return s;
}

BinOp Mirror(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

void FlipComparisonsIn(const ExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && IsComparison(e->op)) {
    std::swap(e->left, e->right);
    e->op = Mirror(e->op);
    return;
  }
  if (e->kind == ExprKind::kBinary || e->kind == ExprKind::kNot) {
    FlipComparisonsIn(e->left);
    FlipComparisonsIn(e->right);
  }
}

SelectStatement FlipComparisons(const SelectStatement& base) {
  SelectStatement s = base.Clone();
  FlipComparisonsIn(s.where);
  return s;
}

ExprPtr BetweenToPairIn(const ExprPtr& e) {
  if (e == nullptr) return e;
  if (e->kind == ExprKind::kBetween && !e->negated) {
    return Expr::Binary(
        BinOp::kAnd,
        Expr::Binary(BinOp::kGe, e->left->Clone(),
                     Expr::Literal(e->between_lo)),
        Expr::Binary(BinOp::kLe, e->left->Clone(),
                     Expr::Literal(e->between_hi)));
  }
  if (e->kind == ExprKind::kBinary &&
      (e->op == BinOp::kAnd || e->op == BinOp::kOr)) {
    e->left = BetweenToPairIn(e->left);
    e->right = BetweenToPairIn(e->right);
  }
  return e;
}

SelectStatement BetweenToPair(const SelectStatement& base) {
  SelectStatement s = base.Clone();
  s.where = BetweenToPairIn(s.where);
  return s;
}

/// Alternate the case of every letter outside string literals, so keyword
/// recognition and identifier folding see mixed-case input.
std::string ScrambleCase(const std::string& sql) {
  std::string out = sql;
  bool in_string = false;
  size_t letters = 0;
  for (char& c : out) {
    if (c == '\'') in_string = !in_string;
    if (in_string || !std::isalpha(static_cast<unsigned char>(c))) continue;
    const unsigned char u = static_cast<unsigned char>(c);
    c = static_cast<char>(letters++ % 2 == 0 ? std::toupper(u)
                                             : std::tolower(u));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Corpus.

struct Corpus {
  std::string name;
  std::shared_ptr<storage::Database> db;
  std::vector<std::string> sqls;
};

void AddWithSpellings(const SelectStatement& base,
                      std::vector<std::string>* sqls) {
  const std::string text = base.ToSql();
  sqls->push_back(text);
  sqls->push_back(RenameAliases(base).ToSql());
  sqls->push_back(FlipComparisons(ReorderConjuncts(base)).ToSql());
  sqls->push_back(ReorderConjuncts(BetweenToPair(base)).ToSql());
  sqls->push_back(
      RenameAliases(FlipComparisons(ReorderConjuncts(BetweenToPair(base))))
          .ToSql());
  sqls->push_back(ScrambleCase(text));
}

/// Generated queries over `db`: SPJ with up to two joins and three
/// predicates, then aggregates, then SPJ with a LIMIT, each from its own
/// fixed seed.
Corpus Generated(std::string name, std::shared_ptr<storage::Database> db,
                 const std::vector<workloadgen::FkEdge>& fks, uint64_t seed) {
  Corpus corpus{std::move(name), db, {}};
  const workloadgen::DatabaseStats stats =
      workloadgen::DatabaseStats::Collect(*db);
  const workloadgen::QueryGenerator generator(db.get(), &stats, fks);
  workloadgen::QueryGenOptions spj;
  spj.max_joins = 2;
  spj.max_predicates = 3;
  workloadgen::QueryGenOptions agg = spj;
  agg.agg_fraction = 1.0;
  workloadgen::QueryGenOptions limited = spj;
  limited.max_predicates = 4;
  limited.limit = 50;
  const workloadgen::QueryGenOptions* options[] = {&spj, &agg, &limited};
  for (size_t o = 0; o < 3; ++o) {
    util::Rng rng(seed + o);
    for (size_t i = 0; i < 24; ++i) {
      AddWithSpellings(generator.Generate(*options[o], &rng), &corpus.sqls);
    }
  }
  return corpus;
}

/// A small Zipf-skewed schema with NULL-heavy columns (the differential
/// fuzzer's shape): fact.k is skewed over dim.k, detail.fact_id over
/// fact.id.
std::pair<std::shared_ptr<storage::Database>, std::vector<workloadgen::FkEdge>>
MakeSkewed() {
  using storage::Schema;
  using storage::Table;
  util::Rng rng(7);
  auto db = std::make_shared<storage::Database>();
  constexpr size_t kDims = 24;
  constexpr size_t kRows = 600;
  auto dim = std::make_shared<Table>(
      "dim", Schema({{"k", ValueType::kInt64},
                     {"label", ValueType::kString},
                     {"weight", ValueType::kDouble}}));
  const char* kLabels[] = {"red", "green", "blue", "o'hara", "teal"};
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
  const char* kGroups[] = {"a", "b", "c", "d", "e"};
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_TRUE(
        fact->AppendRow({Value(static_cast<int64_t>(i)),
                         Value(static_cast<int64_t>(rng.Zipf(kDims, 1.2))),
                         rng.Bernoulli(0.3)
                             ? Value()
                             : Value(std::string(kGroups[rng.Zipf(5, 1.0)])),
                         rng.Bernoulli(0.3)
                             ? Value()
                             : Value(rng.UniformDouble(-50, 50)),
                         Value(rng.UniformInt(0, 5))})
            .ok());
  }
  auto detail = std::make_shared<Table>(
      "detail", Schema({{"fact_id", ValueType::kInt64},
                        {"note", ValueType::kString},
                        {"amt", ValueType::kDouble}}));
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_TRUE(
        detail
            ->AppendRow(
                {Value(static_cast<int64_t>(rng.Zipf(kRows, 1.1))),
                 rng.Bernoulli(0.4)
                     ? Value()
                     : Value(std::string(kLabels[rng.NextBounded(5)])),
                 rng.Bernoulli(0.3) ? Value()
                                    : Value(rng.UniformDouble(0, 100))})
            .ok());
  }
  EXPECT_TRUE(db->AddTable(dim).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());
  EXPECT_TRUE(db->AddTable(detail).ok());
  return {db,
          {{"fact", "k", "dim", "k"}, {"detail", "fact_id", "fact", "id"}}};
}

data::DatasetOptions SmallData() {
  data::DatasetOptions options;
  options.scale = 0.02;
  options.seed = 42;
  options.workload_size = 1;  // unused: the corpus generates its own
  return options;
}

/// Fig. 7's interest cluster over MAS, for both areas, with spellings.
Corpus Fig7() {
  Corpus corpus{"fig7", data::MakeMas(SmallData()).db, {}};
  for (const char* area : {"databases", "ml"}) {
    const std::vector<std::string> templates = {
        util::Format("SELECT p.title, p.citations FROM publication p, venue v "
                     "WHERE p.venue_id = v.id AND v.area = '%s' AND "
                     "p.citations > 10",
                     area),
        util::Format("SELECT p.title, p.year FROM publication p, venue v "
                     "WHERE p.venue_id = v.id AND v.area = '%s' AND "
                     "p.year >= 2010",
                     area),
        util::Format("SELECT v.name, p.title FROM publication p, venue v "
                     "WHERE p.venue_id = v.id AND v.area = '%s' AND "
                     "v.type = 'conference'",
                     area),
        util::Format("SELECT p.title FROM publication p, venue v WHERE "
                     "p.venue_id = v.id AND v.area = '%s' AND p.citations "
                     "BETWEEN 5 AND 60",
                     area),
        util::Format("SELECT a.name, p.title FROM author a, writes w, "
                     "publication p, venue v WHERE w.author_id = a.id AND "
                     "w.pub_id = p.id AND p.venue_id = v.id AND v.area = '%s'",
                     area),
        util::Format("SELECT p.title, p.citations FROM publication p, venue v "
                     "WHERE p.venue_id = v.id AND v.area = '%s' AND "
                     "p.year <= 2005",
                     area),
    };
    for (const std::string& sql : templates) {
      corpus.sqls.push_back(sql);
      util::Result<SelectStatement> stmt = Parse(sql);
      EXPECT_TRUE(stmt.ok()) << sql;
      if (stmt.ok()) AddWithSpellings(stmt.value(), &corpus.sqls);
    }
  }
  return corpus;
}

/// Hand-written statements that reach every production of the grammar,
/// every token kind and the lexer's edge cases (mixed case, doubled
/// quotes, `!=`, leading-dot and multi-dot numbers, integer overflow,
/// tabs and CR/LF), over testing::MakeTinyMovieDb.
Corpus GrammarTour() {
  return Corpus{
      "tour",
      testing::MakeTinyMovieDb(),
      {
          "SELECT * FROM movies",
          "select DISTINCT M.Title, r.ACTOR from Movies M, roles AS r where "
          "m.ID = r.movie_id and m.year >= 2010 order by m.title desc, r.actor "
          "asc limit 5",
          "SELECT m.title FROM movies m JOIN roles r ON m.id = r.movie_id "
          "WHERE r.salary > 10",
          "SELECT m.title FROM movies m INNER JOIN roles r ON r.movie_id = "
          "m.id JOIN roles q ON q.movie_id = m.id",
          "SELECT title FROM movies WHERE title LIKE 'a%' AND NOT (year < "
          "2000) OR rating IS NOT NULL",
          "SELECT title FROM movies WHERE title NOT LIKE '%''s%' AND year NOT "
          "IN (1999, 2004, 1999) AND rating NOT BETWEEN 5 AND 7.5",
          "SELECT title FROM movies WHERE year BETWEEN 2000 AND 2010 AND "
          "rating BETWEEN -1.5 AND .5",
          "SELECT title FROM movies WHERE rating NOT BETWEEN NULL AND 3",
          "SELECT year, COUNT(*), SUM(rating) AS total, AVG(rating), "
          "MIN(title), MAX(year) FROM movies GROUP BY year HAVING count >= 1 "
          "ORDER BY total DESC",
          "SELECT COUNT(DISTINCT year) AS n FROM movies",
          "SELECT id + 1, id * 2, rating / 2.0, year - 1 FROM movies WHERE id "
          "+ 1 > 2 * id - 3",
          "SELECT title FROM movies WHERE year <> 2004 AND year != 1999 AND "
          "title = 'it''s'",
          "SELECT title FROM movies WHERE title IS NULL OR title IN ('alpha', "
          "'beta', NULL, '''')",
          "SELECT 5, 5.0, 'x', NULL, -3, -2.5, '' FROM movies",
          "SELECT title FROM movies WHERE 2005 <= year AND 7.0 < rating",
          "SELECT m.title FROM movies m, roles r WHERE m.id = r.movie_id AND "
          "(r.salary > 100 OR m.rating >= 8) AND r.actor IN ('x', 'y')",
          "SELECT title FROM movies WHERE year >= 2000.0 LIMIT 0",
          "SELECT\ttitle\nFROM   movies\r\nWHERE year>1999",
          "SELECT title FROM movies WHERE id < 99999999999999999999",
          "SELECT title FROM movies WHERE rating < "
          "1.23456789012345678901234567890",
          "SELECT title FROM movies WHERE rating > 1.2.3",
          "SELECT title FROM movies WHERE year IN (2004, 2004.0, 1999) AND id "
          "NOT IN (-1)",
          "SELECT m.title FROM movies AS m WHERE m.year IS NULL AND m.id = "
          "m.id",
          "SELECT count FROM movies",
          "SELECT year, COUNT(*) AS c FROM movies GROUP BY year HAVING c > 1 "
          "AND sum < 3 ORDER BY c",
          "SELECT MOVIES.title FROM movies WHERE movies.YEAR = 1999 AND 1 = 1",
          "SELECT title FROM movies WHERE NOT NOT (year = 1999) AND (rating "
          "IS NULL OR rating BETWEEN 1 AND 2 OR id = 3)",
          "SELECT title FROM movies WHERE title LIKE 'Gamma' AND title NOT "
          "LIKE '_x%'",
          "SELECT r.actor FROM roles r, movies m WHERE r.movie_id = m.id AND "
          "r.salary * 2 > m.rating + 1 AND m.year - r.salary < 10",
          "SELECT nosuch FROM movies",
          "SELECT id FROM movies, roles",
          "SELECT title FROM nosuch",
      }};
}

std::vector<Corpus> MakeCorpora() {
  std::vector<Corpus> corpora;
  data::DatasetBundle imdb = data::MakeImdbJob(SmallData());
  corpora.push_back(Generated("imdb", imdb.db, imdb.fks, 1801));
  data::DatasetBundle flights = data::MakeFlights(SmallData());
  corpora.push_back(Generated("flights", flights.db, flights.fks, 1802));
  auto [skewed_db, skewed_fks] = MakeSkewed();
  corpora.push_back(Generated("skewed", skewed_db, skewed_fks, 1803));
  corpora.push_back(Fig7());
  corpora.push_back(GrammarTour());
  return corpora;
}

const std::vector<Corpus>& Corpora() {
  static const std::vector<Corpus> corpora = MakeCorpora();
  return corpora;
}

// ---------------------------------------------------------------------------
// Digests.

struct Digests {
  Digest parse;      ///< ToSql of each parsed tree (or the parse error)
  Digest canonical;  ///< fingerprint canonical text (or the bind error)
  Digest conjuncts;  ///< classified conjuncts of each bound query
};

void AddConjuncts(const BoundQuery& bound, Digest* d) {
  for (size_t t = 0; t < bound.filters.size(); ++t) {
    for (const ExprPtr& f : bound.filters[t]) {
      std::string line = "f";
      line += std::to_string(t);
      line += ' ';
      line += CanonicalizeExpr(*f);
      d->Add(line);
    }
  }
  for (const JoinPredicate& j : bound.joins) {
    d->Add(util::Format("j t%d.c%d = t%d.c%d", j.left_table, j.left_col,
                        j.right_table, j.right_col));
  }
  for (size_t r = 0; r < bound.residual.size(); ++r) {
    std::string line = "r";
    for (int t : bound.residual_tables[r]) line += " t" + std::to_string(t);
    d->Add(line + " " + CanonicalizeExpr(*bound.residual[r]));
  }
}

Digests DigestCorpus(const Corpus& corpus) {
  Digests d;
  for (const std::string& sql : corpus.sqls) {
    util::Result<SelectStatement> stmt = Parse(sql);
    if (!stmt.ok()) {
      d.parse.Add(stmt.status().ToString());
      continue;
    }
    d.parse.Add(stmt.value().ToSql());
    util::Result<BoundQuery> bound = Bind(stmt.value(), *corpus.db);
    if (!bound.ok()) {
      d.canonical.Add(bound.status().ToString());
      continue;
    }
    d.canonical.Add(FingerprintQuery(bound.value().stmt).canonical);
    AddConjuncts(bound.value(), &d.conjuncts);
  }
  return d;
}

struct Golden {
  const char* corpus;
  size_t sqls;
  uint64_t parse;
  uint64_t canonical;
  size_t canonical_entries;
  uint64_t conjuncts;
  size_t conjunct_entries;
};

// Recorded before the front-end rewrite (see the file comment).
constexpr Golden kGolden[] = {
    {"imdb", 432, 0xcd8694a7b295616eULL, 0xe1a9c4bb62d59d5ULL, 432,
     0xf63fdcef04fe0f37ULL, 1536},
    {"flights", 432, 0x7a61d30cd9216d19ULL, 0x8868d645b5a2d297ULL, 432,
     0x25aedaf070c9c65ULL, 1478},
    {"skewed", 432, 0x6da1cb0e6a40798eULL, 0x22f23c31b7e57943ULL, 432,
     0x210b40f13d51b351ULL, 1480},
    {"fig7", 84, 0xba4d23b58447ead7ULL, 0x42c50f6a7e930171ULL, 84,
     0xef1636f72c5ad291ULL, 270},
    {"tour", 32, 0x8a3e113e40c4d3deULL, 0xd7ba1b3d54a02afbULL, 31,
     0x1e5a56804beaa5c5ULL, 41},
};

TEST(FrontendGoldenTest, TreesKeysAndConjunctsMatchTheRecordedCorpus) {
  const std::vector<Corpus>& corpora = Corpora();
  ASSERT_EQ(corpora.size(), std::size(kGolden));
  for (size_t c = 0; c < corpora.size(); ++c) {
    const Corpus& corpus = corpora[c];
    const Golden& want = kGolden[c];
    const Digests got = DigestCorpus(corpus);
    SCOPED_TRACE(corpus.name);
    EXPECT_EQ(corpus.name, want.corpus);
    EXPECT_EQ(corpus.sqls.size(), want.sqls);
    EXPECT_EQ(got.parse.hash(), want.parse);
    EXPECT_EQ(got.canonical.hash(), want.canonical);
    EXPECT_EQ(got.canonical.entries(), want.canonical_entries);
    EXPECT_EQ(got.conjuncts.hash(), want.conjuncts);
    EXPECT_EQ(got.conjuncts.entries(), want.conjunct_entries);
  }
}

/// Malformed inputs and the exact Status each one produces: the message
/// names the offending token and its byte offset.
struct Malformed {
  const char* sql;
  const char* status;
};

constexpr Malformed kMalformed[] = {
    {"", "ParseError: expected SELECT at offset 0 (got '')"},
    {"SELECT 'oops", "ParseError: unterminated string literal at offset 7"},
    {"select a from t where a = 'it''s' and b = 'x''",
     "ParseError: unterminated string literal at offset 42"},
    {"SELECT # FROM t", "ParseError: unexpected character '#' at offset 7"},
    {"SELECT a FROM t WHERE a = 1;",
     "ParseError: unexpected character ';' at offset 27"},
    {"SELECT a FROM t WHERE a = !x",
     "ParseError: unexpected character '!' at offset 26"},
    {"SELECT a FROM t WHERE a = \xc3\xa9",
     "ParseError: unexpected character '\xc3' at offset 26"},
    {"SELECT a FROM t t2 t3",
     "ParseError: unexpected trailing input at offset 19"},
    {"SELECT a FROM t LIMIT 5 6",
     "ParseError: unexpected trailing input at offset 24"},
    {"SELECT a FROM t WHERE a = 'abc' 'def'",
     "ParseError: unexpected trailing input at offset 32"},
    {"SELECT a FROM t WHERE a = 1 . 2",
     "ParseError: unexpected trailing input at offset 28"},
    {"SELECT a T", "ParseError: expected FROM at offset 9 (got 't')"},
    {"SELECT a, b Movies",
     "ParseError: expected FROM at offset 12 (got 'movies')"},
    {"SELECT a FROM t GROUP x",
     "ParseError: expected BY at offset 22 (got 'x')"},
    {"SELECT a FROM t ORDER a",
     "ParseError: expected BY at offset 22 (got 'a')"},
    {"SELECT a FROM t WHERE a BETWEEN 1 2",
     "ParseError: expected AND at offset 34 (got '')"},
    {"SELECT a FROM t WHERE a BETWEEN 1 OR 2",
     "ParseError: expected AND at offset 34 (got 'OR')"},
    {"SELECT a FROM t WHERE a BETWEEN 1 AND",
     "ParseError: expected literal value at offset 37"},
    {"SELECT a FROM t WHERE a IS 1",
     "ParseError: expected NULL at offset 27 (got '')"},
    {"SELECT a FROM t JOIN u a.x = u.y",
     "ParseError: expected ON at offset 24 (got '.')"},
    {"SELECT a FROM t INNER u ON a = b",
     "ParseError: expected JOIN at offset 22 (got 'u')"},
    {"SELECT FROM t", "ParseError: unexpected keyword at offset 7"},
    {"SELECT a FROM", "ParseError: expected table name at offset 13"},
    {"SELECT a FROM 5", "ParseError: expected table name at offset 14"},
    {"SELECT COUNT(DISTINCT *) FROM t",
     "ParseError: DISTINCT * is not valid at offset 23"},
    {"SELECT COUNT * FROM t",
     "ParseError: expected '(' at offset 13 (got '*')"},
    {"SELECT SUM(a FROM t",
     "ParseError: expected ')' at offset 13 (got 'FROM')"},
    {"SELECT a FROM t LIMIT x",
     "ParseError: expected integer after LIMIT at offset 22"},
    {"SELECT a FROM t LIMIT 1.5",
     "ParseError: expected integer after LIMIT at offset 22"},
    {"SELECT a FROM t WHERE a LIKE 5",
     "ParseError: expected string pattern after LIKE at offset 29"},
    {"SELECT a FROM t WHERE a = -'x'",
     "ParseError: cannot negate a string literal at offset 27"},
    {"SELECT -NULL FROM t", "ParseError: cannot negate NULL at offset 8"},
    {"SELECT a FROM t WHERE a = - b",
     "ParseError: expected literal value at offset 28"},
    {"SELECT a FROM t WHERE a IN (1, b)",
     "ParseError: expected literal value at offset 31"},
    {"SELECT a FROM t WHERE a IN 1",
     "ParseError: expected '(' at offset 27 (got '')"},
    {"SELECT a FROM t WHERE a IN (1, 2",
     "ParseError: expected ')' at offset 32 (got '')"},
    {"SELECT a FROM t WHERE (a = 1",
     "ParseError: expected ')' at offset 28 (got '')"},
    {"SELECT a FROM t WHERE a = 1 AND",
     "ParseError: unexpected end of input at offset 31"},
    {"SELECT a FROM t WHERE a = )",
     "ParseError: unexpected symbol at offset 26"},
    {"SELECT a FROM t WHERE a = SELECT",
     "ParseError: unexpected keyword at offset 26"},
    {"SELECT a FROM t HAVING a > 1",
     "ParseError: HAVING requires GROUP BY or aggregates"},
    {"SELECT t. FROM t",
     "ParseError: expected column name after '.' at offset 10"},
    {"SELECT t.5 FROM t", "ParseError: expected FROM at offset 8 (got '')"},
    {"SELECT a AS FROM t", "ParseError: expected alias after AS at offset 12"},
    {"SELECT a AS 'x' FROM t",
     "ParseError: expected alias after AS at offset 12"},
    {"SELECT COUNT(*) AS SELECT FROM t",
     "ParseError: expected alias after AS at offset 19"},
    {"SELECT a FROM t AS WHERE",
     "ParseError: expected alias after AS at offset 19"},
    {"SELECT a, FROM t", "ParseError: unexpected keyword at offset 10"},
    {"SELECT * , * FROM t WHERE",
     "ParseError: unexpected end of input at offset 25"},
    {"FROM t SELECT a", "ParseError: expected SELECT at offset 0 (got 'FROM')"},
    {"SELECT a FROM t WHERE NOT",
     "ParseError: unexpected end of input at offset 25"},
    // NOT before a string literal spelled like the keyword it would
    // negate: the parse fails at the literal ('IN') or at the NOT ('in').
    {"SELECT a FROM t WHERE a NOT 'IN'",
     "ParseError: unexpected trailing input at offset 28"},
    {"SELECT a FROM t WHERE a NOT 'in'",
     "ParseError: unexpected trailing input at offset 24"},
    {"SELECT a FROM t WHERE a NOT 5",
     "ParseError: unexpected trailing input at offset 24"},
    {"SELECT a FROM t WHERE a NOT LIKE 5",
     "ParseError: expected string pattern after LIKE at offset 33"},
    {"select a from t where a not between 1 and",
     "ParseError: expected literal value at offset 41"},
};

TEST(FrontendGoldenTest, MalformedInputsKeepTheirMessagesAndOffsets) {
  for (const Malformed& m : kMalformed) {
    util::Result<SelectStatement> stmt = Parse(m.sql);
    ASSERT_FALSE(stmt.ok()) << m.sql;
    EXPECT_EQ(stmt.status().ToString(), m.status) << m.sql;
  }
}


// ---------------------------------------------------------------------------
// Bind by move. The serving path binds its parsed statement in place
// (Bind(SelectStatement&&)); everything else binds a copy. Over the corpus
// both must produce the same bound query, and the estimator must read the
// bound statement exactly as it reads the written one.

/// Everything the binder decides, as text: the fingerprint plus the
/// classified conjuncts (or the failure).
std::string BoundSummary(const util::Result<BoundQuery>& bound) {
  if (!bound.ok()) return bound.status().ToString();
  Digest conjuncts;
  AddConjuncts(bound.value(), &conjuncts);
  return FingerprintQuery(bound.value().stmt).canonical + " | " +
         std::to_string(conjuncts.hash()) + "/" +
         std::to_string(conjuncts.entries());
}

TEST(FrontendBindTest, BindByMoveEqualsBindOfACopy) {
  size_t bound_ok = 0;
  for (const Corpus& corpus : Corpora()) {
    SCOPED_TRACE(corpus.name);
    for (const std::string& sql : corpus.sqls) {
      util::Result<SelectStatement> written = Parse(sql);
      if (!written.ok()) continue;
      util::Result<SelectStatement> parsed = Parse(sql);
      ASSERT_TRUE(parsed.ok()) << sql;
      SelectStatement moved = std::move(parsed).value();
      const Expr* where = moved.where.get();

      const std::string before = written.value().ToSql();
      const util::Result<BoundQuery> copy = Bind(written.value(), *corpus.db);
      const util::Result<BoundQuery> in_place =
          Bind(std::move(moved), *corpus.db);
      ASSERT_EQ(BoundSummary(in_place), BoundSummary(copy)) << sql;
      // Bind(const&) leaves the written statement as it was: same text,
      // and still unbound.
      EXPECT_EQ(written.value().ToSql(), before);
      if (!copy.ok()) continue;
      ++bound_ok;
      EXPECT_EQ(CanonicalizeStatement(written.value()),
                CanonicalizeStatement(Parse(sql).value()))
          << sql;
      const BoundQuery& a = copy.value();
      const BoundQuery& b = in_place.value();
      EXPECT_EQ(a.tables, b.tables) << sql;  // the same table objects
      ASSERT_EQ(a.joins.size(), b.joins.size());
      ASSERT_EQ(a.filters.size(), b.filters.size());
      for (size_t t = 0; t < a.filters.size(); ++t) {
        EXPECT_EQ(a.filters[t].size(), b.filters[t].size()) << sql;
      }
      EXPECT_EQ(a.residual_tables, b.residual_tables) << sql;
      // In place means in place: the bound statement owns the parsed
      // nodes; only the copying overload allocates new ones.
      EXPECT_EQ(b.stmt.where.get(), where) << sql;
      if (where != nullptr) {
        EXPECT_NE(a.stmt.where.get(), where) << sql;
      }
    }
  }
  EXPECT_GT(bound_ok, 1000u);
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(FrontendBindTest, EstimatorReadsTheBoundStatementAsWritten) {
  // An estimator over representatives drawn from the corpus itself, so
  // the estimates spread over (0, 1) instead of collapsing to 0.
  const embed::QueryEmbedder embedder(64);
  std::vector<embed::Vector> reps;
  std::vector<double> coverage;
  for (const Corpus& corpus : Corpora()) {
    for (size_t i = 0; i < corpus.sqls.size(); i += 37) {
      util::Result<SelectStatement> stmt = Parse(corpus.sqls[i]);
      if (!stmt.ok()) continue;
      reps.push_back(embedder.Embed(stmt.value()));
      coverage.push_back(0.2 + 0.6 * static_cast<double>(reps.size() % 4) / 3);
    }
  }
  const core::AnswerabilityEstimator estimator(embedder, reps, coverage);
  size_t compared = 0;
  size_t positive = 0;
  for (const Corpus& corpus : Corpora()) {
    for (const std::string& sql : corpus.sqls) {
      util::Result<SelectStatement> written = Parse(sql);
      if (!written.ok()) continue;
      util::Result<BoundQuery> bound =
          Bind(std::move(Parse(sql).value()), *corpus.db);
      if (!bound.ok()) continue;
      const SelectStatement& w = written.value();
      const SelectStatement& b = bound.value().stmt;
      const double want = estimator.Estimate(w);
      EXPECT_EQ(Bits(estimator.Estimate(b)), Bits(want)) << sql;
      const embed::Vector eb = embedder.Embed(b);
      const embed::Vector ew = embedder.Embed(w);
      ASSERT_EQ(eb.size(), ew.size());
      EXPECT_EQ(std::memcmp(eb.data(), ew.data(), eb.size() * sizeof(float)),
                0)
          << sql;
      if (w.HasAggregates()) {
        EXPECT_EQ(Bits(estimator.Estimate(metric::StripAggregates(b))),
                  Bits(estimator.Estimate(metric::StripAggregates(w))))
            << sql;
      }
      ++compared;
      if (want > 0.0) ++positive;
    }
  }
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(positive, compared / 4);
}

}  // namespace
}  // namespace sql
}  // namespace asqp
