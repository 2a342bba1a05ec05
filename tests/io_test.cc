#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "io/io.h"
#include "rl/policy.h"
#include "sql/parser.h"
#include "tests/testing.h"
#include "util/random.h"

namespace asqp {
namespace io {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& contents = "") {
    static int counter = 0;
    path_ = ::testing::TempDir() + "asqp_io_test_" + std::to_string(counter++);
    if (!contents.empty()) {
      std::ofstream out(path_);
      out << contents;
    }
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SplitCsvLineTest, PlainQuotedAndEscaped) {
  auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");

  fields = SplitCsvLine(R"("a,b",c)");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");

  fields = SplitCsvLine(R"("say ""hi""",x)");
  EXPECT_EQ(fields[0], "say \"hi\"");

  fields = SplitCsvLine("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");

  fields = SplitCsvLine("one\r");
  EXPECT_EQ(fields[0], "one");
}

TEST(LoadCsvTableTest, TypeInferenceAndNulls) {
  TempFile file(
      "id,score,name\n"
      "1,2.5,alice\n"
      "2,,bob\n"
      "3,4.0,\"comma, name\"\n");
  ASSERT_OK_AND_ASSIGN(auto table, LoadCsvTable(file.path(), "t"));
  EXPECT_EQ(table->num_rows(), 3u);
  ASSERT_EQ(table->num_columns(), 3u);
  EXPECT_EQ(table->schema().field(0).type, storage::ValueType::kInt64);
  EXPECT_EQ(table->schema().field(1).type, storage::ValueType::kDouble);
  EXPECT_EQ(table->schema().field(2).type, storage::ValueType::kString);
  EXPECT_EQ(table->column(0).Int64At(2), 3);
  EXPECT_TRUE(table->column(1).IsNull(1));
  EXPECT_EQ(table->column(2).StringAt(2), "comma, name");
}

TEST(LoadCsvTableTest, IntColumnPromotedToDoubleThenString) {
  TempFile file("x\n1\n2.5\n");
  ASSERT_OK_AND_ASSIGN(auto table, LoadCsvTable(file.path(), "t"));
  EXPECT_EQ(table->schema().field(0).type, storage::ValueType::kDouble);

  TempFile file2("x\n1\nhello\n");
  ASSERT_OK_AND_ASSIGN(auto table2, LoadCsvTable(file2.path(), "t"));
  EXPECT_EQ(table2->schema().field(0).type, storage::ValueType::kString);
}

TEST(LoadCsvTableTest, Errors) {
  EXPECT_FALSE(LoadCsvTable("/nonexistent/file.csv", "t").ok());
  TempFile empty("");
  EXPECT_FALSE(LoadCsvTable(empty.path(), "t").ok());
  TempFile ragged("a,b\n1\n");
  EXPECT_FALSE(LoadCsvTable(ragged.path(), "t").ok());
}

TEST(ParseCsvLineTest, StrictErrorsCarryFieldIndex) {
  std::vector<std::string> fields;
  size_t bad_field = 0;

  ASSERT_OK(ParseCsvLine(R"(a,"b,c",d)", &fields, &bad_field));
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");

  util::Status st = ParseCsvLine(R"(a,"unterminated)", &fields, &bad_field);
  EXPECT_EQ(st.code(), util::StatusCode::kParseError);
  EXPECT_EQ(bad_field, 2u);

  st = ParseCsvLine(R"(a,"done"oops,b)", &fields, &bad_field);
  EXPECT_EQ(st.code(), util::StatusCode::kParseError);
  EXPECT_EQ(bad_field, 2u);

  st = ParseCsvLine(R"(plain"quote)", &fields, &bad_field);
  EXPECT_EQ(st.code(), util::StatusCode::kParseError);
  EXPECT_EQ(bad_field, 1u);
}

TEST(LoadCsvTableTest, CorruptedFixturesNameLineAndColumn) {
  // Unterminated quote on data line 3, second column.
  TempFile unterminated("a,b\n1,x\n2,\"broken\n");
  auto r1 = LoadCsvTable(unterminated.path(), "t");
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(r1.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(r1.status().message().find("column 2"), std::string::npos);

  // Stray text after a closing quote.
  TempFile stray("a\n\"ok\"junk\n");
  auto r2 = LoadCsvTable(stray.path(), "t");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(r2.status().message().find("line 2"), std::string::npos);

  // Ragged row reports the offending line.
  TempFile ragged("a,b\n1,2\n3\n");
  auto r3 = LoadCsvTable(ragged.path(), "t");
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(r3.status().message().find("line 3"), std::string::npos);

  // A corrupt header is reported as line 1.
  TempFile bad_header("a,\"b\n1,2\n");
  auto r4 = LoadCsvTable(bad_header.path(), "t");
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(r4.status().message().find("line 1"), std::string::npos);
}

TEST(WriteCsvTest, RoundTripsThroughLoad) {
  exec::ResultSet::Rows rows(2);
  rows[0].emplace_back(int64_t{1});
  rows[0].emplace_back(std::string("x,y"));
  rows[1].emplace_back(int64_t{2});
  rows[1].emplace_back();
  const exec::ResultSet rs({"id", "label"}, std::move(rows));
  std::ostringstream out;
  ASSERT_OK(WriteCsv(rs, out));

  TempFile file(out.str());
  ASSERT_OK_AND_ASSIGN(auto table, LoadCsvTable(file.path(), "t"));
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->column(1).StringAt(0), "x,y");
  EXPECT_TRUE(table->column(1).IsNull(1));
}

TEST(ApproximationSetIoTest, SaveLoadRoundTrip) {
  auto db = testing::MakeTinyMovieDb();
  storage::ApproximationSet set;
  set.Add("movies", 1);
  set.Add("movies", 5);
  set.Add("roles", 3);
  set.Seal();

  TempFile file;
  ASSERT_OK(SaveApproximationSet(set, file.path()));
  ASSERT_OK_AND_ASSIGN(auto loaded,
                       LoadApproximationSet(file.path(), db.get()));
  EXPECT_EQ(loaded.rows(), set.rows());
}

TEST(ApproximationSetIoTest, ValidationAgainstDatabase) {
  auto db = testing::MakeTinyMovieDb();
  TempFile bad_table("nope 1\n");
  EXPECT_FALSE(LoadApproximationSet(bad_table.path(), db.get()).ok());
  TempFile bad_row("movies 9999\n");
  EXPECT_FALSE(LoadApproximationSet(bad_row.path(), db.get()).ok());
  // Without a database, no validation happens.
  ASSERT_OK_AND_ASSIGN(auto loose, LoadApproximationSet(bad_row.path()));
  EXPECT_EQ(loose.TotalTuples(), 1u);
}

TEST(ApproximationSetIoTest, CommentsAndBlanksIgnored) {
  TempFile file("# header\n\nmovies 2\n# trailing\nroles 0\n");
  ASSERT_OK_AND_ASSIGN(auto set, LoadApproximationSet(file.path()));
  EXPECT_EQ(set.TotalTuples(), 2u);
  EXPECT_TRUE(set.Contains("movies", 2));
}

TEST(ApproximationSetIoTest, MalformedLineRejected) {
  TempFile file("movies\n");
  EXPECT_FALSE(LoadApproximationSet(file.path()).ok());
}

TEST(WorkloadIoTest, SaveLoadRoundTrip) {
  metric::Workload w;
  auto q1 = sql::Parse("SELECT a FROM t WHERE x > 5 AND name = 'it''s'");
  auto q2 = sql::Parse("SELECT b, COUNT(*) FROM t GROUP BY b");
  ASSERT_TRUE(q1.ok() && q2.ok());
  w.Add(std::move(q1).value(), 3.0);
  w.Add(std::move(q2).value(), 1.0);
  w.NormalizeWeights();

  TempFile file;
  ASSERT_OK(SaveWorkload(w, file.path()));
  ASSERT_OK_AND_ASSIGN(metric::Workload loaded, LoadWorkload(file.path()));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.query(0).ToSql(), w.query(0).ToSql());
  EXPECT_EQ(loaded.query(1).ToSql(), w.query(1).ToSql());
  EXPECT_NEAR(loaded.query(0).weight, 0.75, 1e-9);
}

TEST(WorkloadIoTest, RejectsMalformedLines) {
  TempFile no_tab("0.5 SELECT a FROM t\n");
  EXPECT_FALSE(LoadWorkload(no_tab.path()).ok());
  TempFile bad_weight("abc\tSELECT a FROM t\n");
  EXPECT_FALSE(LoadWorkload(bad_weight.path()).ok());
  TempFile bad_sql("0.5\tSELECT FROM\n");
  EXPECT_FALSE(LoadWorkload(bad_sql.path()).ok());
  TempFile comments_only("# nothing\n\n");
  ASSERT_OK_AND_ASSIGN(auto empty, LoadWorkload(comments_only.path()));
  EXPECT_TRUE(empty.empty());
}

TEST(PolicyIoTest, SaveLoadRoundTripsOutputs) {
  rl::Policy policy = rl::Policy::Create(/*state_dim=*/12, /*actions=*/6,
                                         /*hidden=*/16, /*with_critic=*/true,
                                         /*seed=*/5);
  TempFile file;
  ASSERT_OK(SavePolicy(policy, file.path()));
  ASSERT_OK_AND_ASSIGN(rl::Policy loaded, LoadPolicy(file.path()));
  ASSERT_NE(loaded.actor, nullptr);
  ASSERT_NE(loaded.critic, nullptr);

  util::Rng rng(1);
  std::vector<float> state(12);
  for (float& v : state) v = static_cast<float>(rng.UniformDouble(-1, 1));
  const std::vector<uint8_t> mask(6, 1);
  const auto a = policy.Act(state, mask, &rng, /*greedy=*/true);
  const auto b = loaded.Act(state, mask, &rng, /*greedy=*/true);
  EXPECT_EQ(a.action, b.action);
  EXPECT_NEAR(a.value, b.value, 1e-5f);
  for (size_t i = 0; i < a.probs.size(); ++i) {
    EXPECT_NEAR(a.probs[i], b.probs[i], 1e-5f);
  }
}

TEST(PolicyIoTest, ActorOnlyPolicy) {
  rl::Policy policy = rl::Policy::Create(8, 4, 8, /*with_critic=*/false, 3);
  TempFile file;
  ASSERT_OK(SavePolicy(policy, file.path()));
  ASSERT_OK_AND_ASSIGN(rl::Policy loaded, LoadPolicy(file.path()));
  EXPECT_EQ(loaded.critic, nullptr);
}

TEST(PolicyIoTest, RejectsGarbage) {
  TempFile garbage("not a policy file\n");
  EXPECT_FALSE(LoadPolicy(garbage.path()).ok());
  rl::Policy empty;
  TempFile file;
  EXPECT_FALSE(SavePolicy(empty, file.path()).ok());
  EXPECT_FALSE(LoadPolicy("/nonexistent").ok());
}

TEST(CsvQueryIntegrationTest, LoadedCsvIsQueryable) {
  TempFile file(
      "city,population\n"
      "springfield,30000\n"
      "shelbyville,25000\n"
      "capital,900000\n");
  ASSERT_OK_AND_ASSIGN(auto table, LoadCsvTable(file.path(), "cities"));
  storage::Database db;
  ASSERT_OK(db.AddTable(table));
  exec::QueryEngine engine;
  storage::DatabaseView view(&db);
  ASSERT_OK_AND_ASSIGN(
      auto rs, engine.ExecuteSql(
                   "SELECT city FROM cities WHERE population > 28000 "
                   "ORDER BY population DESC",
                   view));
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.row(0)[0].AsString(), "capital");
}

}  // namespace
}  // namespace io
}  // namespace asqp
