// Seeded property tests for the ordered secondary index (storage/index):
// random builds over NULL-heavy, duplicate-heavy, and empty columns with
// point / range / open-ended lookups cross-checked against a linear-scan
// oracle (over full-database and approximation-set views), catalog scope
// coverage, the planner's access-path rule, end-to-end byte identity of
// index-on vs index-off execution, and generation-bump invalidation on
// FineTune. ASQP_SEED re-rolls the whole property stream.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "metric/workload.h"
#include "plan/planner.h"
#include "plan/stats.h"
#include "sql/binder.h"
#include "storage/database.h"
#include "storage/index.h"
#include "tests/testing.h"
#include "util/random.h"

namespace asqp {
namespace storage {
namespace {

uint64_t PropertySeed() {
  const char* env = std::getenv("ASQP_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807;
}

/// True when non-NULL `v` satisfies `bound` (the oracle's predicate,
/// deliberately re-derived from Value::Compare rather than the index).
bool InBound(const Value& v, const IndexBound& bound) {
  if (bound.has_lower) {
    const int c = v.Compare(bound.lower);
    if (bound.lower_inclusive ? c < 0 : c <= 0) return false;
  }
  if (bound.has_upper) {
    const int c = v.Compare(bound.upper);
    if (bound.upper_inclusive ? c > 0 : c >= 0) return false;
  }
  return true;
}

/// Linear-scan oracle: visible-row ordinals with a non-NULL column value
/// satisfying `bound`, in scan order.
std::vector<uint32_t> OracleLookup(const DatabaseView& view,
                                   const Table& table, int column,
                                   const IndexBound& bound) {
  std::vector<uint32_t> out;
  const Column& col = table.column(static_cast<size_t>(column));
  for (size_t ord = 0; ord < view.VisibleRows(table); ++ord) {
    const Value v = col.ValueAt(view.PhysicalRow(table, ord));
    if (!v.is_null() && InBound(v, bound)) {
      out.push_back(static_cast<uint32_t>(ord));
    }
  }
  return out;
}

/// A random value for column `c` of the property table: NULL-heavy int64
/// (c=0), duplicate-heavy int64 over 4 distinct values (c=1), double with
/// occasional NULLs (c=2), short string over a small alphabet (c=3).
Value RandomCell(util::Rng* rng, size_t c) {
  switch (c) {
    case 0:
      if (rng->NextBounded(2) == 0) return Value::Null();
      return Value(static_cast<int64_t>(rng->NextBounded(200)) - 100);
    case 1:
      return Value(static_cast<int64_t>(rng->NextBounded(4)));
    case 2:
      if (rng->NextBounded(10) == 0) return Value::Null();
      return Value(rng->UniformDouble(-1.0, 1.0));
    default: {
      static const char* kWords[] = {"ash", "birch", "cedar", "doum", "elm"};
      return Value(std::string(kWords[rng->NextBounded(5)]));
    }
  }
}

/// A random bound for column `c`: point, closed range, half-open range,
/// open-ended above/below, or unbounded — with literals drawn from the
/// same domain as the data (so hits are common) but not restricted to
/// present values.
IndexBound RandomBound(util::Rng* rng, size_t c) {
  const auto literal = [&]() -> Value {
    switch (c) {
      case 0: return Value(static_cast<int64_t>(rng->NextBounded(220)) - 110);
      case 1: return Value(static_cast<int64_t>(rng->NextBounded(6)) - 1);
      case 2: return Value(rng->UniformDouble(-1.2, 1.2));
      default: {
        static const char* kWords[] = {"ash", "beech", "cedar", "elm", "zzz"};
        return Value(std::string(kWords[rng->NextBounded(5)]));
      }
    }
  };
  switch (rng->NextBounded(5)) {
    case 0:
      return IndexBound::Equal(literal());
    case 1: {  // range, random inclusivity; ensure lo <= hi
      Value a = literal();
      Value b = literal();
      if (a.Compare(b) > 0) std::swap(a, b);
      IndexBound bound;
      bound.has_lower = bound.has_upper = true;
      bound.lower = std::move(a);
      bound.upper = std::move(b);
      bound.lower_inclusive = rng->NextBounded(2) == 0;
      bound.upper_inclusive = rng->NextBounded(2) == 0;
      return bound;
    }
    case 2: {  // open-ended above
      IndexBound bound;
      bound.has_lower = true;
      bound.lower = literal();
      bound.lower_inclusive = rng->NextBounded(2) == 0;
      return bound;
    }
    case 3: {  // open-ended below
      IndexBound bound;
      bound.has_upper = true;
      bound.upper = literal();
      bound.upper_inclusive = rng->NextBounded(2) == 0;
      return bound;
    }
    default:
      return IndexBound{};  // unbounded: every non-NULL row
  }
}

TEST(OrderedIndexProperty, LookupsMatchLinearOracle) {
  util::Rng rng(PropertySeed());
  size_t nonempty_lookups = 0;
  for (size_t trial = 0; trial < 8; ++trial) {
    const size_t rows = trial == 0 ? 0 : rng.NextBounded(400);  // incl. empty
    auto table = std::make_shared<Table>(
        "props", Schema({{"sparse", ValueType::kInt64},
                         {"dup", ValueType::kInt64},
                         {"score", ValueType::kDouble},
                         {"word", ValueType::kString}}));
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_OK(table->AppendRow({RandomCell(&rng, 0), RandomCell(&rng, 1),
                                  RandomCell(&rng, 2), RandomCell(&rng, 3)}));
    }
    Database db;
    ASSERT_OK(db.AddTable(table));

    // A random approximation set over ~half the rows, plus the full view.
    ApproximationSet subset;
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBounded(2) == 0) {
        subset.Add("props", static_cast<uint32_t>(r));
      }
    }
    subset.Seal();
    const DatabaseView views[] = {DatabaseView(&db),
                                  DatabaseView(&db, &subset)};

    for (const DatabaseView& view : views) {
      for (size_t c = 0; c < table->num_columns(); ++c) {
        ASSERT_OK_AND_ASSIGN(
            OrderedIndex index,
            OrderedIndex::Build(view, *table, static_cast<int>(c)));
        // NULLs are excluded; everything else is indexed.
        size_t non_null = 0;
        for (size_t ord = 0; ord < view.VisibleRows(*table); ++ord) {
          non_null += table->column(c)
                              .ValueAt(view.PhysicalRow(*table, ord))
                              .is_null()
                          ? 0
                          : 1;
        }
        EXPECT_EQ(index.num_entries(), non_null);

        for (size_t probe = 0; probe < 12; ++probe) {
          const IndexBound bound = RandomBound(&rng, c);
          const std::vector<uint32_t> got = index.LookupRange(bound);
          const std::vector<uint32_t> want =
              OracleLookup(view, *table, static_cast<int>(c), bound);
          ASSERT_EQ(got, want)
              << "trial " << trial << " col " << c << " probe " << probe
              << " (seed " << PropertySeed() << ")";
          nonempty_lookups += got.empty() ? 0 : 1;
        }
      }
    }
  }
  // The probe domains overlap the data domains, so a healthy run exercises
  // plenty of non-empty ranges — guard against a vacuous pass.
  EXPECT_GT(nonempty_lookups, 50u);
}

TEST(IndexCatalog, ScopeCoverageAndLookup) {
  auto db = asqp::testing::MakeTinyMovieDb();
  ApproximationSet subset;
  subset.Add("movies", 0);
  subset.Add("movies", 2);
  subset.Seal();
  const DatabaseView full(db.get());
  const DatabaseView approx(db.get(), &subset);

  const IndexCatalog catalog =
      IndexCatalog::Build(approx, AllIndexColumns(*db), /*generation=*/7);
  // movies(4 cols) + roles(3 cols), all built.
  EXPECT_EQ(catalog.num_indexes(), 7u);
  EXPECT_EQ(catalog.failed_builds(), 0u);
  EXPECT_EQ(catalog.generation(), 7u);

  EXPECT_TRUE(catalog.CoversView(approx));
  EXPECT_FALSE(catalog.CoversView(full));
  ApproximationSet other;
  other.Add("movies", 0);
  other.Add("movies", 2);
  other.Seal();
  // Same visible rows, different subset identity: still not covered.
  EXPECT_FALSE(catalog.CoversView(DatabaseView(db.get(), &other)));

  ASSERT_NE(catalog.Find("movies", 2), nullptr);
  EXPECT_EQ(catalog.Find("movies", 99), nullptr);
  EXPECT_EQ(catalog.Find("nope", 0), nullptr);

  // The subset-scoped index indexes subset ordinals, not physical rows.
  const OrderedIndex* year = catalog.Find("movies", 2);
  EXPECT_EQ(year->num_entries(), 2u);
  // movies row 2 (year 2010) is subset ordinal 1.
  const std::vector<uint32_t> hit =
      year->LookupRange(IndexBound::Equal(Value(int64_t{2010})));
  EXPECT_EQ(hit, (std::vector<uint32_t>{1}));
}

// ---- Planner access-path rule + end-to-end byte identity ---------------

class IndexExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = asqp::testing::MakeTinyMovieDb();
    stats_ = std::make_shared<const plan::StatsCatalog>(
        plan::StatsCatalog::Collect(*db_));
    catalog_ = std::make_shared<const IndexCatalog>(IndexCatalog::Build(
        DatabaseView(db_.get()), AllIndexColumns(*db_), /*generation=*/0));
  }

  exec::QueryEngine MakeEngine(bool with_indexes, size_t threads = 1) const {
    exec::ExecOptions options;
    options.num_threads = threads;
    // One-row morsels: every operator over more than one row takes its
    // parallel branch, even over the tiny tables.
    options.morsel_rows = 1;
    options.enable_planner = true;
    options.planner_stats = stats_;
    if (with_indexes) options.index_catalog = catalog_;
    return exec::QueryEngine(options);
  }

  std::shared_ptr<Database> db_;
  std::shared_ptr<const plan::StatsCatalog> stats_;
  std::shared_ptr<const IndexCatalog> catalog_;
};

TEST_F(IndexExecTest, IndexOnAndOffAreByteIdentical) {
  const char* kQueries[] = {
      "SELECT * FROM movies WHERE year = 2010",
      "SELECT title FROM movies WHERE year BETWEEN 2004 AND 2015",
      "SELECT * FROM movies WHERE 2010 <= year",
      "SELECT title, rating FROM movies WHERE rating > 7.0 AND year < 2021",
      "SELECT * FROM movies WHERE title = 'gamma'",
      "SELECT m.title, r.actor FROM movies m, roles r "
      "WHERE m.id = r.movie_id AND r.actor = 'bob'",
      "SELECT COUNT(*), AVG(rating) FROM movies WHERE year >= 2010",
      "SELECT * FROM movies WHERE year = 1800",  // empty range
  };
  for (const char* sql : kQueries) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const DatabaseView view(db_.get());
      ASSERT_OK_AND_ASSIGN(exec::ResultSet off,
                           MakeEngine(false, threads).ExecuteSql(sql, view));
      ASSERT_OK_AND_ASSIGN(exec::ResultSet on,
                           MakeEngine(true, threads).ExecuteSql(sql, view));
      ASSERT_EQ(off.num_rows(), on.num_rows()) << sql;
      for (size_t r = 0; r < off.num_rows(); ++r) {
        ASSERT_EQ(off.RowKey(r), on.RowKey(r)) << sql << " row " << r;
      }
    }
  }
}

TEST_F(IndexExecTest, ExplainSurfacesChosenAccessPath) {
  const DatabaseView view(db_.get());
  // Selective equality over an indexed column: converted.
  ASSERT_OK_AND_ASSIGN(
      std::string indexed,
      MakeEngine(true).ExplainSql("SELECT * FROM movies WHERE year = 2010",
                                  view));
  EXPECT_NE(indexed.find("IndexRangeScan(year, [2010, 2010])"),
            std::string::npos)
      << indexed;
  // No catalog: same query full-scans.
  ASSERT_OK_AND_ASSIGN(
      std::string plain,
      MakeEngine(false).ExplainSql("SELECT * FROM movies WHERE year = 2010",
                                   view));
  EXPECT_EQ(plain.find("IndexRangeScan"), std::string::npos) << plain;
  EXPECT_NE(plain.find("FullScan"), std::string::npos) << plain;
  // Unselective predicate (most movies): stays a full scan even indexed.
  ASSERT_OK_AND_ASSIGN(
      std::string wide,
      MakeEngine(true).ExplainSql("SELECT * FROM movies WHERE year > 1800",
                                  view));
  EXPECT_EQ(wide.find("IndexRangeScan"), std::string::npos) << wide;
}

TEST_F(IndexExecTest, PlannerConvertsOnlySelectiveIndexableConjuncts) {
  ASSERT_OK_AND_ASSIGN(
      sql::BoundQuery bound,
      sql::ParseAndBind("SELECT * FROM movies WHERE year = 2010 AND "
                        "rating > 5.0",
                        *db_));
  plan::PlanSummary summary;
  const sql::BoundQuery planned =
      plan::PlanQuery(bound, stats_.get(), &summary, catalog_.get());
  ASSERT_EQ(planned.access_paths.size(), 1u);
  const sql::AccessPath& ap = planned.access_paths[0];
  EXPECT_EQ(ap.kind, sql::AccessPath::Kind::kIndexRange);
  EXPECT_EQ(ap.column, 2);  // year, the more selective of the two
  EXPECT_TRUE(ap.has_lower);
  EXPECT_TRUE(ap.has_upper);
  EXPECT_EQ(summary.index_scans, 1u);

  // Without a catalog the rule never fires.
  const sql::BoundQuery unplanned = plan::PlanQuery(bound, stats_.get());
  ASSERT_EQ(unplanned.access_paths.size(), 1u);
  EXPECT_EQ(unplanned.access_paths[0].kind, sql::AccessPath::Kind::kFullScan);

  // NOT BETWEEN and <> never convert (their ranges are not contiguous).
  ASSERT_OK_AND_ASSIGN(
      sql::BoundQuery negated,
      sql::ParseAndBind(
          "SELECT * FROM movies WHERE year NOT BETWEEN 2000 AND 2020", *db_));
  const sql::BoundQuery negated_planned =
      plan::PlanQuery(negated, stats_.get(), nullptr, catalog_.get());
  EXPECT_EQ(negated_planned.access_paths[0].kind,
            sql::AccessPath::Kind::kFullScan);
}

// ---- Generation-bump invalidation on FineTune --------------------------

TEST(IndexLifecycle, FineTuneRebuildsCatalogAtNewGeneration) {
  data::DatasetOptions opts;
  opts.scale = 0.03;
  opts.workload_size = 12;
  opts.seed = 11;
  const data::DatasetBundle bundle = data::MakeImdbJob(opts);

  core::AsqpConfig config;
  config.k = 150;
  config.frame_size = 25;
  config.num_representatives = 6;
  config.pool_target = 200;
  config.max_tuples_per_rep = 800;
  config.trainer.iterations = 4;
  config.trainer.episodes_per_iteration = 2;
  config.trainer.num_workers = 1;
  config.trainer.hidden_dim = 32;
  config.seed = 5;

  core::AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(core::TrainReport report,
                       trainer.Train(*bundle.db, bundle.workload));
  core::AsqpModel& model = *report.model;

  const std::shared_ptr<const IndexCatalog> before = model.index_catalog();
  ASSERT_NE(before, nullptr);
  EXPECT_GT(before->num_indexes(), 0u);
  EXPECT_EQ(before->generation(), model.generation());
  EXPECT_TRUE(
      before->CoversView(DatabaseView(bundle.db.get(),
                                      &model.approximation_set())));

  const uint64_t gen_before = model.generation();
  ASSERT_OK_AND_ASSIGN(
      metric::Workload drift,
      metric::Workload::FromSql(
          {"SELECT p.name FROM person p WHERE p.birth_year > 1980",
           "SELECT p.name FROM person p WHERE p.birth_year < 1940"}));
  ASSERT_OK(model.FineTune(drift));

  const std::shared_ptr<const IndexCatalog> after = model.index_catalog();
  ASSERT_NE(after, nullptr);
  // The old catalog is invalid for the new set: FineTune published a new
  // set with a fresh build stamped with the bumped generation, and the old
  // catalog no longer covers it.
  EXPECT_NE(after, before);
  EXPECT_FALSE(before->CoversView(
      DatabaseView(bundle.db.get(), &model.approximation_set())));
  EXPECT_EQ(model.generation(), gen_before + 1);
  EXPECT_EQ(after->generation(), model.generation());
  EXPECT_TRUE(after->CoversView(
      DatabaseView(bundle.db.get(), &model.approximation_set())));
}

}  // namespace
}  // namespace storage
}  // namespace asqp
