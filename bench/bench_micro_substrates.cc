// Microbenchmarks (google-benchmark) for the hot substrate paths that the
// paper's end-to-end numbers rest on: hash join (sequential and
// morsel-parallel across thread counts), Eq.-1 score evaluation,
// query/tuple embedding, k-means (small, and at pre-processing's subsample
// shape), one PPO policy step, one minibatch PPO
// update, the SQL front end (parse, bind, fingerprint), and an answer
// cache hit.
//
// Pass `--json out.json` (or set ASQP_BENCH_JSON) to also emit the
// measurements as machine-readable records; CI's bench-smoke job diffs
// them against bench/baselines/BENCH_micro.json via tools/bench_compare.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "common/bench_common.h"
#include "common/bench_json.h"
#include "embed/embedder.h"
#include "metric/score.h"
#include "nn/mlp.h"
#include "rl/policy.h"
#include "rl/rollout.h"
#include "rl/trainer.h"
#include "serve/answer_cache.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "sql/parser.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloadgen/generator.h"
#include "workloadgen/stats.h"

using namespace asqp;

namespace {

const data::DatasetBundle& Imdb() {
  static const data::DatasetBundle* bundle = [] {
    data::DatasetOptions options;
    options.scale = 0.05;
    options.workload_size = 10;
    // Leaky singleton: shared across benchmarks, freed at process exit.
    return new data::DatasetBundle(data::MakeImdbJob(options));  // NOLINT(asqp-naked-new)
  }();
  return *bundle;
}

void BM_HashJoinTwoTables(benchmark::State& state) {
  const auto& bundle = Imdb();
  exec::QueryEngine engine;
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND t.production_year >= 2000",
      *bundle.db);
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_HashJoinTwoTables);

void BM_ThreeWayJoin(benchmark::State& state) {
  const auto& bundle = Imdb();
  exec::QueryEngine engine;
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT t.name, c.name FROM title t, movie_companies mc, company c "
      "WHERE mc.movie_id = t.id AND mc.company_id = c.id AND t.rating > 7",
      *bundle.db);
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_ThreeWayJoin);

void BM_MorselParallelHashJoin(benchmark::State& state) {
  // The tentpole measurement: the same two-table probe-heavy join as
  // BM_HashJoinTwoTables, executed morsel-parallel at Arg(0) threads.
  // Identical output across thread counts is asserted in
  // tests/parallel_exec_test.cc; this records the speedup curve.
  const auto& bundle = Imdb();
  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.morsel_rows = 4096;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT t.name, ci.role FROM title t, cast_info ci "
      "WHERE ci.movie_id = t.id AND t.production_year >= 2000",
      *bundle.db);
  int64_t rows = 0;
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok()) rows += static_cast<int64_t>(rs.value().num_rows());
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_MorselParallelHashJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_MorselParallelBuild(benchmark::State& state) {
  // Build-heavy join: movie_companies is the build side (its candidate
  // rows are hashed into radix partitions), company the small probe
  // anchor, so the partitioned build dominates the wall clock.
  const auto& bundle = Imdb();
  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.morsel_rows = 4096;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT c.name, mc.note FROM company c, movie_companies mc "
      "WHERE mc.company_id = c.id",
      *bundle.db);
  int64_t rows = 0;
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok()) rows += static_cast<int64_t>(rs.value().num_rows());
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_MorselParallelBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_MorselParallelAggregate(benchmark::State& state) {
  // Per-morsel partial aggregation: grouped COUNT/AVG/MIN/MAX over the
  // largest base table; thread-local group tables merge in morsel order.
  const auto& bundle = Imdb();
  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.morsel_rows = 4096;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT ci.role, COUNT(*), AVG(ci.person_id), MIN(ci.movie_id), "
      "MAX(ci.movie_id) FROM cast_info ci GROUP BY ci.role",
      *bundle.db);
  int64_t rows = 0;
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok()) rows += static_cast<int64_t>(rs.value().num_rows());
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_MorselParallelAggregate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_MorselParallelAggregateWide(benchmark::State& state) {
  // High-cardinality grouping (one group per person): stresses the group
  // table itself rather than the scan — the workload that motivated the
  // hash-table-with-sorted-merge design over std::map's per-row log(n).
  const auto& bundle = Imdb();
  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.morsel_rows = 4096;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(
      "SELECT ci.person_id, COUNT(*), MIN(ci.movie_id), MAX(ci.movie_id) "
      "FROM cast_info ci GROUP BY ci.person_id",
      *bundle.db);
  int64_t rows = 0;
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok()) rows += static_cast<int64_t>(rs.value().num_rows());
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_MorselParallelAggregateWide)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Shared runner for the DISTINCT / ORDER BY substrate probes below: same
/// engine shape as the BM_MorselParallel* families (Arg(0) threads,
/// 4096-row morsels).
void RunMicroQuery(benchmark::State& state, const std::string& sql) {
  const auto& bundle = Imdb();
  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.morsel_rows = 4096;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(bundle.db.get());
  auto bound = sql::ParseAndBind(sql, *bundle.db);
  int64_t rows = 0;
  for (auto _ : state) {
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok()) rows += static_cast<int64_t>(rs.value().num_rows());
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(rows);
}

// ---- DISTINCT / large ORDER BY: hash-partial applicability probes. ----
//
// The open ROADMAP question after the partial-aggregation win: would the
// same per-morsel hash-partial treatment pay off for DISTINCT and large
// ORDER BY? These four families measure both sides without committing to
// new operator code: the *ViaGroupBy / *GroupedSort legs route the same
// logical work through the already-hash-partial grouped aggregation
// substrate, so the gap between each pair IS the available headroom.
// Verdict from the measurements lives in ROADMAP.md ("Open items").

void BM_DistinctDedup(benchmark::State& state) {
  // High-cardinality DISTINCT through the current dedup path.
  RunMicroQuery(state,
                "SELECT DISTINCT ci.person_id FROM cast_info ci");
}
BENCHMARK(BM_DistinctDedup)->Arg(1)->Arg(4)->UseRealTime();

void BM_DistinctViaGroupBy(benchmark::State& state) {
  // The same distinct key set produced by the hash-partial grouped
  // aggregation substrate (the COUNT(*) rides along; grouping without an
  // aggregate is not in the dialect).
  RunMicroQuery(state,
                "SELECT ci.person_id, COUNT(*) FROM cast_info ci "
                "GROUP BY ci.person_id");
}
BENCHMARK(BM_DistinctViaGroupBy)->Arg(1)->Arg(4)->UseRealTime();

void BM_OrderByLargeSort(benchmark::State& state) {
  // Full-width sort of the largest base table: the current ORDER BY path
  // materializes every row and sorts once at the end.
  RunMicroQuery(state,
                "SELECT ci.person_id, ci.movie_id FROM cast_info ci "
                "ORDER BY ci.person_id, ci.movie_id");
}
BENCHMARK(BM_OrderByLargeSort)->Arg(1)->Arg(4)->UseRealTime();

void BM_OrderByGroupedSort(benchmark::State& state) {
  // Hash-partial-then-sort: grouping first shrinks the sort input from
  // every row to one row per key — the shape a hash-partial ORDER BY
  // treatment would produce for duplicate-heavy keys.
  RunMicroQuery(state,
                "SELECT ci.person_id, COUNT(*) FROM cast_info ci "
                "GROUP BY ci.person_id ORDER BY ci.person_id");
}
BENCHMARK(BM_OrderByGroupedSort)->Arg(1)->Arg(4)->UseRealTime();

void BM_ScoreEvaluation(benchmark::State& state) {
  const auto& bundle = Imdb();
  util::Rng rng(3);
  storage::ApproximationSet subset;
  for (const std::string& name : bundle.db->TableNames()) {
    auto t = bundle.db->GetTable(name).value();
    for (size_t r : rng.SampleIndices(t->num_rows(), 100)) {
      subset.Add(name, static_cast<uint32_t>(r));
    }
  }
  subset.Seal();
  for (auto _ : state) {
    // Fresh evaluator: do not let the |q(T)| cache hide the work.
    metric::ScoreEvaluator evaluator(bundle.db.get(),
                                     metric::ScoreOptions{.frame_size = 25});
    auto score = evaluator.Score(bundle.workload, subset);
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_ScoreEvaluation);

void BM_QueryEmbedding(benchmark::State& state) {
  const auto& bundle = Imdb();
  embed::QueryEmbedder embedder(64);
  for (auto _ : state) {
    for (const auto& wq : bundle.workload.queries()) {
      benchmark::DoNotOptimize(embedder.Embed(wq.stmt));
    }
  }
}
BENCHMARK(BM_QueryEmbedding);

void BM_TupleEmbedding(benchmark::State& state) {
  const auto& bundle = Imdb();
  auto title = bundle.db->GetTable("title").value();
  embed::TupleEmbedder embedder(64);
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        embedder.EmbedRow(*title, static_cast<uint32_t>(row)));
    row = (row + 1) % title->num_rows();
  }
}
BENCHMARK(BM_TupleEmbedding);

void BM_KMeans(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<embed::Vector> points;
  for (int i = 0; i < 1000; ++i) {
    embed::Vector v(32);
    for (float& x : v) x = static_cast<float>(rng.Normal());
    points.push_back(std::move(v));
  }
  for (auto _ : state) {
    auto result = cluster::KMeans(points, 16);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeans);

void BM_KMeansSubsample(benchmark::State& state) {
  // Pre-processing's subsample shape: 15k tuple embeddings of 64
  // dimensions into 16 strata, the assignment steps split over a pool of
  // state.range(0) threads.
  util::Rng rng(7);
  std::vector<embed::Vector> points;
  for (int i = 0; i < 15000; ++i) {
    embed::Vector v(64);
    for (float& x : v) x = static_cast<float>(rng.Normal());
    points.push_back(std::move(v));
  }
  util::ThreadPool pool(static_cast<size_t>(state.range(0)));
  cluster::KMeansOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto result = cluster::KMeans(points, 16, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeansSubsample)->Arg(1)->Arg(4)->UseRealTime();

void BM_PolicyForwardBackward(benchmark::State& state) {
  // One PPO-sized actor step: state dim ~ 560, 2x128 hidden, 512 actions.
  nn::Mlp actor({560, 128, 128, 512}, nn::Activation::kTanh, 1);
  nn::Adam adam(&actor, {});
  util::Rng rng(5);
  std::vector<float> input(560);
  for (float& v : input) v = static_cast<float>(rng.UniformDouble());
  std::vector<float> grad(512, 0.001f);
  for (auto _ : state) {
    nn::Mlp::Cache cache;
    auto out = actor.Forward(input, &cache);
    benchmark::DoNotOptimize(out);
    actor.Backward(cache, grad);
    adam.Step();
  }
}
BENCHMARK(BM_PolicyForwardBackward);

void BM_PpoMinibatchUpdate(benchmark::State& state) {
  // One 64-sample PPO update at drift-finetune's shapes (actor
  // 390->128->128->379, critic 390->128->128->1) with both Adam steps; the
  // kernels split over a pool of state.range(0) threads.
  constexpr size_t kStateDim = 390;
  constexpr size_t kActions = 379;
  constexpr size_t kSamples = 64;
  rl::Policy policy = rl::Policy::Create(kStateDim, kActions, 128,
                                         /*with_critic=*/true, 1);
  nn::Adam actor_opt(policy.actor.get(), {});
  nn::Adam critic_opt(policy.critic.get(), {});
  util::Rng rng(5);
  rl::RolloutBuffer buffer;
  for (size_t s = 0; s < kSamples; ++s) {
    std::vector<float> observation(kStateDim);
    for (float& v : observation) v = rng.UniformDouble() < 0.2 ? 1.0f : 0.0f;
    std::vector<uint8_t> mask(kActions);
    for (uint8_t& m : mask) m = rng.UniformDouble() < 0.7 ? 1 : 0;
    mask[s] = 1;
    const rl::Policy::ActResult act = policy.Act(observation, mask, &rng);
    buffer.states.push_back(std::move(observation));
    buffer.masks.push_back(std::move(mask));
    buffer.actions.push_back(act.action);
    buffer.values.push_back(act.value);
    buffer.log_probs.push_back(act.log_prob);
    buffer.old_probs.push_back(act.probs);
    buffer.rewards.push_back(static_cast<float>(rng.UniformDouble()));
    buffer.dones.push_back(s % 8 == 7 ? 1 : 0);
  }
  buffer.ComputeAdvantages(0.995, 0.95);
  buffer.NormalizeAdvantages();
  std::vector<size_t> indices(kSamples);
  for (size_t s = 0; s < kSamples; ++s) indices[s] = s;
  const rl::TrainerConfig config;
  util::ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rl::UpdateMinibatch(config, &policy, &actor_opt,
                                                 &critic_opt, buffer, indices,
                                                 &pool));
  }
}
BENCHMARK(BM_PpoMinibatchUpdate)->Arg(1)->Arg(4)->UseRealTime();

/// The front-end benchmarks' fixed corpus: 64 exploration queries from
/// workloadgen::QueryGenerator over the IMDB bundle (seed 18; up to two
/// joins and three predicates, one in four an aggregate), as SQL text.
const std::vector<std::string>& SqlCorpus() {
  static const std::vector<std::string>* corpus = [] {
    const data::DatasetBundle& bundle = Imdb();
    const workloadgen::DatabaseStats stats =
        workloadgen::DatabaseStats::Collect(*bundle.db);
    const workloadgen::QueryGenerator generator(bundle.db.get(), &stats,
                                                bundle.fks);
    workloadgen::QueryGenOptions options;
    options.max_joins = 2;
    options.max_predicates = 3;
    options.agg_fraction = 0.25;
    util::Rng rng(18);
    // Leaky singleton: shared across benchmarks, freed at process exit.
    auto* sqls = new std::vector<std::string>();  // NOLINT(asqp-naked-new)
    for (size_t i = 0; i < 64; ++i) {
      sqls->push_back(generator.Generate(options, &rng).ToSql());
    }
    return sqls;
  }();
  return *corpus;
}

std::vector<sql::SelectStatement> ParsedCorpus() {
  std::vector<sql::SelectStatement> parsed;
  for (const std::string& sql : SqlCorpus()) {
    parsed.push_back(sql::Parse(sql).value());
  }
  return parsed;
}

void BM_SqlParse(benchmark::State& state) {
  const std::vector<std::string>& corpus = SqlCorpus();
  for (auto _ : state) {
    for (const std::string& sql : corpus) {
      benchmark::DoNotOptimize(sql::Parse(sql));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_SqlParse);

/// Arg 0: Bind(const SelectStatement&), which binds a deep copy. Arg 1:
/// Bind(SelectStatement&&), which binds in place (the serving path); the
/// statements it consumes are cloned with the timer paused.
void BM_SqlBind(benchmark::State& state) {
  const bool in_place = state.range(0) == 1;
  const storage::Database& db = *Imdb().db;
  const std::vector<sql::SelectStatement> parsed = ParsedCorpus();
  std::vector<sql::SelectStatement> batch;
  for (auto _ : state) {
    if (!in_place) {
      for (const sql::SelectStatement& stmt : parsed) {
        benchmark::DoNotOptimize(sql::Bind(stmt, db));
      }
      continue;
    }
    state.PauseTiming();
    batch.clear();
    for (const sql::SelectStatement& stmt : parsed) {
      batch.push_back(stmt.Clone());
    }
    state.ResumeTiming();
    for (sql::SelectStatement& stmt : batch) {
      benchmark::DoNotOptimize(sql::Bind(std::move(stmt), db));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(parsed.size()));
}
BENCHMARK(BM_SqlBind)->Arg(0)->Arg(1);

void BM_SqlFingerprint(benchmark::State& state) {
  const storage::Database& db = *Imdb().db;
  std::vector<sql::BoundQuery> bound;
  for (sql::SelectStatement& stmt : ParsedCorpus()) {
    bound.push_back(sql::Bind(std::move(stmt), db).value());
  }
  for (auto _ : state) {
    for (const sql::BoundQuery& q : bound) {
      benchmark::DoNotOptimize(sql::FingerprintQuery(q.stmt));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bound.size()));
}
BENCHMARK(BM_SqlFingerprint);

/// One cache hit as ServeEngine serves it: AnswerCache::Lookup plus the
/// copy of the hit's AnswerResult, over an answer of Arg(0) rows of a
/// title-length string and an int.
void BM_AnswerCacheHit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  exec::ResultSet::Rows rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({storage::Value("exploratory title #" + std::to_string(i)),
                    storage::Value(static_cast<int64_t>(i))});
  }
  core::AnswerResult answer;
  answer.result =
      exec::ResultSet({"title.name", "title.production_year"}, std::move(rows));
  sql::QueryFingerprint fp;
  fp.canonical = "select title.name, title.production_year from title";
  fp.hash = 0x5eed;
  serve::AnswerCache cache(64 << 20);
  cache.Insert(fp, /*generation=*/0, std::move(answer));
  for (auto _ : state) {
    std::shared_ptr<const core::AnswerResult> hit = cache.Lookup(fp, 0);
    core::AnswerResult copy = *hit;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnswerCacheHit)->Arg(16)->Arg(1024);

/// Console reporter that additionally captures every per-iteration run as
/// a BenchRecord (aggregates and errored runs are skipped).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::BenchJsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      record.params.emplace_back("bench_scale",
                                 std::to_string(bench::BenchScale()));
      const auto iters = run.iterations > 0 ? run.iterations : 1;
      record.wall_seconds =
          run.real_accumulated_time / static_cast<double>(iters);
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) record.rows_per_sec = it->second;
      writer_->Add(std::move(record));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::BenchJsonWriter* writer_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJsonWriter writer = bench::BenchJsonWriter::FromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!writer.Flush()) return 1;
  return 0;
}
