#include "common/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sql/binder.h"
#include "util/stopwatch.h"

namespace asqp {
namespace bench {

int BenchScale() {
  const char* env = std::getenv("ASQP_BENCH_SCALE");
  if (env == nullptr) return 1;
  const int scale = std::atoi(env);
  if (scale < 0) return 0;
  if (scale > 2) return 2;
  return scale;
}

ScaledSetup SetupForScale(int scale) {
  ScaledSetup setup;
  switch (scale) {
    case 0:
      setup.data_scale = 0.02;
      setup.workload_size = 12;
      setup.k = 150;
      setup.frame_size = 25;
      setup.trainer_iterations = 6;
      setup.baseline_deadline_s = 1.0;
      setup.aggregate_queries = 30;
      break;
    case 2:
      setup.data_scale = 0.5;
      setup.workload_size = 60;
      setup.k = 1000;
      setup.frame_size = 50;
      setup.trainer_iterations = 40;
      setup.baseline_deadline_s = 20.0;
      setup.aggregate_queries = 200;
      break;
    default:
      break;  // scale 1 == struct defaults
  }
  return setup;
}

data::DatasetBundle LoadDataset(const std::string& name,
                                const ScaledSetup& setup) {
  data::DatasetOptions options;
  options.scale = setup.data_scale;
  options.workload_size = setup.workload_size;
  options.seed = setup.seed;
  if (name == "imdb") return data::MakeImdbJob(options);
  if (name == "mas") {
    // MAS's base sizes are ~3x smaller than IMDB's; scale up so the
    // budget-to-data ratio (what separates the selection strategies)
    // stays comparable across datasets.
    options.scale = setup.data_scale * 2.5;
    return data::MakeMas(options);
  }
  return data::MakeFlights(options);
}

core::AsqpConfig MakeAsqpConfig(const ScaledSetup& setup, bool light) {
  core::AsqpConfig config = light ? core::AsqpConfig::Light()
                                  : core::AsqpConfig{};
  config.k = setup.k;
  config.frame_size = setup.frame_size;
  config.trainer.iterations =
      light ? std::max<size_t>(4, setup.trainer_iterations / 2)
            : setup.trainer_iterations;
  config.trainer.num_workers = 2;
  config.trainer.learning_rate =
      light ? 5e-3 : 2e-3;  // scaled runs are short; see Fig. 11 sweep
  config.seed = setup.seed;
  return config;
}

size_t BenchExecThreads() {
  const char* env = std::getenv("ASQP_BENCH_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(hw == 0 ? 1 : hw, 8);
}

metric::Workload FilterNonEmpty(const storage::Database& db,
                                const metric::Workload& workload,
                                size_t morsel_rows) {
  // Harness setup used to re-execute every workload query sequentially in
  // each bench binary; it now runs through the morsel-parallel engine so
  // bench wall-times measure the system under test, not the harness.
  exec::ExecOptions options;
  options.num_threads = BenchExecThreads();
  if (morsel_rows > 0) options.morsel_rows = morsel_rows;
  exec::QueryEngine engine(options);
  storage::DatabaseView view(&db);
  metric::Workload out;
  for (const auto& wq : workload.queries()) {
    auto bound = sql::Bind(wq.stmt, db);
    if (!bound.ok()) continue;
    auto rs = engine.Execute(bound.value(), view);
    if (rs.ok() && rs.value().num_rows() > 0) {
      out.Add(wq.stmt.Clone(), wq.weight);
    }
  }
  out.NormalizeWeights();
  return out;
}

SubsetEval EvaluateSubset(const storage::Database& db,
                          const metric::Workload& workload,
                          const storage::ApproximationSet& subset,
                          int frame_size) {
  SubsetEval eval;
  metric::ScoreEvaluator evaluator(&db,
                                   metric::ScoreOptions{.frame_size = frame_size});
  eval.score = evaluator.Score(workload, subset).ValueOr(0.0);

  // QueryAvg: mean latency of 10 workload queries over the subset.
  exec::QueryEngine engine;
  storage::DatabaseView view(&db, &subset);
  util::Stopwatch watch;
  size_t executed = 0;
  for (size_t i = 0; i < workload.size() && executed < 10; ++i) {
    auto bound = sql::Bind(workload.query(i).stmt, db);
    if (!bound.ok()) continue;
    if (engine.Execute(bound.value(), view).ok()) ++executed;
  }
  eval.query_avg_seconds =
      executed == 0 ? 0.0 : watch.ElapsedSeconds() / static_cast<double>(executed);
  return eval;
}

AsqpRun RunAsqp(const data::DatasetBundle& bundle,
                const metric::Workload& train, const metric::Workload& test,
                const core::AsqpConfig& config) {
  AsqpRun run;
  core::AsqpTrainer trainer(config);
  auto report = trainer.Train(*bundle.db, train);
  if (!report.ok()) {
    std::fprintf(stderr, "ASQP training failed: %s\n",
                 report.status().ToString().c_str());
    return run;
  }
  run.setup_seconds = report->setup_seconds;
  run.eval = EvaluateSubset(*bundle.db, test,
                            report->model->approximation_set(),
                            config.frame_size);
  run.model = std::move(report->model);
  return run;
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-*s", width, cells[i].c_str());
    line += buf;
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

void PrintHeader(const std::string& exhibit, const std::string& description) {
  std::printf("\n=== %s ===\n%s\n(scale=%d; set ASQP_BENCH_SCALE=0|1|2)\n\n",
              exhibit.c_str(), description.c_str(), BenchScale());
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace bench
}  // namespace asqp
