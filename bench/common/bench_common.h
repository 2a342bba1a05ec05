// Shared harness for the paper-reproduction benchmarks: scale control,
// dataset construction, ASQP/baseline configuration, subset evaluation,
// and table-formatted reporting. One bench binary per paper exhibit (see
// DESIGN.md's experiment index).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "metric/score.h"
#include "metric/workload.h"
#include "storage/database.h"

namespace asqp {
namespace bench {

/// Benchmark scale, set via the ASQP_BENCH_SCALE environment variable:
/// 0 = smoke (seconds), 1 = default (minutes total), 2 = paper-shaped.
int BenchScale();

/// Knobs derived from the scale.
struct ScaledSetup {
  double data_scale = 0.08;
  size_t workload_size = 30;
  size_t k = 400;
  int frame_size = 25;
  size_t trainer_iterations = 18;
  double baseline_deadline_s = 3.0;
  size_t aggregate_queries = 60;
  uint64_t seed = 42;
};

ScaledSetup SetupForScale(int scale);

/// Build one of the named dataset bundles ("imdb", "mas", "flights") at
/// the given setup's scale.
data::DatasetBundle LoadDataset(const std::string& name,
                                const ScaledSetup& setup);

/// Default ASQP configuration matched to the setup (light = ASQP-Light).
core::AsqpConfig MakeAsqpConfig(const ScaledSetup& setup, bool light = false);

/// Execution threads used by harness setup work (FilterNonEmpty):
/// min(hardware_concurrency, 8), overridable via ASQP_BENCH_THREADS.
size_t BenchExecThreads();

/// Drop workload queries whose full-database result is empty (they score
/// 1.0 for every method and only blur the comparison) or that fail to
/// bind. Weights are re-normalized. Queries execute through the
/// morsel-parallel engine (BenchExecThreads() threads) so this setup cost
/// does not dominate bench wall-times; the kept set is identical to a
/// sequential pass (asserted in tests/parallel_exec_test.cc). An operator
/// runs in parallel only over more than one morsel; `morsel_rows` (0 =
/// the engine's default) lets a test force morsels on small tables.
metric::Workload FilterNonEmpty(const storage::Database& db,
                                const metric::Workload& workload,
                                size_t morsel_rows = 0);

/// Score + average per-query latency of answering 10 workload queries
/// over the subset.
struct SubsetEval {
  double score = 0.0;
  double query_avg_seconds = 0.0;
};
SubsetEval EvaluateSubset(const storage::Database& db,
                          const metric::Workload& workload,
                          const storage::ApproximationSet& subset,
                          int frame_size);

/// Train ASQP-RL and evaluate it on `test`; returns (eval, setup seconds).
struct AsqpRun {
  SubsetEval eval;
  double setup_seconds = 0.0;
  std::unique_ptr<core::AsqpModel> model;
};
AsqpRun RunAsqp(const data::DatasetBundle& bundle,
                const metric::Workload& train, const metric::Workload& test,
                const core::AsqpConfig& config);

/// Print a row of a fixed-width table.
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// Print a section header for one paper exhibit.
void PrintHeader(const std::string& exhibit, const std::string& description);

/// Format a double with the given precision.
std::string Fmt(double value, int precision = 3);

}  // namespace bench
}  // namespace asqp
