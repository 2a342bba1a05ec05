// The benchmark's inputs: the datasets, their train/held-out splits and
// the revisit-hot working set (fixed, built from kDataSeed), the
// drift-finetune traffic stream (drawn from the run seed), and the plain
// reference engine that checks served answers.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "metric/workload.h"
#include "sql/ast.h"
#include "util/random.h"

namespace perfbench {

/// Seed of everything a run sets up from: datasets, splits, the trained
/// model and the revisit-hot working set (the harness's default seed).
/// The run seed drives only the traffic, so runs with different seeds
/// measure the same system on different request sequences; with the data
/// seeded too, Eq. 1 alone varied by half between seeds.
inline constexpr uint64_t kDataSeed = 42;

/// The default AsqpConfig with the harness's scale-1 budget: k = 400,
/// frame size F = 25, 18 PPO iterations.
asqp::core::AsqpConfig BenchConfig();

/// The IMDB bundle at harness scale 1 (~9.3k tuples), its workload with
/// empty-result queries dropped, split 70/30 into training and held-out
/// queries.
struct ImdbInputs {
  asqp::data::DatasetBundle bundle;
  asqp::metric::Workload train;
  asqp::metric::Workload held_out;
};
ImdbInputs MakeImdbInputs();

/// The MAS bundle at harness scale 1 with the Fig. 7 interests: training
/// on `databases`, then a drift to `ml`.
struct MasInputs {
  asqp::data::DatasetBundle bundle;
  /// The `databases` cluster's training split.
  asqp::metric::Workload train;
  /// Every non-empty Fig. 7 `ml` query: the drifted session that arrives
  /// before the fine-tune.
  std::vector<std::string> drift_arrivals;
  /// The `ml` cluster's training split, handed to FineTune.
  asqp::metric::Workload drift_tune;
  /// Held-out `ml` queries for Eq. 1 after the fine-tune.
  asqp::metric::Workload held_out;
};
MasInputs MakeMasInputs();

/// Drop queries that fail to bind or return no rows on the full database,
/// re-normalizing weights (the harness's FilterNonEmpty, sequentially).
asqp::metric::Workload FilterNonEmpty(const asqp::storage::Database& db,
                                      const asqp::metric::Workload& workload);

/// One revisit-hot working-set entry: the base query's SQL followed by
/// spellings that canonicalize to the same fingerprint.
struct HotQuery {
  std::vector<std::string> spellings;
};

/// Equivalent respellings of a generated query: renamed table aliases,
/// reordered conjuncts, flipped comparisons, BETWEEN written as paired
/// inequalities, and all of them at once.
std::vector<asqp::sql::SelectStatement> SpellingVariants(
    const asqp::sql::SelectStatement& base);

/// revisit-hot working set, in popularity order: `count` distinct
/// generator queries whose full-database answer has 1 to kMaxHotRows rows
/// (so the whole set fits the answer cache many times over), each with its
/// SpellingVariants.
inline constexpr size_t kMaxHotRows = 1000;
inline constexpr size_t kHotSetSize = 64;
std::vector<HotQuery> MakeHotSet(const asqp::data::DatasetBundle& bundle,
                                 size_t count);

/// One `ml`-interest query from the Fig. 7 templates with seeded
/// constants.
std::string NextMlQuery(asqp::util::Rng* rng);

/// drift-finetune traffic: NextMlQuery draws, never repeating a SQL text.
class MlStream {
 public:
  explicit MlStream(uint64_t seed);
  std::string Next();

 private:
  asqp::util::Rng rng_;
  /// Hashes of the SQL already sent (the harness's own memory counts in
  /// peak_rss_mb, so it keeps 8 bytes per request, not the text).
  std::unordered_set<uint64_t> seen_;
};

/// The answer check's reference: planner off, no index catalog, one
/// thread.
asqp::exec::QueryEngine ReferenceEngine();

/// Byte equality per the differential fuzzer's contract: column names, row
/// count and every serialized row, in order. On a mismatch `why` says
/// where.
bool SameBytes(const asqp::exec::ResultSet& want,
               const asqp::exec::ResultSet& got, std::string* why);

}  // namespace perfbench
