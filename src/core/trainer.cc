#include "core/trainer.h"

#include "util/stopwatch.h"
#include "workloadgen/generator.h"

namespace asqp {
namespace core {

rl::EnvFactory MakeEnvFactory(const rl::ActionSpace* space,
                              const AsqpConfig& config) {
  const EnvKind kind = config.env;
  const size_t batch = config.batch_queries;
  const size_t drp_horizon = config.drp_horizon;
  const size_t refine = config.hybrid_refine_horizon;
  return [space, kind, batch, drp_horizon, refine]() -> std::unique_ptr<rl::Env> {
    switch (kind) {
      case EnvKind::kGsl:
        return std::make_unique<rl::GslEnv>(space, batch);
      case EnvKind::kDrp:
        return std::make_unique<rl::DrpEnv>(space, batch, drp_horizon);
      case EnvKind::kHybrid:
        return std::make_unique<rl::HybridEnv>(space, batch, refine);
    }
    return nullptr;
  };
}

util::Result<TrainReport> AsqpTrainer::Train(
    const storage::Database& db, const metric::Workload& workload) const {
  util::Stopwatch watch;
  ASQP_ASSIGN_OR_RETURN(PreprocessResult preprocess,
                        Preprocess(db, workload, config_));
  rl::TrainerConfig trainer_config = config_.trainer;
  trainer_config.seed ^= config_.seed;
  ASQP_ASSIGN_OR_RETURN(
      rl::TrainResult trained,
      rl::Train(MakeEnvFactory(&preprocess.space, config_), trainer_config));

  auto model = std::make_unique<AsqpModel>(&db, config_, std::move(preprocess),
                                           std::move(trained.policy));
  model->MaterializeSet();

  TrainReport report;
  report.iteration_scores = std::move(trained.iteration_scores);
  report.episodes = trained.episodes_run;
  report.collect_seconds = trained.collect_seconds;
  report.update_seconds = trained.update_seconds;
  report.model = std::move(model);
  report.setup_seconds = watch.ElapsedSeconds();
  return report;
}

util::Result<TrainReport> AsqpTrainer::TrainWithoutWorkload(
    const storage::Database& db, const std::vector<workloadgen::FkEdge>& fks,
    size_t generated_queries, const metric::Workload* user_queries) const {
  const workloadgen::DatabaseStats stats =
      workloadgen::DatabaseStats::Collect(db);
  const workloadgen::QueryGenerator generator(&db, &stats, fks);
  workloadgen::QueryGenOptions options;
  options.max_joins = 1;
  metric::Workload workload =
      generator.GenerateWorkload(generated_queries, options, config_.seed);
  if (user_queries != nullptr) {
    // User-contributed queries carry extra weight: they are evidence of
    // actual interest, whereas generated queries only cover the space.
    for (const metric::WeightedQuery& q : user_queries->queries()) {
      workload.Add(q.stmt.Clone(), 3.0 * q.weight * generated_queries);
    }
  }
  workload.NormalizeWeights();
  return Train(db, workload);
}

}  // namespace core
}  // namespace asqp
