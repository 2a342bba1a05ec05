#include "setup.h"

#include <utility>

#include "aqp/learned_fallback.h"
#include "core/preprocess.h"
#include "core/trainer.h"
#include "metric/score.h"
#include "rl/trainer.h"
#include "storage/index.h"

namespace perfbench {

namespace asqp_core = asqp::core;

asqp::util::Result<Served> TrainAndServe(const asqp::storage::Database& db,
                                         const asqp::metric::Workload& train,
                                         const asqp_core::AsqpConfig& config) {
  const int64_t start = NowNs();
  const asqp_core::AsqpTrainer trainer(config);
  ASQP_ASSIGN_OR_RETURN(asqp_core::TrainReport report, trainer.Train(db, train));
  Served served;
  served.model = std::move(report.model);
  served.engine = std::make_unique<asqp::serve::ServeEngine>(
      served.model.get(), asqp::serve::ServeOptions::FromConfig(config));
  served.setup_seconds = static_cast<double>(NowNs() - start) / 1e9;
  return served;
}

asqp::util::Result<ReplicaSetup> ReplicateTrain(
    const asqp::storage::Database& db, const asqp::metric::Workload& train,
    const asqp_core::AsqpConfig& config, SpanLog* log) {
  const ScopedSpan root(log, "setup.replica", 0, 0);
  const uint64_t parent = root.id();
  ReplicaSetup out;

  uint64_t span = log->Begin("core.preprocess", parent, 0);
  asqp::util::Result<asqp_core::PreprocessResult> preprocess =
      asqp_core::Preprocess(db, train, config);
  log->End(span);
  if (!preprocess.ok()) return preprocess.status();

  asqp::rl::TrainerConfig trainer_config = config.trainer;
  trainer_config.seed ^= config.seed;
  span = log->Begin("rl.train", parent, 0);
  asqp::util::Result<asqp::rl::TrainResult> trained = asqp::rl::Train(
      asqp_core::MakeEnvFactory(&preprocess->space, config), trainer_config);
  log->End(span);
  if (!trained.ok()) return trained.status();
  out.episodes = trained->episodes_run;
  out.divergence_rollbacks = trained->divergence_rollbacks;

  span = log->Begin("plan.stats", parent, 0);
  const asqp_core::AsqpModel model(&db, config, std::move(preprocess).value(),
                                   std::move(trained->policy));
  log->End(span);

  span = log->Begin("core.materialize", parent, 0);
  out.set = model.GenerateApproximationSet(config.k);
  log->End(span);

  if (config.fallback_learned_enabled) {
    // The fit's sampling seed changes which rows are sampled, not how much
    // work the fit does.
    span = log->Begin("aqp.fit", parent, 0);
    const auto fitted = asqp::aqp::LearnedFallback::Fit(
        db, out.set, asqp::aqp::LearnedFallbackOptions{});
    log->End(span);
    if (!fitted.ok()) return fitted.status();
  }

  span = log->Begin("storage.index_build", parent, 0);
  [[maybe_unused]] const asqp::storage::IndexCatalog catalog =
      asqp::storage::IndexCatalog::Build(
          asqp::storage::DatabaseView(&db, &out.set),
          asqp::storage::AllIndexColumns(db), /*generation=*/0);
  log->End(span);

  span = log->Begin("metric.calibrate", parent, 0);
  asqp::metric::ScoreEvaluator evaluator(
      &db, asqp::metric::ScoreOptions{.frame_size = config.frame_size});
  for (const auto& rep : model.representatives().queries()) {
    (void)evaluator.QueryScore(rep.stmt, out.set);
  }
  log->End(span);
  return out;
}

}  // namespace perfbench
