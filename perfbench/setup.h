// Set-up: train a model and put a ServeEngine in front of it (what
// setup_s times), and the traced replica of AsqpTrainer::Train built from
// its public steps.
#pragma once

#include <memory>

#include "core/config.h"
#include "core/model.h"
#include "metric/workload.h"
#include "serve/serve_engine.h"
#include "storage/database.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// A trained model behind its serving engine. The engine is declared last
/// so it is destroyed first: it detaches itself from the model.
struct Served {
  std::unique_ptr<asqp::core::AsqpModel> model;
  std::unique_ptr<asqp::serve::ServeEngine> engine;
  /// Wall time of AsqpTrainer::Train plus ServeEngine construction.
  double setup_seconds = 0.0;
};

/// AsqpTrainer::Train on `train`, then a ServeEngine with
/// ServeOptions::FromConfig.
asqp::util::Result<Served> TrainAndServe(const asqp::storage::Database& db,
                                         const asqp::metric::Workload& train,
                                         const asqp::core::AsqpConfig& config);

/// What the traced replica of AsqpTrainer::Train produced.
struct ReplicaSetup {
  asqp::storage::ApproximationSet set;
  size_t episodes = 0;
  size_t divergence_rollbacks = 0;
};

/// Replay AsqpTrainer::Train from its public steps, one span each, under a
/// `setup.replica` span: core::Preprocess; rl::Train with MakeEnvFactory
/// and the trainer seed xor config.seed; the AsqpModel constructor (whose
/// cost is plan::StatsCatalog::Collect); GenerateApproximationSet;
/// LearnedFallback::Fit; IndexCatalog::Build; and calibration
/// (ScoreEvaluator::QueryScore over the representatives).
asqp::util::Result<ReplicaSetup> ReplicateTrain(
    const asqp::storage::Database& db, const asqp::metric::Workload& train,
    const asqp::core::AsqpConfig& config, SpanLog* log);

}  // namespace perfbench
