// Algorithm 1: end-to-end ASQP-RL training. Pre-process the database and
// workload into an action space, train the configured agent in the
// configured environment, and wrap the result in an AsqpModel.
#pragma once

#include "core/config.h"
#include "core/model.h"
#include "metric/workload.h"
#include "storage/database.h"
#include "util/status.h"
#include "workloadgen/generator.h"

namespace asqp {
namespace core {

struct TrainReport {
  std::unique_ptr<AsqpModel> model;
  /// Training curve (mean end-of-episode score per iteration).
  std::vector<double> iteration_scores;
  double setup_seconds = 0.0;
  /// The parts of setup_seconds that rl::Train spent collecting rollouts
  /// and updating the networks (rl::TrainResult).
  double collect_seconds = 0.0;
  double update_seconds = 0.0;
  size_t episodes = 0;
};

class AsqpTrainer {
 public:
  explicit AsqpTrainer(AsqpConfig config) : config_(std::move(config)) {}

  /// Train on a known workload. `db` must outlive the returned model.
  [[nodiscard]] util::Result<TrainReport> Train(const storage::Database& db,
                                  const metric::Workload& workload) const;

  /// Unknown-workload mode (Section 4.5): generate a statistics-driven
  /// workload of `generated_queries` queries over the FK graph and train
  /// on it (optionally merged with whatever user queries exist so far).
  [[nodiscard]] util::Result<TrainReport> TrainWithoutWorkload(
      const storage::Database& db,
      const std::vector<workloadgen::FkEdge>& fks, size_t generated_queries,
      const metric::Workload* user_queries = nullptr) const;

  const AsqpConfig& config() const { return config_; }

 private:
  AsqpConfig config_;
};

/// Helper shared by AsqpTrainer and AsqpModel::FineTune: build an env
/// factory over `space` for the configured environment kind.
rl::EnvFactory MakeEnvFactory(const rl::ActionSpace* space,
                              const AsqpConfig& config);

}  // namespace core
}  // namespace asqp
