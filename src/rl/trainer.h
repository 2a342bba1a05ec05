// RL trainers (Section 5): PPO actor-critic (the full ASQP-RL agent), A2C
// (the "-ppo" ablation: actor-critic without the proximal clipped
// surrogate / KL penalty), and REINFORCE (the "-ppo -ac" ablation: no
// critic at all). Rollouts are collected by parallel workers, each holding
// a snapshot of the current policy — the paper's asynchronous
// actor-learner architecture, scaled to the local machine.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rl/env.h"
#include "rl/policy.h"
#include "rl/rollout.h"
#include "util/status.h"

namespace asqp {
namespace util {
class ThreadPool;
}  // namespace util

namespace rl {

enum class Algorithm {
  kPpo,        // clipped surrogate + KL penalty + critic (full agent)
  kA2c,        // critic, no clipping / KL ("- ppo")
  kReinforce,  // no critic ("- ppo - ac")
};

const char* AlgorithmName(Algorithm a);

struct TrainerConfig {
  Algorithm algorithm = Algorithm::kPpo;

  size_t iterations = 40;
  size_t episodes_per_iteration = 8;  // split across workers
  size_t num_workers = 4;             // parallel actor-learners
  size_t max_episode_steps = 512;

  // Optimization.
  double learning_rate = 5e-4;
  size_t update_epochs = 4;     // PPO epochs per iteration (1 for A2C/RF)
  size_t minibatch_size = 64;
  double gamma = 0.995;
  double gae_lambda = 0.95;
  double clip_eps = 0.2;        // PPO clip range
  double kl_coef = 0.2;         // paper default
  double entropy_coef = 0.001;  // paper default
  double max_grad_norm = 1.0;
  size_t hidden_dim = 128;

  /// Terminal-reward bonus proportional to the fraction of distinct base
  /// tuples in the selection (the Section 5.1 diversity regularizer).
  double diversity_coef = 0.0;

  /// Early stopping: stop when the best full score has not improved by
  /// `early_stop_min_delta` for `early_stop_patience` iterations
  /// (0 = disabled).
  size_t early_stop_patience = 0;
  double early_stop_min_delta = 1e-3;

  uint64_t seed = 1;

  // ---- Resilience (divergence recovery + checkpoint/resume).

  /// When an update produces non-finite losses, gradients, or weights, the
  /// trainer rolls back to the last good iteration snapshot, multiplies
  /// the learning rate by `divergence_lr_backoff`, and retries — up to
  /// `max_divergence_retries` rollbacks before Train returns
  /// kExecutionError instead of a garbage policy.
  size_t max_divergence_retries = 3;
  double divergence_lr_backoff = 0.5;

  /// Periodic checkpointing: every `checkpoint_interval` iterations the
  /// full training state (policy + Adam moments + RNG + counters) is
  /// written to `checkpoint_path` (empty = disabled). With
  /// `resume_from_checkpoint`, Train first loads `checkpoint_path` (if it
  /// exists) and continues from the stored iteration; an interrupted run
  /// resumed this way reproduces the uninterrupted run bit-for-bit.
  std::string checkpoint_path;
  size_t checkpoint_interval = 1;
  bool resume_from_checkpoint = false;
};

/// \brief Everything needed to resume (or roll back) training
/// deterministically: policy weights, optimizer moments, the main RNG
/// stream, and all loop counters including early-stopping state.
struct TrainCheckpoint {
  Policy policy;
  nn::Adam::State actor_opt;
  nn::Adam::State critic_opt;  // empty when the algorithm has no critic
  util::Rng::State rng;
  double learning_rate = 0.0;
  size_t next_iteration = 0;
  size_t episode_counter = 0;
  std::vector<double> iteration_scores;
  double best_score = 0.0;
  size_t episodes_run = 0;
  double early_stop_best = -1.0;
  size_t early_stop_since_best = 0;
  size_t divergence_rollbacks = 0;
};

struct TrainResult {
  Policy policy;
  /// Mean end-of-episode full score per iteration (training curve).
  std::vector<double> iteration_scores;
  double best_score = 0.0;
  size_t episodes_run = 0;
  size_t iterations_run = 0;
  /// Times a diverged update was rolled back to the last good snapshot.
  size_t divergence_rollbacks = 0;
  /// Learning rate after any divergence backoff.
  double final_learning_rate = 0.0;
  /// True when training continued from an on-disk checkpoint.
  bool resumed = false;
  /// Wall time of this call spent collecting rollouts, and spent on
  /// advantage estimation plus the minibatch updates. Rolled-back
  /// iterations count too.
  double collect_seconds = 0.0;
  double update_seconds = 0.0;
};

/// Loss statistics of one minibatch update.
struct UpdateStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
};

/// One gradient step over the transitions `indices` of `buffer`, whose
/// advantages and returns are filled in: minibatch forward and backward
/// passes through the actor (and the critic, unless REINFORCE), then the
/// Adam steps. The nn kernels split over `pool` when it is non-null; the
/// updated weights do not depend on its size.
UpdateStats UpdateMinibatch(const TrainerConfig& config, Policy* policy,
                            nn::Adam* actor_opt, nn::Adam* critic_opt,
                            const RolloutBuffer& buffer,
                            const std::vector<size_t>& indices,
                            util::ThreadPool* pool);

/// Train a policy over environments produced by `factory`. All
/// environments must share action_count / state_dim.
[[nodiscard]] util::Result<TrainResult> Train(const EnvFactory& factory,
                                const TrainerConfig& config);

/// Roll out `policy` once (greedy or sampled) and return the selected
/// actions of the final state. Used at inference (Algorithm 2).
std::vector<size_t> RunPolicy(Env* env, const Policy& policy, uint64_t seed,
                              bool greedy, size_t max_steps = 4096);

}  // namespace rl
}  // namespace asqp
