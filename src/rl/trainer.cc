#include "rl/trainer.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "io/io.h"
#include "nn/mlp.h"
#include "rl/rollout.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace asqp {
namespace rl {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kPpo: return "ppo";
    case Algorithm::kA2c: return "a2c";
    case Algorithm::kReinforce: return "reinforce";
  }
  return "?";
}

namespace {

/// Rough multiply-add equivalents, per action, of one sample's softmax,
/// logs and dL/dlogits (for util::ForEachRange's serial threshold).
constexpr size_t kLossWork = 16;

/// Collect one episode into `buffer` using `policy` (sampling).
/// Returns the episode's final full score.
double CollectEpisode(Env* env, const Policy& policy, size_t episode_index,
                      size_t max_steps, double diversity_coef,
                      util::Rng* rng, RolloutBuffer* buffer) {
  const ActionSpace* space_for_diversity =
      diversity_coef > 0.0 ? env->space() : nullptr;
  env->Reset(episode_index, rng);
  size_t steps = 0;
  while (steps < max_steps) {
    // Dead-end guard: no valid action.
    bool any_valid = false;
    for (uint8_t m : env->action_mask()) {
      if (m) {
        any_valid = true;
        break;
      }
    }
    if (!any_valid) break;

    const Policy::ActResult act = policy.Act(env->state(), env->action_mask(), rng);
    buffer->states.push_back(env->state());
    buffer->masks.push_back(env->action_mask());
    buffer->actions.push_back(act.action);
    buffer->values.push_back(act.value);
    buffer->log_probs.push_back(act.log_prob);
    buffer->old_probs.push_back(act.probs);

    const StepResult step = env->Step(act.action);
    double reward = step.reward;
    ++steps;
    const bool done = step.done || steps >= max_steps;
    if (done && diversity_coef > 0.0 && space_for_diversity != nullptr) {
      // Diversity regularizer: distinct base tuples / total budget.
      const storage::ApproximationSet set =
          space_for_diversity->Materialize(env->SelectedActions());
      const double frac =
          space_for_diversity->budget == 0
              ? 0.0
              : static_cast<double>(set.TotalTuples()) /
                    static_cast<double>(space_for_diversity->budget);
      reward += diversity_coef * frac;
    }
    buffer->rewards.push_back(static_cast<float>(reward));
    buffer->dones.push_back(done ? 1 : 0);
    if (step.done) break;
  }
  if (!buffer->dones.empty()) buffer->dones.back() = 1;
  return env->FullScore();
}

}  // namespace

UpdateStats UpdateMinibatch(const TrainerConfig& config, Policy* policy,
                            nn::Adam* actor_opt, nn::Adam* critic_opt,
                            const RolloutBuffer& buffer,
                            const std::vector<size_t>& indices,
                            util::ThreadPool* pool) {
  UpdateStats stats;
  const bool use_clip = config.algorithm == Algorithm::kPpo;
  const bool use_critic = config.algorithm != Algorithm::kReinforce;
  const size_t n = indices.size();
  const float inv_n = 1.0f / static_cast<float>(n);
  const size_t state_dim = policy->actor->input_dim();
  const size_t num_actions = policy->actor->output_dim();

  std::vector<float> states(n * state_dim);
  for (size_t s = 0; s < n; ++s) {
    const std::vector<float>& state = buffer.states[indices[s]];
    std::copy(state.begin(), state.end(), states.begin() + s * state_dim);
  }

  // Actor forward, then each sample's loss terms and dL/dlogits. A sample
  // has one owner thread; its loss terms are summed below in sample order.
  nn::Mlp::Cache actor_cache;
  const std::vector<float> logits =
      policy->actor->Forward(states, &actor_cache, pool);
  std::vector<float> dlogits(n * num_actions, 0.0f);
  std::vector<float> policy_terms(n);
  std::vector<float> entropy_terms(n);
  const auto loss_step = [&](size_t begin, size_t end) {
    std::vector<float> log_probs;
    for (size_t s = begin; s < end; ++s) {
      const size_t idx = indices[s];
      const std::vector<uint8_t>& mask = buffer.masks[idx];
      const size_t action = buffer.actions[idx];
      const float advantage = buffer.advantages[idx];
      const float old_log_prob = buffer.log_probs[idx];

      const std::vector<float> probs = nn::MaskedSoftmax(
          std::vector<float>(logits.begin() + s * num_actions,
                             logits.begin() + (s + 1) * num_actions),
          mask);
      const float p_a = std::max(probs[action], 1e-12f);
      const float log_prob = std::log(p_a);
      const float entropy = nn::EntropyAndLogs(probs, &log_probs);
      entropy_terms[s] = entropy * inv_n;

      // Policy-gradient coefficient g: dL/dlogp(a).
      float g = 0.0f;
      if (use_clip) {
        const float ratio = std::exp(log_prob - old_log_prob);
        const float lo = 1.0f - static_cast<float>(config.clip_eps);
        const float hi = 1.0f + static_cast<float>(config.clip_eps);
        const float unclipped = ratio * advantage;
        const float clipped = std::clamp(ratio, lo, hi) * advantage;
        // d(-min)/dlogp: zero when the clipped branch is active & binding.
        if (unclipped <= clipped) {
          g = -unclipped;  // d(ratio*A)/dlogp = ratio*A
        } else if (ratio >= lo && ratio <= hi) {
          g = -ratio * advantage;
        } else {
          g = 0.0f;
        }
        policy_terms[s] = -std::min(unclipped, clipped) * inv_n;
      } else {
        g = -advantage;  // vanilla policy gradient
        policy_terms[s] = -log_prob * advantage * inv_n;
      }

      // dL/dlogit_i = g * (delta_ia - p_i)
      //             - entropy_coef * dH/dlogit_i
      //             + kl_coef * (p_i - p_old_i)        (PPO only).
      float* dlogits_s = &dlogits[s * num_actions];
      for (size_t i = 0; i < num_actions; ++i) {
        if (!mask[i]) continue;
        const float p_i = probs[i];
        float d = g * ((i == action ? 1.0f : 0.0f) - p_i);
        if (config.entropy_coef > 0.0 && p_i > 1e-12f) {
          // dH/dz_i = -p_i (log p_i + H); loss has -entropy_coef * H.
          d += static_cast<float>(config.entropy_coef) * p_i *
               (log_probs[i] + entropy);
        }
        if (use_clip && config.kl_coef > 0.0) {
          d += static_cast<float>(config.kl_coef) *
               (p_i - buffer.old_probs[idx][i]);
        }
        dlogits_s[i] = d * inv_n;
      }
    }
  };
  util::ForEachRange(pool, n, n * num_actions * kLossWork, loss_step);
  for (size_t s = 0; s < n; ++s) {
    stats.policy_loss += policy_terms[s];
    stats.entropy += entropy_terms[s];
  }
  policy->actor->Backward(actor_cache, dlogits, pool);

  // Critic update toward the empirical return.
  if (use_critic) {
    nn::Mlp::Cache critic_cache;
    const std::vector<float> values =
        policy->critic->Forward(states, &critic_cache, pool);
    std::vector<float> dvalues(n);
    for (size_t s = 0; s < n; ++s) {
      const float err = values[s] - buffer.returns[indices[s]];
      stats.value_loss += 0.5f * err * err * inv_n;
      dvalues[s] = err * inv_n;
    }
    policy->critic->Backward(critic_cache, dvalues, pool);
  }
  actor_opt->Step(pool);
  if (use_critic && critic_opt != nullptr) critic_opt->Step(pool);
  return stats;
}

namespace {

/// True when the policy's weights or the aggregated update statistics
/// contain NaN/Inf — the signal that this iteration's update diverged.
bool UpdateDiverged(const Policy& policy, const UpdateStats& stats,
                    double iter_score) {
  if (!std::isfinite(stats.policy_loss) || !std::isfinite(stats.value_loss) ||
      !std::isfinite(stats.entropy) || !std::isfinite(iter_score)) {
    return true;
  }
  if (policy.actor != nullptr && policy.actor->HasNonFiniteParameters()) {
    return true;
  }
  if (policy.critic != nullptr && policy.critic->HasNonFiniteParameters()) {
    return true;
  }
  return false;
}

/// Mutable training state outside TrainResult that a checkpoint must
/// capture for a deterministic resume.
struct LoopState {
  util::Rng* rng = nullptr;
  size_t episode_counter = 0;
  double early_stop_best = -1.0;
  size_t early_stop_since_best = 0;
  double learning_rate = 0.0;
  size_t rollbacks = 0;
  size_t next_iteration = 0;
};

TrainCheckpoint Snapshot(const TrainResult& result, const nn::Adam& actor_opt,
                         const nn::Adam* critic_opt, const LoopState& loop) {
  TrainCheckpoint ckpt;
  ckpt.policy = result.policy.Clone();
  ckpt.actor_opt = actor_opt.GetState();
  if (critic_opt != nullptr) ckpt.critic_opt = critic_opt->GetState();
  ckpt.rng = loop.rng->GetState();
  ckpt.learning_rate = loop.learning_rate;
  ckpt.next_iteration = loop.next_iteration;
  ckpt.episode_counter = loop.episode_counter;
  ckpt.iteration_scores = result.iteration_scores;
  ckpt.best_score = result.best_score;
  ckpt.episodes_run = result.episodes_run;
  ckpt.early_stop_best = loop.early_stop_best;
  ckpt.early_stop_since_best = loop.early_stop_since_best;
  ckpt.divergence_rollbacks = loop.rollbacks;
  return ckpt;
}

/// Restore a snapshot *in place*: the optimizers keep their raw pointers
/// into `result->policy`'s networks, so weights are copied rather than the
/// Policy objects swapped.
util::Status ApplyCheckpoint(const TrainCheckpoint& ckpt, TrainResult* result,
                             nn::Adam* actor_opt, nn::Adam* critic_opt,
                             LoopState* loop) {
  if (ckpt.policy.actor == nullptr ||
      ckpt.policy.actor->Dims() != result->policy.actor->Dims()) {
    return util::Status::InvalidArgument(
        "checkpoint actor shape does not match this training run");
  }
  if ((ckpt.policy.critic != nullptr) != (result->policy.critic != nullptr)) {
    return util::Status::InvalidArgument(
        "checkpoint critic presence does not match the algorithm");
  }
  if (ckpt.policy.critic != nullptr &&
      ckpt.policy.critic->Dims() != result->policy.critic->Dims()) {
    return util::Status::InvalidArgument(
        "checkpoint critic shape does not match this training run");
  }
  result->policy.actor->CopyWeightsFrom(*ckpt.policy.actor);
  if (result->policy.critic != nullptr) {
    result->policy.critic->CopyWeightsFrom(*ckpt.policy.critic);
  }
  if (!actor_opt->SetState(ckpt.actor_opt)) {
    return util::Status::InvalidArgument(
        "checkpoint actor optimizer state has the wrong size");
  }
  if (critic_opt != nullptr && !critic_opt->SetState(ckpt.critic_opt)) {
    return util::Status::InvalidArgument(
        "checkpoint critic optimizer state has the wrong size");
  }
  actor_opt->set_lr(ckpt.learning_rate);
  if (critic_opt != nullptr) critic_opt->set_lr(ckpt.learning_rate);
  loop->rng->SetState(ckpt.rng);
  loop->learning_rate = ckpt.learning_rate;
  loop->next_iteration = ckpt.next_iteration;
  loop->episode_counter = ckpt.episode_counter;
  loop->early_stop_best = ckpt.early_stop_best;
  loop->early_stop_since_best = ckpt.early_stop_since_best;
  loop->rollbacks = ckpt.divergence_rollbacks;
  result->iteration_scores = ckpt.iteration_scores;
  result->best_score = ckpt.best_score;
  result->episodes_run = ckpt.episodes_run;
  result->iterations_run = ckpt.next_iteration;
  return util::Status::OK();
}

}  // namespace

std::vector<size_t> RunPolicy(Env* env, const Policy& policy, uint64_t seed,
                              bool greedy, size_t max_steps) {
  util::Rng rng(seed);
  env->Reset(/*episode_index=*/0, &rng);
  for (size_t step = 0; step < max_steps; ++step) {
    bool any_valid = false;
    for (uint8_t m : env->action_mask()) {
      if (m) {
        any_valid = true;
        break;
      }
    }
    if (!any_valid) break;
    const Policy::ActResult act =
        policy.Act(env->state(), env->action_mask(), &rng, greedy);
    if (env->Step(act.action).done) break;
  }
  return env->SelectedActions();
}

util::Result<TrainResult> Train(const EnvFactory& factory,
                                const TrainerConfig& config) {
  // Probe one environment for dimensions.
  std::unique_ptr<Env> probe = factory();
  if (probe == nullptr) {
    return util::Status::InvalidArgument("env factory returned null");
  }
  if (probe->action_count() == 0) {
    return util::Status::InvalidArgument("environment has no actions");
  }
  if (config.minibatch_size == 0) {
    return util::Status::InvalidArgument("minibatch_size must be positive");
  }

  TrainResult result;
  result.policy = Policy::Create(
      probe->state_dim(), probe->action_count(), config.hidden_dim,
      /*with_critic=*/config.algorithm != Algorithm::kReinforce, config.seed);

  nn::Adam::Options opt_options;
  opt_options.lr = config.learning_rate;
  opt_options.max_grad_norm = config.max_grad_norm;
  nn::Adam actor_opt(result.policy.actor.get(), opt_options);
  std::unique_ptr<nn::Adam> critic_opt;
  if (result.policy.critic) {
    critic_opt =
        std::make_unique<nn::Adam>(result.policy.critic.get(), opt_options);
  }

  // Parallel actor-learners: one env per worker.
  const size_t num_workers = std::max<size_t>(1, config.num_workers);
  std::vector<std::unique_ptr<Env>> envs;
  envs.push_back(std::move(probe));
  for (size_t w = 1; w < num_workers; ++w) envs.push_back(factory());
  util::ThreadPool pool(num_workers);

  util::Rng main_rng(config.seed);
  LoopState loop;
  loop.rng = &main_rng;
  loop.learning_rate = config.learning_rate;

  // Resume an interrupted run: restore the full training state from disk.
  if (config.resume_from_checkpoint && !config.checkpoint_path.empty()) {
    util::Result<TrainCheckpoint> loaded =
        io::LoadCheckpoint(config.checkpoint_path);
    if (loaded.ok()) {
      ASQP_RETURN_NOT_OK(ApplyCheckpoint(loaded.value(), &result, &actor_opt,
                                         critic_opt.get(), &loop));
      result.resumed = true;
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      // A missing checkpoint means a fresh run; a corrupt one is an error.
      return loaded.status();
    }
  }

  // Last known-good iteration snapshot, the rollback target when an
  // update diverges.
  TrainCheckpoint last_good = Snapshot(result, actor_opt, critic_opt.get(),
                                       loop);

  size_t iter = loop.next_iteration;
  while (iter < config.iterations) {
    // --- Collection phase: workers roll out snapshots of the policy.
    util::Stopwatch phase;
    const Policy snapshot = result.policy.Clone();
    std::vector<RolloutBuffer> worker_buffers(num_workers);
    std::vector<double> worker_scores(num_workers, 0.0);
    std::vector<size_t> worker_episodes(num_workers, 0);

    const size_t episodes =
        std::max<size_t>(1, config.episodes_per_iteration);
    std::vector<uint64_t> worker_seeds(num_workers);
    for (size_t w = 0; w < num_workers; ++w) worker_seeds[w] = main_rng.Next();

    pool.ParallelFor(num_workers, [&](size_t w) {
      util::Rng rng(worker_seeds[w]);
      // Worker w handles episodes w, w+W, w+2W, ...
      for (size_t e = w; e < episodes; e += num_workers) {
        const double score = CollectEpisode(
            envs[w].get(), snapshot, loop.episode_counter + e,
            config.max_episode_steps, config.diversity_coef, &rng,
            &worker_buffers[w]);
        worker_scores[w] += score;
        ++worker_episodes[w];
      }
    });
    loop.episode_counter += episodes;

    RolloutBuffer buffer;
    double iter_score = 0.0;
    size_t iter_episodes = 0;
    for (size_t w = 0; w < num_workers; ++w) {
      buffer.Append(std::move(worker_buffers[w]));
      iter_score += worker_scores[w];
      iter_episodes += worker_episodes[w];
    }
    if (buffer.size() == 0) {
      return util::Status::ExecutionError(
          "rollout collection produced no transitions");
    }
    iter_score /= static_cast<double>(std::max<size_t>(1, iter_episodes));
    result.collect_seconds += phase.ElapsedSeconds();
    phase.Restart();

    // --- Advantage estimation.
    if (config.algorithm == Algorithm::kReinforce) {
      buffer.ComputeReturnsToGo(config.gamma);
    } else {
      buffer.ComputeAdvantages(config.gamma, config.gae_lambda);
    }
    buffer.NormalizeAdvantages();

    // --- Update phase.
    const size_t epochs =
        config.algorithm == Algorithm::kPpo ? config.update_epochs : 1;
    std::vector<size_t> order(buffer.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    UpdateStats iter_stats;
    for (size_t epoch = 0; epoch < epochs; ++epoch) {
      main_rng.Shuffle(&order);
      for (size_t start = 0; start < order.size();
           start += config.minibatch_size) {
        const size_t end =
            std::min(order.size(), start + config.minibatch_size);
        std::vector<size_t> minibatch(order.begin() + start,
                                      order.begin() + end);
        const UpdateStats stats =
            UpdateMinibatch(config, &result.policy, &actor_opt,
                            critic_opt.get(), buffer, minibatch, &pool);
        iter_stats.policy_loss += stats.policy_loss;
        iter_stats.value_loss += stats.value_loss;
        iter_stats.entropy += stats.entropy;
      }
    }
    result.update_seconds += phase.ElapsedSeconds();

    // --- Divergence guard: a non-finite loss, score, or weight means this
    // iteration produced garbage. Roll back to the last good snapshot,
    // back off the learning rate, and retry — bounded, so a persistent
    // numerical failure surfaces as an error instead of a broken policy.
    if (UpdateDiverged(result.policy, iter_stats, iter_score)) {
      if (loop.rollbacks >= config.max_divergence_retries) {
        return util::Status::ExecutionError(util::Format(
            "training diverged at iteration %zu and exhausted %zu "
            "rollback retries",
            iter, config.max_divergence_retries));
      }
      const size_t rollbacks = loop.rollbacks + 1;
      ASQP_RETURN_NOT_OK(ApplyCheckpoint(last_good, &result, &actor_opt,
                                         critic_opt.get(), &loop));
      loop.rollbacks = rollbacks;
      loop.learning_rate *= config.divergence_lr_backoff;
      actor_opt.set_lr(loop.learning_rate);
      if (critic_opt != nullptr) critic_opt->set_lr(loop.learning_rate);
      iter = loop.next_iteration;
      continue;
    }

    // --- Commit the iteration.
    result.iteration_scores.push_back(iter_score);
    result.episodes_run += iter_episodes;
    result.iterations_run = iter + 1;
    result.best_score = std::max(result.best_score, iter_score);

    // --- Early stopping on the training curve.
    if (iter_score > loop.early_stop_best + config.early_stop_min_delta) {
      loop.early_stop_best = iter_score;
      loop.early_stop_since_best = 0;
    } else {
      ++loop.early_stop_since_best;
    }

    ++iter;
    loop.next_iteration = iter;
    last_good = Snapshot(result, actor_opt, critic_opt.get(), loop);
    if (!config.checkpoint_path.empty() && config.checkpoint_interval > 0 &&
        (iter % config.checkpoint_interval == 0 ||
         iter == config.iterations)) {
      ASQP_RETURN_NOT_OK(
          io::SaveCheckpoint(last_good, config.checkpoint_path));
    }

    if (config.early_stop_patience > 0 &&
        loop.early_stop_since_best >= config.early_stop_patience) {
      break;
    }
  }
  result.divergence_rollbacks = loop.rollbacks;
  result.final_learning_rate = loop.learning_rate;
  return result;
}

}  // namespace rl
}  // namespace asqp
