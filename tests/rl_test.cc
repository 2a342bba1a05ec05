#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "rl/action_space.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/rollout.h"
#include "rl/trainer.h"
#include "tests/testing.h"

namespace asqp {
namespace rl {
namespace {

/// A small synthetic action space with a known-good subset: actions 0-2
/// fully cover all 3 queries; actions 3+ contribute nothing. Every action
/// costs 2 base tuples; budget 6 fits exactly three actions.
ActionSpace MakeToySpace(size_t num_actions = 12) {
  ActionSpace space;
  space.table_names = {"t"};
  space.budget = 6;
  space.num_queries = 3;
  space.query_target = {2.0f, 2.0f, 2.0f};
  space.query_weight = {1.0f / 3, 1.0f / 3, 1.0f / 3};

  for (size_t a = 0; a < num_actions; ++a) {
    PoolTuple p1{{{0, static_cast<uint32_t>(2 * a)}}};
    PoolTuple p2{{{0, static_cast<uint32_t>(2 * a + 1)}}};
    space.pool.push_back(p1);
    space.pool.push_back(p2);
    space.action_tuples.push_back({static_cast<uint32_t>(2 * a),
                                   static_cast<uint32_t>(2 * a + 1)});
    space.action_cost.push_back(2);
  }
  space.contribution.assign(num_actions * 3, 0.0f);
  // Action a covers query a (for a < 3) completely.
  for (size_t a = 0; a < 3; ++a) {
    space.contribution[a * 3 + a] = 2.0f;
  }
  return space;
}

TEST(ActionSpaceTest, MaterializeDeduplicates) {
  ActionSpace space = MakeToySpace();
  // Make actions 0 and 1 share a base tuple.
  space.action_tuples[1][0] = space.action_tuples[0][0];
  const storage::ApproximationSet set = space.Materialize({0, 1});
  EXPECT_EQ(set.TotalTuples(), 3u);  // 4 refs, 1 shared
}

TEST(GslEnvTest, MaskingAndBudget) {
  ActionSpace space = MakeToySpace();
  GslEnv env(&space, /*batch_size=*/0);
  util::Rng rng(1);
  env.Reset(0, &rng);

  // All actions initially valid.
  for (uint8_t m : env.action_mask()) EXPECT_EQ(m, 1);
  EXPECT_EQ(env.state_dim(), 12u + 3u + 3u);

  StepResult r0 = env.Step(0);
  EXPECT_FALSE(r0.done);
  EXPECT_EQ(env.action_mask()[0], 0);  // action masking: no repeats
  EXPECT_NEAR(r0.reward, 1.0 / 3.0, 1e-6);  // query 0 fully covered

  env.Step(3);  // useless action
  StepResult r2 = env.Step(1);
  EXPECT_NEAR(r2.reward, 1.0 / 3.0, 1e-6);
  EXPECT_TRUE(r2.done);  // budget 6 exhausted after 3 actions
  EXPECT_EQ(env.SelectedActions().size(), 3u);
}

TEST(GslEnvTest, RewardsTelescopeToScore) {
  ActionSpace space = MakeToySpace();
  GslEnv env(&space, 0);
  util::Rng rng(2);
  env.Reset(0, &rng);
  double total = 0.0;
  total += env.Step(2).reward;
  total += env.Step(0).reward;
  total += env.Step(5).reward;
  EXPECT_NEAR(total, env.CurrentScore(), 1e-6);
  EXPECT_NEAR(env.FullScore(), 2.0 / 3.0, 1e-6);
}

TEST(GslEnvTest, StateReflectsSelectionAndCoverage) {
  ActionSpace space = MakeToySpace();
  GslEnv env(&space, 0);
  util::Rng rng(3);
  env.Reset(0, &rng);
  env.Step(1);
  const auto& s = env.state();
  EXPECT_FLOAT_EQ(s[1], 1.0f);              // selected bit
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  EXPECT_FLOAT_EQ(s[12 + 1], 1.0f);         // query 1 coverage ratio
  EXPECT_FLOAT_EQ(s[12 + 0], 0.0f);
  EXPECT_NEAR(s[12 + 3], 1.0f - 2.0f / 6.0f, 1e-6f);  // budget fraction
}

TEST(GslEnvTest, BatchRotationChangesRewardBasis) {
  ActionSpace space = MakeToySpace();
  GslEnv env(&space, /*batch_size=*/1);
  util::Rng rng(4);
  env.Reset(0, &rng);  // batch = {query 0}
  EXPECT_NEAR(env.Step(0).reward, 1.0, 1e-6);
  env.Reset(1, &rng);  // batch = {query 1}
  EXPECT_NEAR(env.Step(0).reward, 0.0, 1e-6);
  EXPECT_NEAR(env.Step(1).reward, 1.0, 1e-6);
}

TEST(DrpEnvTest, SwapKeepsBudgetAndAlternatesPhases) {
  ActionSpace space = MakeToySpace();
  DrpEnv env(&space, 0, /*horizon=*/5);
  util::Rng rng(5);
  env.Reset(0, &rng);
  const size_t initial = env.SelectedActions().size();
  EXPECT_EQ(initial, 3u);  // budget 6 / cost 2

  // Remove phase: only selected actions are valid.
  size_t valid = 0;
  size_t a_remove = 0;
  for (size_t i = 0; i < env.action_mask().size(); ++i) {
    if (env.action_mask()[i]) {
      ++valid;
      a_remove = i;
    }
  }
  EXPECT_EQ(valid, 3u);
  StepResult r1 = env.Step(a_remove);
  EXPECT_FALSE(r1.done);
  EXPECT_EQ(env.SelectedActions().size(), 2u);

  // Add phase: the removed action is re-addable ("no change" option).
  EXPECT_EQ(env.action_mask()[a_remove], 1);
  StepResult r2 = env.Step(a_remove);  // no-op swap
  EXPECT_NEAR(r2.reward, 0.0, 1e-6);
  EXPECT_EQ(env.SelectedActions().size(), 3u);
}

TEST(DrpEnvTest, BeneficialSwapGetsPositiveReward) {
  ActionSpace space = MakeToySpace(4);  // budget fits 3 of 4 actions
  DrpEnv env(&space, 0, 8);
  util::Rng rng(7);
  env.Reset(0, &rng);
  auto selected = env.SelectedActions();
  // If the useless action 3 is selected, swapping it for the missing
  // useful action must yield positive reward.
  if (std::find(selected.begin(), selected.end(), 3u) != selected.end()) {
    size_t missing = 0;
    for (size_t a = 0; a < 3; ++a) {
      if (std::find(selected.begin(), selected.end(), a) == selected.end()) {
        missing = a;
      }
    }
    env.Step(3);
    const StepResult r = env.Step(missing);
    EXPECT_GT(r.reward, 0.0);
    EXPECT_NEAR(env.FullScore(), 1.0, 1e-6);
  }
}

TEST(DrpEnvTest, HorizonTerminates) {
  ActionSpace space = MakeToySpace();
  DrpEnv env(&space, 0, 2);
  util::Rng rng(8);
  env.Reset(0, &rng);
  size_t swaps = 0;
  bool done = false;
  while (!done && swaps < 10) {
    // remove any valid, then add any valid
    size_t a = 0;
    for (size_t i = 0; i < env.action_mask().size(); ++i) {
      if (env.action_mask()[i]) a = i;
    }
    done = env.Step(a).done;
    if (done) break;
    for (size_t i = 0; i < env.action_mask().size(); ++i) {
      if (env.action_mask()[i]) a = i;
    }
    done = env.Step(a).done;
    ++swaps;
  }
  EXPECT_TRUE(done);
  EXPECT_LE(swaps, 2u);
}

TEST(HybridEnvTest, GrowsThenRefines) {
  ActionSpace space = MakeToySpace();
  HybridEnv env(&space, 0, /*refine_horizon=*/2);
  util::Rng rng(9);
  env.Reset(0, &rng);
  // Grow to budget: 3 adds.
  env.Step(3);
  env.Step(4);
  StepResult r = env.Step(5);
  EXPECT_FALSE(r.done);
  EXPECT_EQ(env.SelectedActions().size(), 3u);
  // Now refining: mask covers only selected (remove phase).
  size_t valid = 0;
  for (uint8_t m : env.action_mask()) valid += m;
  EXPECT_EQ(valid, 3u);
  // Swap useless 3 for useful 0: positive reward.
  env.Step(3);
  StepResult add = env.Step(0);
  EXPECT_GT(add.reward, 0.0);
  EXPECT_EQ(env.SelectedActions().size(), 3u);
}

TEST(RolloutBufferTest, GaeMatchesHandComputation) {
  RolloutBuffer buf;
  // Single 2-step episode: r = {1, 0}, V = {0.5, 0.25}.
  buf.rewards = {1.0f, 0.0f};
  buf.values = {0.5f, 0.25f};
  buf.dones = {0, 1};
  buf.actions = {0, 0};
  buf.ComputeAdvantages(/*gamma=*/1.0, /*lambda=*/1.0);
  // delta1 = 0 + 0 - 0.25 = -0.25 ; adv1 = -0.25
  // delta0 = 1 + 0.25 - 0.5 = 0.75 ; adv0 = 0.75 + (-0.25) = 0.5
  EXPECT_NEAR(buf.advantages[1], -0.25f, 1e-6f);
  EXPECT_NEAR(buf.advantages[0], 0.5f, 1e-6f);
  EXPECT_NEAR(buf.returns[0], 1.0f, 1e-6f);
  EXPECT_NEAR(buf.returns[1], 0.0f, 1e-6f);
}

TEST(RolloutBufferTest, ReturnsToGoResetAtEpisodeBoundaries) {
  RolloutBuffer buf;
  buf.rewards = {1.0f, 2.0f, 3.0f};
  buf.values = {0.0f, 0.0f, 0.0f};
  buf.dones = {0, 1, 1};  // two episodes: {1,2}, {3}
  buf.actions = {0, 0, 0};
  buf.ComputeReturnsToGo(/*gamma=*/0.5);
  EXPECT_NEAR(buf.returns[0], 2.0f, 1e-6f);  // 1 + 0.5*2
  EXPECT_NEAR(buf.returns[1], 2.0f, 1e-6f);
  EXPECT_NEAR(buf.returns[2], 3.0f, 1e-6f);
}

TEST(RolloutBufferTest, NormalizeAdvantages) {
  RolloutBuffer buf;
  buf.advantages = {1.0f, 3.0f};
  buf.NormalizeAdvantages();
  EXPECT_NEAR(buf.advantages[0] + buf.advantages[1], 0.0f, 1e-5f);
  EXPECT_NEAR(buf.advantages[1], 1.0f, 1e-5f);
}

TEST(PolicyTest, ActRespectsMaskAndClone) {
  Policy p = Policy::Create(/*state_dim=*/8, /*action_count=*/4,
                            /*hidden=*/16, /*with_critic=*/true, 3);
  util::Rng rng(1);
  const std::vector<float> state(8, 0.5f);
  const std::vector<uint8_t> mask = {0, 1, 0, 1};
  for (int i = 0; i < 50; ++i) {
    const auto act = p.Act(state, mask, &rng);
    EXPECT_TRUE(act.action == 1 || act.action == 3);
  }
  Policy q = p.Clone();
  const auto a1 = p.Act(state, mask, &rng, /*greedy=*/true);
  const auto a2 = q.Act(state, mask, &rng, /*greedy=*/true);
  EXPECT_EQ(a1.action, a2.action);
  EXPECT_FLOAT_EQ(a1.value, a2.value);
}

double RandomBaselineScore(const ActionSpace& space, uint64_t seed) {
  GslEnv env(&space, 0);
  util::Rng rng(seed);
  env.Reset(0, &rng);
  while (true) {
    std::vector<size_t> valid;
    for (size_t i = 0; i < env.action_mask().size(); ++i) {
      if (env.action_mask()[i]) valid.push_back(i);
    }
    if (valid.empty()) break;
    if (env.Step(valid[rng.NextBounded(valid.size())]).done) break;
  }
  return env.FullScore();
}

class TrainAlgoTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TrainAlgoTest, LearnsToySpaceBetterThanRandom) {
  // 24 actions, only 3 useful: a trained policy must reliably pick the
  // useful ones while random selection mostly cannot.
  ActionSpace space = MakeToySpace(24);
  TrainerConfig config;
  config.algorithm = GetParam();
  config.iterations = 40;
  config.episodes_per_iteration = 8;
  config.num_workers = 2;
  config.learning_rate = 3e-3;
  config.hidden_dim = 32;
  config.seed = 7;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  ASSERT_OK_AND_ASSIGN(TrainResult result, Train(factory, config));
  EXPECT_EQ(result.iterations_run, 40u);
  EXPECT_GT(result.episodes_run, 0u);
  EXPECT_GT(result.collect_seconds, 0.0);
  EXPECT_GT(result.update_seconds, 0.0);

  GslEnv eval_env(&space, 0);
  RunPolicy(&eval_env, result.policy, /*seed=*/99, /*greedy=*/true);
  const double trained = eval_env.FullScore();

  double random_avg = 0.0;
  for (uint64_t s = 0; s < 10; ++s) random_avg += RandomBaselineScore(space, s);
  random_avg /= 10.0;

  EXPECT_GT(trained, random_avg + 0.15)
      << "algorithm " << AlgorithmName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TrainAlgoTest,
                         ::testing::Values(Algorithm::kPpo, Algorithm::kA2c,
                                           Algorithm::kReinforce));

TEST(TrainTest, EarlyStoppingCutsIterations) {
  ActionSpace space = MakeToySpace(6);
  TrainerConfig config;
  config.iterations = 100;
  config.episodes_per_iteration = 4;
  config.num_workers = 1;
  config.hidden_dim = 16;
  config.early_stop_patience = 3;
  config.early_stop_min_delta = 1e-4;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  ASSERT_OK_AND_ASSIGN(TrainResult result, Train(factory, config));
  EXPECT_LT(result.iterations_run, 100u);
}

TEST(TrainTest, DeterministicForSeed) {
  ActionSpace space = MakeToySpace(8);
  TrainerConfig config;
  config.iterations = 3;
  config.episodes_per_iteration = 2;
  config.num_workers = 1;
  config.hidden_dim = 16;
  config.seed = 42;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  ASSERT_OK_AND_ASSIGN(TrainResult a, Train(factory, config));
  ASSERT_OK_AND_ASSIGN(TrainResult b, Train(factory, config));
  ASSERT_EQ(a.iteration_scores.size(), b.iteration_scores.size());
  for (size_t i = 0; i < a.iteration_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iteration_scores[i], b.iteration_scores[i]);
  }
}

/// FNV-1a (64-bit) over the bit patterns of every actor and critic weight
/// and bias, in parameter-block order.
uint64_t WeightHash(const Policy& policy) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (nn::Mlp* net : {policy.actor.get(), policy.critic.get()}) {
    if (net == nullptr) continue;
    const std::vector<float*> blocks = net->Parameters();
    const std::vector<size_t> lengths = net->BlockLengths();
    for (size_t b = 0; b < blocks.size(); ++b) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(blocks[b]);
      for (size_t i = 0; i < lengths[b] * sizeof(float); ++i) {
        hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

struct GoldenWeights {
  Algorithm algorithm;
  uint64_t hash;
};

class GoldenWeightsTest : public ::testing::TestWithParam<GoldenWeights> {};

/// The trained weights, pinned bit for bit. The hashes were recorded with
/// the one-sample-at-a-time update that the minibatch kernels replaced,
/// built by GCC 12.2 for x86-64 against glibc (whose tanh/exp/log results
/// they include). A float sum taken in another order, or an FMA
/// contraction, moves them; so would another libm or compiler.
TEST_P(GoldenWeightsTest, TrainedWeightsMatchRecordedHash) {
  ActionSpace space = MakeToySpace(24);
  TrainerConfig config;
  config.algorithm = GetParam().algorithm;
  config.iterations = 4;
  config.episodes_per_iteration = 12;
  config.num_workers = 2;
  config.minibatch_size = 32;
  config.learning_rate = 3e-3;
  config.hidden_dim = 128;
  config.seed = 23;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  ASSERT_OK_AND_ASSIGN(TrainResult result, Train(factory, config));
  EXPECT_EQ(result.divergence_rollbacks, 0u);
  EXPECT_EQ(WeightHash(result.policy), GetParam().hash)
      << std::hex << "got 0x" << WeightHash(result.policy);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, GoldenWeightsTest,
    ::testing::Values(GoldenWeights{Algorithm::kPpo, 0xcd7f4f341397f7baULL},
                      GoldenWeights{Algorithm::kA2c, 0xa60d9c3c6fe799cfULL},
                      GoldenWeights{Algorithm::kReinforce,
                                    0x2382dadceaa463e4ULL}),
    [](const ::testing::TestParamInfo<GoldenWeights>& info) {
      return std::string(AlgorithmName(info.param.algorithm));
    });

TEST(TrainTest, RejectsZeroMinibatchSize) {
  ActionSpace space = MakeToySpace(6);
  TrainerConfig config;
  config.minibatch_size = 0;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  const util::Result<TrainResult> result = Train(factory, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TrainTest, RejectsEmptyActionSpace) {
  ActionSpace space;  // zero actions
  space.budget = 1;
  EnvFactory factory = [&space] {
    return std::make_unique<GslEnv>(&space, 0);
  };
  EXPECT_FALSE(Train(factory, TrainerConfig{}).ok());
}

}  // namespace
}  // namespace rl
}  // namespace asqp
