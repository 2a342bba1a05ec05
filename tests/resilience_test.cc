// Resilience suite: deadline/cancellation propagation through the query
// engine, divergence-safe training with rollback + LR backoff,
// checkpoint/resume determinism, the Answer() full-database degradation
// path, and the fault-injection harness itself.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "io/io.h"
#include "rl/action_space.h"
#include "rl/env.h"
#include "rl/trainer.h"
#include "serve/serve_engine.h"
#include "sql/parser.h"
#include "storage/index.h"
#include "tests/slot_hold.h"
#include "tests/testing.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"

namespace asqp {
namespace {

using util::Status;
using util::StatusCode;

/// Every test that arms a fault disarms it on teardown, so later tests see
/// the zero-cost disabled state again.
class FaultPointTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------- fault harness

TEST_F(FaultPointTest, DisabledByDefaultAndArmable) {
  EXPECT_FALSE(util::FaultInjector::enabled());
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.test.point"));

  util::FaultInjector::Global().Arm("resilience.test.point", /*count=*/2);
  EXPECT_TRUE(util::FaultInjector::enabled());
  EXPECT_TRUE(ASQP_FAULT_POINT("resilience.test.point"));
  EXPECT_TRUE(ASQP_FAULT_POINT("resilience.test.point"));
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.test.point"));  // count spent
  EXPECT_EQ(util::FaultInjector::Global().fire_count("resilience.test.point"),
            2);
  // Unarmed points never fire even while the injector is enabled.
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.other.point"));

  util::FaultInjector::Global().Reset();
  EXPECT_FALSE(util::FaultInjector::enabled());
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.test.point"));
}

TEST_F(FaultPointTest, SkipDelaysFiring) {
  util::FaultInjector::Global().Arm("resilience.skip.point", /*count=*/1,
                                    /*skip=*/2);
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.skip.point"));
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.skip.point"));
  EXPECT_TRUE(ASQP_FAULT_POINT("resilience.skip.point"));
  EXPECT_FALSE(ASQP_FAULT_POINT("resilience.skip.point"));
}

TEST_F(FaultPointTest, ArmFromSpecArmsWellFormedEntries) {
  auto& inj = util::FaultInjector::Global();
  EXPECT_EQ(inj.ArmFromSpec("spec.a, spec.b:2 , spec.c:1:1"), 3u);

  EXPECT_TRUE(ASQP_FAULT_POINT("spec.a"));   // default count=1
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.a"));  // spent

  EXPECT_TRUE(ASQP_FAULT_POINT("spec.b"));
  EXPECT_TRUE(ASQP_FAULT_POINT("spec.b"));
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.b"));

  EXPECT_FALSE(ASQP_FAULT_POINT("spec.c"));  // skipped once
  EXPECT_TRUE(ASQP_FAULT_POINT("spec.c"));
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.c"));
}

TEST_F(FaultPointTest, ArmFromSpecAllowsAlwaysFireCount) {
  auto& inj = util::FaultInjector::Global();
  EXPECT_EQ(inj.ArmFromSpec("spec.always:-1"), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ASQP_FAULT_POINT("spec.always"));
  }
}

TEST_F(FaultPointTest, ArmFromSpecSkipsMalformedEntries) {
  auto& inj = util::FaultInjector::Global();
  // Non-integer count ("1e3" must not atoi to 1), empty point name,
  // negative skip, too many fields, trailing junk — all skipped; the one
  // well-formed entry still arms.
  EXPECT_EQ(inj.ArmFromSpec("spec.bad:1e3, :5, spec.neg:1:-1, "
                            "spec.many:1:2:3, spec.junk:2x, spec.ok"),
            1u);
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.bad"));
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.neg"));
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.many"));
  EXPECT_FALSE(ASQP_FAULT_POINT("spec.junk"));
  EXPECT_TRUE(ASQP_FAULT_POINT("spec.ok"));
}

TEST_F(FaultPointTest, ArmFromSpecEmptyListArmsNothing) {
  auto& inj = util::FaultInjector::Global();
  EXPECT_EQ(inj.ArmFromSpec(""), 0u);
  EXPECT_EQ(inj.ArmFromSpec(" , ,"), 0u);
  EXPECT_FALSE(util::FaultInjector::enabled());
}

// ------------------------------------------- executor deadline/cancel/row

class ExecResilienceTest : public FaultPointTest {
 protected:
  void SetUp() override {
    db_ = testing::MakeTinyMovieDb();
    view_ = std::make_unique<storage::DatabaseView>(db_.get());
  }

  static constexpr const char* kJoinSql =
      "SELECT m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id";

  std::shared_ptr<storage::Database> db_;
  std::unique_ptr<storage::DatabaseView> view_;
  exec::QueryEngine engine_;
};

TEST_F(ExecResilienceTest, ZeroDeadlineReturnsDeadlineExceeded) {
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  const auto r = engine_.ExecuteSql("SELECT title FROM movies WHERE year > 0",
                                    *view_, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // The same query without a deadline succeeds — the engine state is not
  // poisoned by the aborted execution.
  ASSERT_OK_AND_ASSIGN(auto rs, engine_.ExecuteSql(
                                    "SELECT title FROM movies WHERE year > 0",
                                    *view_));
  EXPECT_EQ(rs.num_rows(), 8u);
}

TEST_F(ExecResilienceTest, ZeroDeadlineJoinAndAggregateAbort) {
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  EXPECT_EQ(engine_.ExecuteSql(kJoinSql, *view_, context).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine_
                .ExecuteSql("SELECT year, COUNT(*) FROM movies GROUP BY year",
                            *view_, context)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(ExecResilienceTest, CancellationReturnsCancelled) {
  util::ExecContext context;
  context.EnableCancellation();
  ASSERT_OK_AND_ASSIGN(auto before, engine_.ExecuteSql(kJoinSql, *view_,
                                                       context));
  EXPECT_EQ(before.num_rows(), 10u);

  context.RequestCancel();
  const auto r = engine_.ExecuteSql(kJoinSql, *view_, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(ExecResilienceTest, RowBudgetReturnsResourceExhausted) {
  util::ExecContext context;
  context.set_max_rows(2);  // the join materializes 10 rows
  const auto r = engine_.ExecuteSql(kJoinSql, *view_, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecResilienceTest, InjectedJoinAllocationFailure) {
  util::FaultInjector::Global().Arm("exec.join.alloc");
  const auto r = engine_.ExecuteSql(kJoinSql, *view_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos);

  // The fault was one-shot; the next execution succeeds.
  ASSERT_OK_AND_ASSIGN(auto rs, engine_.ExecuteSql(kJoinSql, *view_));
  EXPECT_EQ(rs.num_rows(), 10u);
}

TEST_F(ExecResilienceTest, ProvenancePathHonorsDeadline) {
  ASSERT_OK_AND_ASSIGN(auto stmt, sql::Parse(kJoinSql));
  ASSERT_OK_AND_ASSIGN(auto bound, sql::Bind(stmt, *db_));
  const util::ExecContext context = util::ExecContext::WithDeadline(0.0);
  const auto r =
      engine_.ExecuteWithProvenance(bound, *view_, /*max_tuples=*/0, context);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------------ index build faults

TEST_F(ExecResilienceTest, FailedIndexBuildDegradesToFullScan) {
  constexpr const char* kSql = "SELECT title FROM movies WHERE year = 2010";
  ASSERT_OK_AND_ASSIGN(const exec::ResultSet want,
                       engine_.ExecuteSql(kSql, *view_));
  ASSERT_EQ(want.num_rows(), 2u);

  // Persistently failing builds: every per-column build is skipped (never
  // fatal — index presence must not gate answering), counted, and the
  // catalog comes back empty.
  const auto specs = storage::AllIndexColumns(*db_);
  util::FaultInjector::Global().Arm("index.build", /*count=*/-1);
  auto broken = std::make_shared<storage::IndexCatalog>(
      storage::IndexCatalog::Build(*view_, specs, /*generation=*/0));
  util::FaultInjector::Global().Reset();
  EXPECT_EQ(broken->num_indexes(), 0u);
  EXPECT_EQ(broken->failed_builds(), specs.size());
  EXPECT_EQ(broken->Find("movies", 2), nullptr);

  // An engine carrying the broken catalog still answers — the planner finds
  // no index for the chosen conjunct, degrades to the full scan, and the
  // result is byte-identical to the index-free engine's.
  exec::ExecOptions options;
  options.index_catalog = broken;
  const exec::QueryEngine degraded(options);
  ASSERT_OK_AND_ASSIGN(const exec::ResultSet got,
                       degraded.ExecuteSql(kSql, *view_));
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_EQ(got.RowKey(r), want.RowKey(r)) << "row " << r;
  }
  ASSERT_OK_AND_ASSIGN(const std::string plan,
                       degraded.ExplainSql(kSql, *view_));
  EXPECT_EQ(plan.find("IndexRangeScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("FullScan"), std::string::npos) << plan;
}

TEST_F(ExecResilienceTest, PartialIndexBuildFailureKeepsRemainingIndexes) {
  // One-shot fault: the first column's build fails, every later one
  // succeeds — a partial catalog, not an all-or-nothing failure.
  const auto specs = storage::AllIndexColumns(*db_);
  util::FaultInjector::Global().Arm("index.build");
  auto partial = std::make_shared<storage::IndexCatalog>(
      storage::IndexCatalog::Build(*view_, specs, /*generation=*/0));
  EXPECT_EQ(partial->failed_builds(), 1u);
  EXPECT_EQ(partial->num_indexes(), specs.size() - 1);
  EXPECT_EQ(partial->Find(specs[0].table, specs[0].column), nullptr);
  ASSERT_NE(partial->Find("movies", 2), nullptr);  // "year" survived

  exec::ExecOptions options;
  options.index_catalog = partial;
  const exec::QueryEngine degraded(options);
  // Queries over surviving and missing indexes alike match the baseline.
  for (const char* sql :
       {"SELECT title FROM movies WHERE year = 2010",
        "SELECT title FROM movies WHERE id = 3"}) {
    ASSERT_OK_AND_ASSIGN(const exec::ResultSet want,
                         engine_.ExecuteSql(sql, *view_));
    ASSERT_OK_AND_ASSIGN(const exec::ResultSet got,
                         degraded.ExecuteSql(sql, *view_));
    ASSERT_EQ(got.num_rows(), want.num_rows()) << sql;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(got.RowKey(r), want.RowKey(r)) << sql << " row " << r;
    }
  }
  // The surviving index is actually chosen for the selective predicate.
  ASSERT_OK_AND_ASSIGN(
      const std::string plan,
      degraded.ExplainSql("SELECT title FROM movies WHERE year = 2010",
                          *view_));
  EXPECT_NE(plan.find("IndexRangeScan(year"), std::string::npos) << plan;
}

// ----------------------------------------------------- training rollback

/// Toy action space (mirrors rl_test): actions 0-2 fully cover the 3
/// queries, every action costs 2 tuples, budget 6.
rl::ActionSpace MakeToySpace(size_t num_actions = 12) {
  rl::ActionSpace space;
  space.table_names = {"t"};
  space.budget = 6;
  space.num_queries = 3;
  space.query_target = {2.0f, 2.0f, 2.0f};
  space.query_weight = {1.0f / 3, 1.0f / 3, 1.0f / 3};
  for (size_t a = 0; a < num_actions; ++a) {
    rl::PoolTuple p1{{{0, static_cast<uint32_t>(2 * a)}}};
    rl::PoolTuple p2{{{0, static_cast<uint32_t>(2 * a + 1)}}};
    space.pool.push_back(p1);
    space.pool.push_back(p2);
    space.action_tuples.push_back(
        {static_cast<uint32_t>(2 * a), static_cast<uint32_t>(2 * a + 1)});
    space.action_cost.push_back(2);
  }
  space.contribution.assign(num_actions * 3, 0.0f);
  for (size_t a = 0; a < 3; ++a) space.contribution[a * 3 + a] = 2.0f;
  return space;
}

rl::TrainerConfig ToyTrainerConfig() {
  rl::TrainerConfig config;
  config.iterations = 6;
  config.episodes_per_iteration = 4;
  config.num_workers = 2;
  config.hidden_dim = 16;
  config.learning_rate = 3e-3;
  config.seed = 21;
  return config;
}

TEST_F(FaultPointTest, InjectedNanGradientRollsBackAndRecovers) {
  rl::ActionSpace space = MakeToySpace();
  rl::EnvFactory factory = [&space] {
    return std::make_unique<rl::GslEnv>(&space, 0);
  };
  const rl::TrainerConfig config = ToyTrainerConfig();

  // One poisoned Adam step: the first update writes a NaN gradient.
  util::FaultInjector::Global().Arm("nn.adam.nan_grad", /*count=*/1);
  ASSERT_OK_AND_ASSIGN(rl::TrainResult result, rl::Train(factory, config));
  EXPECT_GE(result.divergence_rollbacks, 1u);
  EXPECT_LT(result.final_learning_rate, config.learning_rate);

  // Training completed all iterations with a finite curve and policy.
  EXPECT_EQ(result.iterations_run, config.iterations);
  ASSERT_EQ(result.iteration_scores.size(), config.iterations);
  for (double s : result.iteration_scores) EXPECT_TRUE(std::isfinite(s));
  EXPECT_FALSE(result.policy.actor->HasNonFiniteParameters());
  ASSERT_NE(result.policy.critic, nullptr);
  EXPECT_FALSE(result.policy.critic->HasNonFiniteParameters());
}

TEST_F(FaultPointTest, PersistentDivergenceExhaustsRetries) {
  rl::ActionSpace space = MakeToySpace();
  rl::EnvFactory factory = [&space] {
    return std::make_unique<rl::GslEnv>(&space, 0);
  };
  rl::TrainerConfig config = ToyTrainerConfig();
  config.max_divergence_retries = 2;

  // Every Adam step is poisoned: rollback cannot help, so Train must give
  // up with an error instead of returning a NaN policy.
  util::FaultInjector::Global().Arm("nn.adam.nan_grad", /*count=*/-1);
  const auto result = rl::Train(factory, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("diverged"), std::string::npos);
}

// ----------------------------------------------- checkpoint/resume (exact)

class TempPath {
 public:
  TempPath() {
    static int counter = 0;
    path_ = ::testing::TempDir() + "asqp_resilience_" +
            std::to_string(counter++);
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CheckpointTest, SaveLoadRoundTrip) {
  rl::TrainCheckpoint ckpt;
  ckpt.policy = rl::Policy::Create(/*state_dim=*/8, /*action_count=*/4,
                                   /*hidden=*/8, /*with_critic=*/true, 3);
  ckpt.actor_opt = {{0.1f, -0.25f}, {0.5f, 0.75f}, 7};
  ckpt.critic_opt = {{1.5f}, {2.5f}, 3};
  ckpt.rng = {{1, 2, 3, 0xFFFFFFFFFFFFFFFFull}, true, -0.123456789012345};
  ckpt.learning_rate = 1.25e-3;
  ckpt.next_iteration = 4;
  ckpt.episode_counter = 16;
  ckpt.iteration_scores = {0.25, 0.5, 0.625, 0.75};
  ckpt.best_score = 0.75;
  ckpt.episodes_run = 16;
  ckpt.early_stop_best = 0.75;
  ckpt.early_stop_since_best = 1;
  ckpt.divergence_rollbacks = 2;

  TempPath file;
  ASSERT_OK(io::SaveCheckpoint(ckpt, file.path()));
  ASSERT_OK_AND_ASSIGN(rl::TrainCheckpoint loaded,
                       io::LoadCheckpoint(file.path()));

  EXPECT_EQ(loaded.policy.actor->Dims(), ckpt.policy.actor->Dims());
  ASSERT_NE(loaded.policy.critic, nullptr);
  EXPECT_EQ(loaded.actor_opt.m, ckpt.actor_opt.m);
  EXPECT_EQ(loaded.actor_opt.v, ckpt.actor_opt.v);
  EXPECT_EQ(loaded.actor_opt.t, ckpt.actor_opt.t);
  EXPECT_EQ(loaded.critic_opt.m, ckpt.critic_opt.m);
  EXPECT_EQ(loaded.rng.s, ckpt.rng.s);
  EXPECT_EQ(loaded.rng.has_cached_normal, ckpt.rng.has_cached_normal);
  EXPECT_EQ(loaded.rng.cached_normal, ckpt.rng.cached_normal);
  EXPECT_EQ(loaded.learning_rate, ckpt.learning_rate);
  EXPECT_EQ(loaded.next_iteration, 4u);
  EXPECT_EQ(loaded.episode_counter, 16u);
  EXPECT_EQ(loaded.iteration_scores, ckpt.iteration_scores);
  EXPECT_EQ(loaded.best_score, ckpt.best_score);
  EXPECT_EQ(loaded.early_stop_since_best, 1u);
  EXPECT_EQ(loaded.divergence_rollbacks, 2u);
}

TEST(CheckpointTest, LoadRejectsGarbageAndMissing) {
  EXPECT_EQ(io::LoadCheckpoint("/nonexistent/ckpt").status().code(),
            StatusCode::kNotFound);
  TempPath file;
  {
    std::ofstream out(file.path());
    out << "not a checkpoint\n";
  }
  EXPECT_EQ(io::LoadCheckpoint(file.path()).status().code(),
            StatusCode::kParseError);
}

TEST_F(FaultPointTest, InjectedCheckpointWriteFailureSurfaces) {
  rl::TrainCheckpoint ckpt;
  ckpt.policy = rl::Policy::Create(8, 4, 8, /*with_critic=*/false, 3);
  TempPath file;
  util::FaultInjector::Global().Arm("io.checkpoint.write");
  const Status st = io::SaveCheckpoint(ckpt, file.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  // Nothing was left behind: the failure happened before the tmp write.
  EXPECT_EQ(io::LoadCheckpoint(file.path()).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, InterruptedTrainingResumesBitForBit) {
  rl::ActionSpace space = MakeToySpace();
  rl::EnvFactory factory = [&space] {
    return std::make_unique<rl::GslEnv>(&space, 0);
  };

  // Uninterrupted reference run.
  ASSERT_OK_AND_ASSIGN(rl::TrainResult full,
                       rl::Train(factory, ToyTrainerConfig()));

  // Interrupted run: stop after 3 of 6 iterations, checkpointing as we go.
  TempPath ckpt;
  rl::TrainerConfig half = ToyTrainerConfig();
  half.iterations = 3;
  half.checkpoint_path = ckpt.path();
  ASSERT_OK_AND_ASSIGN(rl::TrainResult interrupted,
                       rl::Train(factory, half));
  ASSERT_EQ(interrupted.iteration_scores.size(), 3u);
  EXPECT_FALSE(interrupted.resumed);

  // Resume to the full 6 iterations from the on-disk checkpoint.
  rl::TrainerConfig rest = ToyTrainerConfig();
  rest.checkpoint_path = ckpt.path();
  rest.resume_from_checkpoint = true;
  ASSERT_OK_AND_ASSIGN(rl::TrainResult resumed, rl::Train(factory, rest));
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.iterations_run, 6u);

  // Bit-for-bit: the resumed curve and final scores match the
  // uninterrupted run exactly, not approximately.
  ASSERT_EQ(resumed.iteration_scores.size(), full.iteration_scores.size());
  for (size_t i = 0; i < full.iteration_scores.size(); ++i) {
    EXPECT_EQ(resumed.iteration_scores[i], full.iteration_scores[i])
        << "iteration " << i;
  }
  EXPECT_EQ(resumed.best_score, full.best_score);
  EXPECT_EQ(resumed.episodes_run, full.episodes_run);
}

// ------------------------------------------------ Answer() degradation

TEST_F(FaultPointTest, AnswerFallsBackToFullDatabaseOnTimeout) {
  data::DatasetOptions opts;
  opts.scale = 0.03;
  opts.workload_size = 8;
  opts.seed = 5;
  const data::DatasetBundle bundle = data::MakeImdbJob(opts);

  core::AsqpConfig config;
  config.k = 150;
  config.frame_size = 20;
  config.num_representatives = 6;
  config.pool_target = 250;
  config.trainer.iterations = 3;
  config.trainer.num_workers = 1;
  config.trainer.hidden_dim = 32;
  // Route everything through the approximation set, under a deadline that
  // the armed fault will report as expired.
  config.answerable_threshold = 0.0;
  config.answer_deadline_seconds = 3600.0;

  core::AsqpTrainer trainer(config);
  ASSERT_OK_AND_ASSIGN(core::TrainReport report,
                       trainer.Train(*bundle.db, bundle.workload));
  core::AsqpModel& model = *report.model;

  // Every deadline poll inside the engine now reports expiry.
  util::FaultInjector::Global().Arm("exec.deadline", /*count=*/-1);
  size_t fell_back = 0;
  for (const auto& q : bundle.workload.queries()) {
    ASSERT_OK_AND_ASSIGN(core::AnswerResult answer, model.Answer(q.stmt));
    if (answer.fell_back) {
      ++fell_back;
      EXPECT_FALSE(answer.used_approximation);
      EXPECT_NE(answer.fallback_reason.find("deadline"), std::string::npos);
    }
  }
  EXPECT_GT(fell_back, 0u);
  EXPECT_GT(util::FaultInjector::Global().fire_count("exec.deadline"), 0);
  util::FaultInjector::Global().Reset();

  // With the fault disarmed the same queries are served from the
  // approximation set again, unflagged.
  ASSERT_OK_AND_ASSIGN(core::AnswerResult healthy,
                       model.Answer(bundle.workload.query(0).stmt));
  EXPECT_TRUE(healthy.used_approximation);
  EXPECT_FALSE(healthy.fell_back);
}

// ------------------------------------- serve-path fault-point coverage

/// One case per fault point reachable from ServeEngine::Answer.
struct ServeFaultCase {
  const char* name;   ///< gtest parameter label
  const char* point;  ///< fault point to arm
  const char* sql;    ///< query whose execution path crosses the point
  /// True when the fault is transient (kResourceExhausted): a one-shot
  /// arming must be absorbed by the approximation tier's retry. False for
  /// deadline faults, which degrade immediately.
  bool transient;
  /// Client-visible outcome when the fault fires on *every* call.
  enum class Persistent { kFullDatabase, kLearned, kDegraded } persistent;
};

/// Shared trained model: the suite is read-mostly (ServeEngine per test),
/// and per-test teardown disarms faults and re-closes the breaker.
class ServeFaultPointTest : public ::testing::TestWithParam<ServeFaultCase> {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.03;
    opts.workload_size = 8;
    opts.seed = 5;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeImdbJob(opts));  // NOLINT(asqp-naked-new)

    core::AsqpConfig config;
    config.k = 150;
    config.frame_size = 20;
    config.num_representatives = 6;
    config.pool_target = 250;
    config.trainer.iterations = 3;
    config.trainer.num_workers = 1;
    config.trainer.hidden_dim = 32;
    // Route everything through the approximation tier; the configured
    // deadline is what the exec.deadline fault pretends has expired.
    config.answerable_threshold = 0.0;
    config.answer_deadline_seconds = 3600.0;
    // One-row morsels, so the serve path's operators over more than one
    // row take their parallel branches (one morsel runs inline).
    config.exec_morsel_rows = 1;
    core::AsqpTrainer trainer(config);
    auto report = trainer.Train(*bundle_->db, bundle_->workload);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    model_ = std::move(report.value().model);
    ASSERT_NE(model_->current()->learned, nullptr);
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete bundle_;  // NOLINT(asqp-naked-new)
    bundle_ = nullptr;
  }
  void TearDown() override {
    util::FaultInjector::Global().Reset();
    model_->circuit_breaker().RecordSuccess();
  }

  static serve::ServeOptions Options() {
    serve::ServeOptions options;
    options.max_inflight = 2;
    options.queue_capacity = 4;
    // A pool, so the radix-partitioned join build (exec.join.partition)
    // is on the serve path (with the fixture's small morsels).
    options.pool_threads = 2;
    options.cache_bytes = 0;  // every request executes
    return options;
  }

  static data::DatasetBundle* bundle_;
  static std::unique_ptr<core::AsqpModel> model_;
};

data::DatasetBundle* ServeFaultPointTest::bundle_ = nullptr;
std::unique_ptr<core::AsqpModel> ServeFaultPointTest::model_ = nullptr;

TEST_P(ServeFaultPointTest, OneShotFaultIsRetriedOrDegradedGracefully) {
  const ServeFaultCase& c = GetParam();
  serve::ServeEngine engine(model_.get(), Options());
  const core::AsqpModel::AnswerStats before = model_->answer_stats();

  util::FaultInjector::Global().Arm(c.point, /*count=*/1);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult result, engine.AnswerSql(c.sql));
  EXPECT_GT(util::FaultInjector::Global().fire_count(c.point), 0)
      << c.point << " was never reached from the serve path";
  if (c.transient) {
    // Absorbed by the approximation tier's retry: the client sees a
    // normal answer and only the retry counter betrays the fault.
    EXPECT_EQ(result.tier, core::AnswerTier::kApproximation);
    EXPECT_FALSE(result.fell_back);
    EXPECT_GE(model_->answer_stats().retries, before.retries + 1);
  } else {
    // Deadline faults never retry: the full database answers, flagged.
    EXPECT_EQ(result.tier, core::AnswerTier::kFullDatabase);
    EXPECT_TRUE(result.fell_back);
    EXPECT_NE(result.fallback_reason.find("deadline"), std::string::npos);
  }
}

TEST_P(ServeFaultPointTest, PersistentFaultEndsInTypedDegradation) {
  const ServeFaultCase& c = GetParam();
  serve::ServeEngine engine(model_.get(), Options());

  util::FaultInjector::Global().Arm(c.point, /*count=*/-1);
  util::Result<core::AnswerResult> result = engine.AnswerSql(c.sql);
  const std::string want_reason = std::string("fault:") + c.point;
  switch (c.persistent) {
    case ServeFaultCase::Persistent::kFullDatabase:
      // The degraded full-database execution runs without a deadline
      // ticker, out of the fault's reach.
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().tier, core::AnswerTier::kFullDatabase);
      EXPECT_TRUE(result.value().fell_back);
      EXPECT_EQ(result.value().fallback_reason, want_reason);
      break;
    case ServeFaultCase::Persistent::kLearned:
      // Both executing tiers are poisoned; the learned answerer serves
      // the aggregate with its calibrated error bound.
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().tier, core::AnswerTier::kLearned);
      EXPECT_TRUE(result.value().fell_back);
      EXPECT_EQ(result.value().fallback_reason, want_reason);
      EXPECT_GT(result.value().error_estimate, 0.0);
      break;
    case ServeFaultCase::Persistent::kDegraded:
      // Every tier exhausted and the query is outside the learned class:
      // the client gets the typed kDegraded, never a raw fault.
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDegraded);
      EXPECT_NE(result.status().message().find(want_reason),
                std::string::npos);
      break;
  }

  // Disarmed, the same query is healthy again.
  util::FaultInjector::Global().Reset();
  ASSERT_OK_AND_ASSIGN(core::AnswerResult healthy, engine.AnswerSql(c.sql));
  EXPECT_EQ(healthy.tier, core::AnswerTier::kApproximation);
  EXPECT_FALSE(healthy.fell_back);
}

constexpr char kServeJoinSql[] =
    "SELECT t.name, ci.role FROM title t, cast_info ci "
    "WHERE ci.movie_id = t.id AND t.production_year >= 2000";
constexpr char kServeAggSql[] =
    "SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000";

INSTANTIATE_TEST_SUITE_P(
    AllReachablePoints, ServeFaultPointTest,
    ::testing::Values(
        ServeFaultCase{"deadline", "exec.deadline", kServeJoinSql,
                       /*transient=*/false,
                       ServeFaultCase::Persistent::kFullDatabase},
        ServeFaultCase{"join_alloc", "exec.join.alloc", kServeJoinSql,
                       /*transient=*/true,
                       ServeFaultCase::Persistent::kDegraded},
        ServeFaultCase{"join_partition", "exec.join.partition", kServeJoinSql,
                       /*transient=*/true,
                       ServeFaultCase::Persistent::kDegraded},
        ServeFaultCase{"agg_partial", "exec.agg.partial", kServeAggSql,
                       /*transient=*/true,
                       ServeFaultCase::Persistent::kLearned}),
    [](const ::testing::TestParamInfo<ServeFaultCase>& info) {
      return std::string(info.param.name);
    });

// A fault inside a shared-scan batch must degrade only the member it hit:
// its peers' answers are byte-identical to what an unbatched engine
// serves, and the faulted member still gets a well-formed degraded answer
// (never a raw error, never a poisoned batch).
TEST_F(ServeFaultPointTest, BatchedMemberFaultDegradesAloneInItsBatch) {
  const std::vector<std::string> sqls = {
      "SELECT t.name FROM title t WHERE t.production_year >= 2000",
      "SELECT t.name FROM title t WHERE t.production_year < 1970",
      "SELECT t.name FROM title t WHERE t.rating > 8",
  };

  // Unbatched reference answers (engines one at a time: each re-routes
  // the model's execution pool through itself).
  std::vector<std::vector<std::string>> want;
  {
    serve::ServeEngine plain(model_.get(), Options());
    for (const std::string& sql : sqls) {
      ASSERT_OK_AND_ASSIGN(core::AnswerResult r, plain.AnswerSql(sql));
      std::vector<std::string> keys;
      for (size_t i = 0; i < r.result.num_rows(); ++i) {
        keys.push_back(r.result.RowKey(i));
      }
      want.push_back(std::move(keys));
    }
  }

  serve::ServeOptions options = Options();
  options.max_inflight = 1;
  serve::ServeEngine engine(model_.get(), options);
  // The members queue behind the hold, so they leave the queue together.
  testing::SlotHold hold(&engine);
  const serve::ServeEngine::Stats before = engine.stats();

  // One shot: exactly one batched member crosses the armed point (they
  // execute in deterministic submission order, so it is the first).
  util::FaultInjector::Global().Arm("serve.batch", /*count=*/1);
  std::vector<serve::AnswerFuture> futures;
  for (const std::string& sql : sqls) {
    futures.push_back(engine.AnswerSqlAsync(sql));
  }
  hold.Release();
  std::vector<core::AnswerResult> got;
  for (serve::AnswerFuture& f : futures) {
    util::Result<core::AnswerResult> r = f.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    got.push_back(std::move(r).value());
  }
  EXPECT_EQ(util::FaultInjector::Global().fire_count("serve.batch"), 1);

  size_t faulted = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].fell_back) {
      ++faulted;
      EXPECT_EQ(got[i].fallback_reason, "fault:serve.batch");
      EXPECT_FALSE(got[i].used_approximation);
    } else {
      // Peers are untouched: approximation-tier answers, byte-identical
      // to the unbatched engine's.
      std::vector<std::string> keys;
      for (size_t r = 0; r < got[i].result.num_rows(); ++r) {
        keys.push_back(got[i].result.RowKey(r));
      }
      EXPECT_EQ(keys, want[i]) << sqls[i];
      EXPECT_EQ(got[i].tier, core::AnswerTier::kApproximation);
    }
  }
  EXPECT_EQ(faulted, 1u);
  // The three same-table members shared one batch and one scan pass.
  const serve::ServeEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.batches_formed - before.batches_formed, 1u);
  EXPECT_EQ(stats.batch_members - before.batch_members, sqls.size());
}

}  // namespace
}  // namespace asqp
