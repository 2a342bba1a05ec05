// Degradation-ladder tests: the overload-control primitives (RetryPolicy
// backoff schedule and transience classification, CircuitBreaker state
// machine under a fake clock), the fallback-reason vocabulary, the
// learned fallback tier (fit / answer / calibrated error estimates /
// persistence), and the full ladder on a trained model — approximation
// retries, full-database degradation, breaker trips, cost-gated and
// breaker-blocked routing to the learned tier, and the terminal
// kDegraded when every tier is exhausted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aqp/learned_fallback.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "io/io.h"
#include "metric/relative_error.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tests/testing.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/retry.h"

namespace asqp {
namespace {

using util::CircuitBreaker;
using util::RetryPolicy;
using util::Status;

// ---- RetryPolicy -------------------------------------------------------

TEST(RetryPolicyTest, ClassifiesTransience) {
  // Transient: pressure that a retry can outlive.
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::ResourceExhausted("alloc")));
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::ExecutionError("fault")));
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::Internal("oops")));
  // Never transient: the budget is gone or the query itself is wrong.
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::Cancelled("stop")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::NotFound("missing")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::OK()));
}

TEST(RetryPolicyTest, BackoffIsDeterministicJitteredAndCapped) {
  RetryPolicy::Options options;
  options.max_retries = 4;
  options.base_backoff_seconds = 0.010;
  options.max_backoff_seconds = 0.040;
  options.jitter = 0.5;
  const RetryPolicy a(options, /*seed=*/42);
  const RetryPolicy b(options, /*seed=*/42);
  EXPECT_EQ(a.BackoffSeconds(0), 0.0);
  for (size_t attempt = 1; attempt <= 5; ++attempt) {
    const double backoff = a.BackoffSeconds(attempt);
    // Deterministic in (options, seed, attempt).
    EXPECT_EQ(backoff, b.BackoffSeconds(attempt));
    // Jitter scales the capped exponential schedule by [0.5, 1.5].
    const double raw = std::min(
        options.base_backoff_seconds * std::pow(2.0, double(attempt - 1)),
        options.max_backoff_seconds);
    EXPECT_GE(backoff, raw * 0.5);
    EXPECT_LE(backoff, raw * 1.5);
  }
  // A different seed decorrelates concurrent sessions.
  const RetryPolicy c(options, /*seed=*/43);
  bool any_differs = false;
  for (size_t attempt = 1; attempt <= 5; ++attempt) {
    any_differs |= c.BackoffSeconds(attempt) != a.BackoffSeconds(attempt);
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryPolicyTest, ZeroJitterGivesExactExponentialSchedule) {
  RetryPolicy::Options options;
  options.base_backoff_seconds = 0.004;
  options.max_backoff_seconds = 0.010;
  options.jitter = 0.0;
  const RetryPolicy policy(options, /*seed=*/1);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.004);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 0.008);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 0.010);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(9), 0.010);
}

// ---- CircuitBreaker (fake clock) --------------------------------------

TEST(CircuitBreakerTest, TripsAtThresholdAndRecoversThroughHalfOpen) {
  double now = 0.0;
  CircuitBreaker breaker({.failure_threshold = 2, .cooldown_seconds = 5.0},
                         [&now] { return now; });
  EXPECT_TRUE(breaker.enabled());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1u);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  // Open: refused until the cooldown elapses.
  EXPECT_FALSE(breaker.Allow());
  now = 4.9;
  EXPECT_FALSE(breaker.Allow());

  // Past the cooldown: exactly one half-open trial.
  now = 5.1;
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // trial already in flight

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensAndRestartsCooldown) {
  double now = 0.0;
  CircuitBreaker breaker({.failure_threshold = 1, .cooldown_seconds = 2.0},
                         [&now] { return now; });
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  now = 2.5;
  EXPECT_TRUE(breaker.Allow());  // half-open trial
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  // The cooldown restarted at the re-open, not the original trip.
  now = 4.0;
  EXPECT_FALSE(breaker.Allow());
  now = 4.6;
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, ZeroThresholdDisablesEverything) {
  CircuitBreaker breaker({.failure_threshold = 0, .cooldown_seconds = 1.0});
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) {
    breaker.RecordFailure();
    EXPECT_TRUE(breaker.Allow());
  }
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---- Fallback-reason vocabulary ---------------------------------------

TEST(FallbackReasonTest, NormalizesStatusesToMachineReadableReasons) {
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::DeadlineExceeded("late")),
            "deadline");
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::Cancelled("stop")),
            "cancelled");
  EXPECT_EQ(core::FallbackReasonFromStatus(
                Status::ResourceExhausted("row budget exceeded: 10 > 5")),
            "row_budget");
  EXPECT_EQ(core::FallbackReasonFromStatus(
                Status::ResourceExhausted("allocation failed")),
            "resource_exhausted");
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::ExecutionError("boom")),
            "exec_error");
  // Injected faults surface their point name regardless of the code.
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::ResourceExhausted(
                "injected fault(exec.join.alloc): build failed")),
            "fault:exec.join.alloc");
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::DeadlineExceeded(
                "injected fault(exec.deadline): deadline expired")),
            "fault:exec.deadline");
  // Anything else: the lowercase code name.
  EXPECT_EQ(core::FallbackReasonFromStatus(Status::NotFound("missing")),
            "notfound");
}

TEST(FallbackReasonTest, TierNames) {
  EXPECT_STREQ(core::AnswerTierName(core::AnswerTier::kApproximation),
               "approximation");
  EXPECT_STREQ(core::AnswerTierName(core::AnswerTier::kFullDatabase),
               "full_database");
  EXPECT_STREQ(core::AnswerTierName(core::AnswerTier::kLearned), "learned");
}

// ---- LearnedFallback over FLIGHTS -------------------------------------

/// RAII temp file (mirrors resilience_test's helper).
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

class LearnedFallbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.1;
    opts.workload_size = 4;
    opts.seed = 17;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeFlights(opts));  // NOLINT(asqp-naked-new)
    aqp::LearnedFallbackOptions fopts;
    fopts.seed = 5;
    // An empty approximation set: every table is stride-sampled, the
    // mode an offline-fitted synopsis ships in.
    auto fitted =
        aqp::LearnedFallback::Fit(*bundle_->db, storage::ApproximationSet{},
                                  fopts);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    fallback_ = new aqp::LearnedFallback(std::move(fitted).value());  // NOLINT(asqp-naked-new)
  }
  static void TearDownTestSuite() {
    delete fallback_;  // NOLINT(asqp-naked-new)
    fallback_ = nullptr;
    delete bundle_;  // NOLINT(asqp-naked-new)
    bundle_ = nullptr;
  }
  void TearDown() override { util::FaultInjector::Global().Reset(); }

  static util::Result<sql::BoundQuery> Bind(const std::string& sql) {
    return sql::ParseAndBind(sql, *bundle_->db);
  }

  static data::DatasetBundle* bundle_;
  static aqp::LearnedFallback* fallback_;
};

data::DatasetBundle* LearnedFallbackTest::bundle_ = nullptr;
aqp::LearnedFallback* LearnedFallbackTest::fallback_ = nullptr;

TEST_F(LearnedFallbackTest, FitCoversTablesAndCalibratesErrors) {
  EXPECT_TRUE(fallback_->has_table("flights"));
  EXPECT_TRUE(fallback_->has_table("carriers"));
  EXPECT_GE(fallback_->num_tables(), 3u);
  ASSERT_FALSE(fallback_->calibrated_errors().empty());
  for (const auto& [category, error] : fallback_->calibrated_errors()) {
    EXPECT_GE(error, 0.02) << category;
    EXPECT_LE(error, 1.0) << category;
  }
}

TEST_F(LearnedFallbackTest, CountEstimateTracksTruth) {
  ASSERT_OK_AND_ASSIGN(sql::BoundQuery bound,
                       Bind("SELECT COUNT(*) FROM flights WHERE month = 3"));
  ASSERT_TRUE(fallback_->CanAnswer(bound));
  ASSERT_OK_AND_ASSIGN(aqp::LearnedAnswer answer, fallback_->Answer(bound));
  EXPECT_GT(answer.error_estimate, 0.0);
  EXPECT_EQ(answer.category, "CNT");

  exec::QueryEngine engine;
  storage::DatabaseView view(bundle_->db.get());
  ASSERT_OK_AND_ASSIGN(exec::ResultSet truth, engine.Execute(bound, view));
  ASSERT_OK_AND_ASSIGN(double err,
                       metric::RelativeError(truth, answer.result,
                                             /*num_group_cols=*/0));
  EXPECT_LT(err, 0.25);
}

// The PR's acceptance criterion: on the Figure-12 aggregate workload the
// calibrated error estimates must be within 2x of the observed mean
// relative error (both directions — neither wildly optimistic nor
// uselessly pessimistic).
TEST_F(LearnedFallbackTest, ErrorEstimateWithinTwoXOfObservedMeanError) {
  const metric::Workload workload =
      data::MakeFlightsAggregateWorkload(*bundle_, /*count=*/12, /*seed=*/21);
  exec::QueryEngine engine;
  storage::DatabaseView view(bundle_->db.get());
  double sum_estimate = 0.0;
  double sum_observed = 0.0;
  size_t answered = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const sql::SelectStatement& stmt = workload.query(i).stmt;
    ASSERT_OK_AND_ASSIGN(sql::BoundQuery bound,
                         sql::Bind(stmt, *bundle_->db));
    ASSERT_TRUE(fallback_->CanAnswer(bound)) << stmt.ToSql();
    ASSERT_OK_AND_ASSIGN(aqp::LearnedAnswer answer, fallback_->Answer(bound));
    ASSERT_OK_AND_ASSIGN(exec::ResultSet truth, engine.Execute(bound, view));
    const size_t group_cols = stmt.group_by.size();
    ASSERT_OK_AND_ASSIGN(
        double observed,
        metric::RelativeError(truth, answer.result, group_cols));
    sum_estimate += answer.error_estimate;
    sum_observed += observed;
    ++answered;
  }
  ASSERT_EQ(answered, workload.size());
  const double mean_estimate = sum_estimate / double(answered);
  const double mean_observed = sum_observed / double(answered);
  // Two-sided 2x band, with a small absolute floor so a near-zero
  // observed error on this easy scale does not demand an impossibly
  // tight estimate.
  EXPECT_LE(mean_estimate, 2.0 * mean_observed + 0.05)
      << "estimates too pessimistic: est=" << mean_estimate
      << " obs=" << mean_observed;
  EXPECT_LE(mean_observed, 2.0 * mean_estimate + 0.05)
      << "estimates too optimistic: est=" << mean_estimate
      << " obs=" << mean_observed;
}

TEST_F(LearnedFallbackTest, RejectsQueriesOutsideItsClass) {
  // Non-aggregate SPJ.
  ASSERT_OK_AND_ASSIGN(sql::BoundQuery spj,
                       Bind("SELECT carrier FROM flights WHERE month = 1"));
  EXPECT_FALSE(fallback_->CanAnswer(spj));
  // Joins.
  ASSERT_OK_AND_ASSIGN(
      sql::BoundQuery join,
      Bind("SELECT COUNT(*) FROM flights f, carriers c "
           "WHERE f.carrier = c.code"));
  EXPECT_FALSE(fallback_->CanAnswer(join));
  // Numeric GROUP BY columns (the synopsis groups by category only).
  ASSERT_OK_AND_ASSIGN(
      sql::BoundQuery numeric_group,
      Bind("SELECT month, COUNT(*) FROM flights GROUP BY month"));
  EXPECT_FALSE(fallback_->CanAnswer(numeric_group));
  // LIMIT changes the result in ways a synopsis cannot model.
  ASSERT_OK_AND_ASSIGN(sql::BoundQuery limited,
                       Bind("SELECT COUNT(*) FROM flights LIMIT 1"));
  EXPECT_FALSE(fallback_->CanAnswer(limited));
}

TEST_F(LearnedFallbackTest, SaveLoadRoundTripPreservesAnswers) {
  std::stringstream buffer;
  ASSERT_OK(fallback_->SaveTo(buffer));
  ASSERT_OK_AND_ASSIGN(aqp::LearnedFallback loaded,
                       aqp::LearnedFallback::LoadFrom(buffer));
  EXPECT_EQ(loaded.num_tables(), fallback_->num_tables());
  EXPECT_EQ(loaded.calibrated_errors(), fallback_->calibrated_errors());

  ASSERT_OK_AND_ASSIGN(
      sql::BoundQuery bound,
      Bind("SELECT carrier, SUM(distance) FROM flights "
           "WHERE month = 6 GROUP BY carrier"));
  ASSERT_TRUE(loaded.CanAnswer(bound));
  ASSERT_OK_AND_ASSIGN(aqp::LearnedAnswer original, fallback_->Answer(bound));
  ASSERT_OK_AND_ASSIGN(aqp::LearnedAnswer restored, loaded.Answer(bound));
  EXPECT_EQ(restored.error_estimate, original.error_estimate);
  ASSERT_EQ(restored.result.num_rows(), original.result.num_rows());
  for (size_t i = 0; i < original.result.num_rows(); ++i) {
    EXPECT_EQ(restored.result.RowKey(i), original.result.RowKey(i));
  }
}

TEST_F(LearnedFallbackTest, IoPersistenceIsCrashSafeUnderInjectedFault) {
  TempPath path("learned_fallback.txt");
  ASSERT_OK(io::SaveLearnedFallback(*fallback_, path.str()));
  ASSERT_OK_AND_ASSIGN(aqp::LearnedFallback loaded,
                       io::LoadLearnedFallback(path.str()));
  EXPECT_EQ(loaded.calibrated_errors(), fallback_->calibrated_errors());

  // A failed re-save must not corrupt the existing file.
  util::FaultInjector::Global().Arm("io.fallback.write", /*count=*/1);
  util::Status failed = io::SaveLearnedFallback(*fallback_, path.str());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected fault(io.fallback.write)"),
            std::string::npos);
  EXPECT_EQ(core::FallbackReasonFromStatus(failed),
            "fault:io.fallback.write");
  ASSERT_OK_AND_ASSIGN(aqp::LearnedFallback survivor,
                       io::LoadLearnedFallback(path.str()));
  EXPECT_EQ(survivor.num_tables(), fallback_->num_tables());
}

// ---- The ladder end-to-end on a trained model -------------------------

class DegradationLadderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions opts;
    opts.scale = 0.1;
    opts.workload_size = 8;
    opts.seed = 17;
    // Suite fixture: paired with delete in TearDownTestSuite.
    bundle_ = new data::DatasetBundle(data::MakeFlights(opts));  // NOLINT(asqp-naked-new)

    core::AsqpConfig config;
    config.k = 200;
    config.frame_size = 20;
    config.num_representatives = 8;
    config.pool_target = 300;
    config.trainer.iterations = 4;
    config.trainer.episodes_per_iteration = 4;
    config.trainer.num_workers = 1;
    config.trainer.learning_rate = 2e-3;
    config.trainer.hidden_dim = 32;
    config.seed = 11;
    // Route everything through the approximation tier so every test
    // exercises the ladder, and make the breaker trip on the first late
    // full-database answer (threshold is baked at construction).
    config.answerable_threshold = 0.0;
    config.fallback_breaker_threshold = 1;
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
  void SetUp() override {
    // Tests share one model: normalize the breaker and the degradation
    // knobs they mutate.
    model_->circuit_breaker().RecordSuccess();
    model_->mutable_config().fallback_retry_attempts = 2;
    model_->mutable_config().fallback_full_db_rows_per_second = 0.0;
  }
  void TearDown() override { util::FaultInjector::Global().Reset(); }

  static sql::SelectStatement Parse(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return std::move(stmt).value();
  }

  static data::DatasetBundle* bundle_;
  static std::unique_ptr<core::AsqpModel> model_;
};

data::DatasetBundle* DegradationLadderTest::bundle_ = nullptr;
std::unique_ptr<core::AsqpModel> DegradationLadderTest::model_ = nullptr;

/// In the learned class: single-table aggregate over flights.
const char kAggregateSql[] = "SELECT COUNT(*) FROM flights WHERE month = 2";
/// Outside it: a join, so the ladder below tier 2 has nowhere to go.
const char kJoinSql[] =
    "SELECT c.name, f.distance FROM flights f, carriers c "
    "WHERE f.carrier = c.code AND f.month = 4";

TEST_F(DegradationLadderTest, HealthyQueryServesFromApproximationTier) {
  ASSERT_OK_AND_ASSIGN(core::AnswerResult result,
                       model_->Answer(Parse(kAggregateSql)));
  EXPECT_EQ(result.tier, core::AnswerTier::kApproximation);
  EXPECT_TRUE(result.used_approximation);
  EXPECT_FALSE(result.fell_back);
  EXPECT_TRUE(result.fallback_reason.empty());
  EXPECT_EQ(result.error_estimate, 0.0);
}

TEST_F(DegradationLadderTest, RetryRecoversFromTransientFault) {
  const core::AsqpModel::AnswerStats before = model_->answer_stats();
  // The first join-build allocation fails; the retry succeeds.
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/1);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult result,
                       model_->Answer(Parse(kJoinSql)));
  EXPECT_EQ(result.tier, core::AnswerTier::kApproximation);
  EXPECT_FALSE(result.fell_back);
  const core::AsqpModel::AnswerStats after = model_->answer_stats();
  EXPECT_GE(after.retries, before.retries + 1);
  EXPECT_EQ(after.approx_served, before.approx_served + 1);
}

TEST_F(DegradationLadderTest, ExhaustedRetriesDegradeToFullDatabase) {
  // No retries: the single transient failure degrades straight down the
  // ladder, and the full database (fault already spent) answers.
  model_->mutable_config().fallback_retry_attempts = 0;
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/1);
  ASSERT_OK_AND_ASSIGN(core::AnswerResult result,
                       model_->Answer(Parse(kJoinSql)));
  EXPECT_EQ(result.tier, core::AnswerTier::kFullDatabase);
  EXPECT_FALSE(result.used_approximation);
  EXPECT_TRUE(result.fell_back);
  EXPECT_EQ(result.fallback_reason, "fault:exec.join.alloc");
  EXPECT_EQ(result.error_estimate, 0.0);
  // An on-time degraded answer is a breaker success, not a failure.
  EXPECT_EQ(model_->circuit_breaker().state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(DegradationLadderTest, EveryTierExhaustedReturnsTypedDegraded) {
  // The fault fires on every join build: the approximation tier burns its
  // retries, the full database fails the same way, and a join is outside
  // the learned tier's class — the ladder ends in kDegraded, never a raw
  // allocation error.
  util::FaultInjector::Global().Arm("exec.join.alloc", /*count=*/-1);
  util::Result<core::AnswerResult> result = model_->Answer(Parse(kJoinSql));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDegraded);
  EXPECT_NE(result.status().message().find("fault:exec.join.alloc"),
            std::string::npos);
}

TEST_F(DegradationLadderTest, LateFullDatabaseTripsBreakerThenLearnedServes) {
  // An already-expired deadline: the approximation attempt dies on
  // arrival, the full database answers but *late*, and with threshold 1
  // that single late answer trips the breaker.
  const util::Deadline expired = util::Deadline::AfterSeconds(0.0);
  util::ExecContext context;
  context.set_deadline(expired);
  const uint64_t trips_before = model_->circuit_breaker().trips();

  ASSERT_OK_AND_ASSIGN(core::AnswerResult first,
                       model_->Answer(Parse(kAggregateSql), context));
  EXPECT_EQ(first.tier, core::AnswerTier::kFullDatabase);
  EXPECT_TRUE(first.fell_back);
  EXPECT_EQ(first.fallback_reason, "deadline");
  EXPECT_EQ(model_->circuit_breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(model_->circuit_breaker().trips(), trips_before + 1);

  // Breaker open: the next degraded query skips the full database and is
  // served by the learned tier with a calibrated error estimate.
  const core::AsqpModel::AnswerStats before = model_->answer_stats();
  ASSERT_OK_AND_ASSIGN(core::AnswerResult second,
                       model_->Answer(Parse(kAggregateSql), context));
  EXPECT_EQ(second.tier, core::AnswerTier::kLearned);
  EXPECT_TRUE(second.fell_back);
  EXPECT_EQ(second.fallback_reason, "deadline");
  EXPECT_GT(second.error_estimate, 0.0);
  EXPECT_EQ(model_->answer_stats().learned_served, before.learned_served + 1);
}

TEST_F(DegradationLadderTest, CostGateRoutesStraightToLearnedTier) {
  // At 1 row/s the full scan can never fit in an expired budget, so the
  // ladder skips tier 2 without consulting (or tripping) the breaker.
  model_->mutable_config().fallback_full_db_rows_per_second = 1.0;
  util::ExecContext context;
  context.set_deadline(util::Deadline::AfterSeconds(0.0));
  const uint64_t trips_before = model_->circuit_breaker().trips();

  ASSERT_OK_AND_ASSIGN(core::AnswerResult result,
                       model_->Answer(Parse(kAggregateSql), context));
  EXPECT_EQ(result.tier, core::AnswerTier::kLearned);
  EXPECT_TRUE(result.fell_back);
  EXPECT_EQ(result.fallback_reason, "deadline");
  EXPECT_GT(result.error_estimate, 0.0);
  EXPECT_EQ(model_->circuit_breaker().trips(), trips_before);
  EXPECT_EQ(model_->circuit_breaker().state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(DegradationLadderTest, TryLearnedAnswerHonorsTheSupportedClass) {
  ASSERT_OK_AND_ASSIGN(sql::BoundQuery aggregate,
                       sql::Bind(Parse(kAggregateSql), *model_->database()));
  ASSERT_OK_AND_ASSIGN(sql::BoundQuery join_query,
                       sql::Bind(Parse(kJoinSql), *model_->database()));
  const std::shared_ptr<const core::AsqpModel::Generation> generation =
      model_->current();
  ASSERT_OK_AND_ASSIGN(core::AnswerResult shed,
                       model_->TryLearnedAnswer(*generation, aggregate));
  EXPECT_EQ(shed.tier, core::AnswerTier::kLearned);
  EXPECT_TRUE(shed.fell_back);
  EXPECT_GT(shed.error_estimate, 0.0);
  // The caller (the serving layer's shed path) stamps the reason.
  EXPECT_TRUE(shed.fallback_reason.empty());

  util::Result<core::AnswerResult> join =
      model_->TryLearnedAnswer(*generation, join_query);
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace asqp
