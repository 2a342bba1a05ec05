#include "core/model.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "aqp/learned_fallback.h"
#include "core/trainer.h"
#include "metric/score.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/index.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace asqp {
namespace core {

namespace {

exec::ExecOptions ExecOptionsFor(
    const AsqpConfig& config,
    std::shared_ptr<const plan::StatsCatalog> stats) {
  exec::ExecOptions options;
  options.num_threads = config.exec_threads;
  if (config.exec_morsel_rows > 0) options.morsel_rows = config.exec_morsel_rows;
  options.enable_planner = config.planner;
  options.planner_stats = std::move(stats);
  return options;
}

util::CircuitBreaker::Options BreakerOptionsFor(const AsqpConfig& config) {
  return util::CircuitBreaker::Options{
      .failure_threshold = config.fallback_breaker_threshold,
      .cooldown_seconds = config.fallback_breaker_cooldown_seconds};
}

/// The failure classes the ladder degrades on; anything else (bad SQL
/// semantics, internal invariant violations surfaced as typed errors) is
/// the caller's problem and propagates unchanged.
bool IsDegradationClass(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kDeadlineExceeded:
    case util::StatusCode::kCancelled:
    case util::StatusCode::kResourceExhausted:
    case util::StatusCode::kExecutionError:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* AnswerTierName(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kApproximation: return "approximation";
    case AnswerTier::kFullDatabase: return "full_database";
    case AnswerTier::kLearned: return "learned";
  }
  return "unknown";
}

std::string FallbackReasonFromStatus(const util::Status& status) {
  const std::string& msg = status.message();
  // Injected faults name their point: "injected fault(<point>): ...".
  static constexpr char kFaultPrefix[] = "injected fault(";
  const size_t fault = msg.find(kFaultPrefix);
  if (fault != std::string::npos) {
    const size_t open = fault + sizeof(kFaultPrefix) - 1;
    const size_t close = msg.find(')', open);
    if (close != std::string::npos) {
      return "fault:" + msg.substr(open, close - open);
    }
  }
  switch (status.code()) {
    case util::StatusCode::kDeadlineExceeded:
      return "deadline";
    case util::StatusCode::kCancelled:
      return "cancelled";
    case util::StatusCode::kResourceExhausted:
      return msg.find("row budget") != std::string::npos ? "row_budget"
                                                         : "resource_exhausted";
    case util::StatusCode::kExecutionError:
      return "exec_error";
    default: {
      std::string name = util::Status::CodeName(status.code());
      for (char& c : name) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return name;
    }
  }
}

AsqpModel::AsqpModel(const storage::Database* db, AsqpConfig config,
                     PreprocessResult preprocess, rl::Policy policy)
    : db_(db),
      config_(std::move(config)),
      preprocess_(std::move(preprocess)),
      policy_(std::move(policy)),
      planner_stats_(db != nullptr ? std::make_shared<const plan::StatsCatalog>(
                                         plan::StatsCatalog::Collect(*db))
                                   : nullptr),
      engine_(ExecOptionsFor(config_, planner_stats_)),
      breaker_(BreakerOptionsFor(config_)) {
  std::vector<double> coverage(preprocess_.representative_embeddings.size(),
                               0.0);
  estimator_ = std::make_unique<AnswerabilityEstimator>(
      embed::QueryEmbedder(config_.embed_dim),
      preprocess_.representative_embeddings, std::move(coverage));
}

std::unique_ptr<rl::Env> AsqpModel::MakeEnv() const {
  return MakeEnvFactory(&preprocess_.space, config_)();
}

storage::ApproximationSet AsqpModel::GenerateApproximationSet(
    size_t req_size) const {
  const size_t budget = req_size == 0 ? config_.k : req_size;
  // Algorithm 2: sample actions from pi until |S| reaches req_size. We run
  // the greedy (argmax) variant: at inference there is no exploration
  // benefit, and greedy selection is deterministic for the user.
  rl::GslEnv env(&preprocess_.space, /*batch_size=*/0);
  util::Rng rng(config_.seed ^ 0xABCDEF01ULL);
  env.Reset(0, &rng);
  storage::ApproximationSet out;
  size_t steps = 0;
  const size_t max_steps = preprocess_.space.num_actions() + 1;
  while (steps < max_steps) {
    bool any_valid = false;
    for (uint8_t m : env.action_mask()) {
      if (m) {
        any_valid = true;
        break;
      }
    }
    if (!any_valid) break;
    const rl::Policy::ActResult act =
        policy_.Act(env.state(), env.action_mask(), &rng, /*greedy=*/true);
    const rl::StepResult step = env.Step(act.action);
    ++steps;
    // Track the realized set size against the requested budget.
    out = preprocess_.space.Materialize(env.SelectedActions());
    if (out.TotalTuples() >= budget || step.done) break;
  }
  return out;
}

void AsqpModel::MaterializeSet() {
  set_ = GenerateApproximationSet(config_.k);
  // Refit the learned fallback tier over the fresh approximation set (a
  // stale synopsis would answer with the *previous* generation's bias).
  learned_.reset();
  if (config_.fallback_learned_enabled) {
    aqp::LearnedFallbackOptions options;
    options.seed = config_.seed ^ 0x1ea51edfa11ULL;
    util::Result<aqp::LearnedFallback> fitted =
        aqp::LearnedFallback::Fit(*db_, set_, options);
    // A failed fit degrades gracefully: the ladder simply skips tier 1.
    if (fitted.ok()) {
      learned_ = std::make_shared<const aqp::LearnedFallback>(
          std::move(fitted).value());
    }
  }
  // Fresh set, fresh indexes: a stale catalog would binary-search ordinals
  // of the previous generation's subset. (FineTune re-stamps the catalog
  // after it publishes the bumped generation.)
  RebuildIndexes();
}

void AsqpModel::RebuildIndexes() {
  // Every column of the set is indexed: the set holds at most k tuples, so
  // exhaustive indexing is cheap, and the planner picks per query which
  // index (if any) pays. An index whose build fails is left out, and its
  // column is scanned in full: index presence never gates answering.
  index_catalog_ = std::make_shared<const storage::IndexCatalog>(
      storage::IndexCatalog::Build(storage::DatabaseView(db_, &set_),
                                   storage::AllIndexColumns(*db_),
                                   generation()));
  RebuildEngine();
}

void AsqpModel::RebuildEngine() {
  exec::ExecOptions options = ExecOptionsFor(config_, planner_stats_);
  options.shared_pool = exec_pool_;
  options.index_catalog = index_catalog_;
  engine_ = exec::QueryEngine(options);
}

void AsqpModel::CalibrateEstimator() {
  // Measure real per-representative coverage of the materialized set; the
  // estimator interpolates these measurements for unseen queries.
  metric::ScoreEvaluator evaluator(
      db_, metric::ScoreOptions{.frame_size = config_.frame_size});
  for (size_t i = 0; i < preprocess_.representatives.size(); ++i) {
    auto score =
        evaluator.QueryScore(preprocess_.representatives.query(i).stmt, set_);
    estimator_->SetCoverage(i, score.ok() ? score.value() : 0.0);
  }
}

double AsqpModel::EstimateAnswerability(
    const sql::SelectStatement& stmt) const {
  // Aggregates are estimated through their SPJ skeleton (Section 4.4).
  if (stmt.HasAggregates()) {
    return estimator_->Estimate(metric::StripAggregates(stmt));
  }
  return estimator_->Estimate(stmt);
}

util::Result<AnswerResult> AsqpModel::Answer(const sql::SelectStatement& stmt) {
  return Answer(stmt, util::ExecContext());
}

util::Result<AnswerResult> AsqpModel::Answer(const sql::SelectStatement& stmt,
                                             const util::ExecContext& context) {
  const double answerability = PrepareQuery(stmt);
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::Bind(stmt, *db_));
  return AnswerPrepared(bound, answerability, context);
}

double AsqpModel::PrepareQuery(const sql::SelectStatement& stmt) {
  const double answerability = EstimateAnswerability(stmt);

  // Drift bookkeeping (Section 4.4): confidently out-of-distribution
  // queries accumulate until fine-tuning is triggered. The deviation
  // confidence is the complement of the estimate just made on the same
  // SPJ skeleton (AnswerabilityEstimator::DeviationConfidence), so the
  // skeleton is copied only when it is recorded. Concurrent sessions
  // record through one mutex; everything else on the answer path reads
  // immutable inference state.
  if (1.0 - answerability > config_.drift_confidence) {
    sql::SelectStatement spj = stmt.HasAggregates()
                                   ? metric::StripAggregates(stmt)
                                   : stmt.Clone();
    std::lock_guard<std::mutex> lock(drift_mu_);
    drifted_queries_.push_back(std::move(spj));
  }
  return answerability;
}

util::ExecContext AsqpModel::ApproxContextFor(
    const util::ExecContext& context) const {
  // The caller's context bounds the approximation attempt when it
  // carries a deadline/cancellation; otherwise the configured per-query
  // deadline applies.
  util::ExecContext approx_context = context;
  if (context.deadline().IsUnlimited() &&
      config_.answer_deadline_seconds > 0.0) {
    approx_context.set_deadline(
        util::Deadline::AfterSeconds(config_.answer_deadline_seconds));
  }
  return approx_context;
}

util::Result<AnswerResult> AsqpModel::AnswerPrepared(
    const sql::BoundQuery& bound, double answerability,
    const util::ExecContext& context, const sql::BoundQuery* planned,
    const std::vector<exec::ScanSelection>* selections) {
  AnswerResult result;
  result.answerability = answerability;

  if (result.answerability >= config_.answerable_threshold) {
    if (planned != nullptr && ASQP_FAULT_POINT("serve.batch")) {
      // A faulted batch member degrades alone — straight down the ladder
      // with a machine-readable reason — while its peers keep their
      // shared-scan answers untouched.
      return DegradeFrom(
          bound, context,
          util::Status::ExecutionError(
              "injected fault(serve.batch): batched member execution failed"),
          std::move(result));
    }
    storage::DatabaseView view(db_, &set_);
    util::ExecContext approx_context = ApproxContextFor(context);
    // Tier 0 with bounded retries: transient failures (allocation
    // pressure, injected faults) get a jittered backoff and another
    // attempt, as long as the remaining deadline affords the sleep.
    // Deadline expiry and cancellation never retry.
    const util::RetryPolicy retry(
        util::RetryPolicy::Options{
            .max_retries = config_.fallback_retry_attempts,
            .base_backoff_seconds = config_.fallback_retry_backoff_seconds},
        config_.seed);
    util::Status failure = util::Status::OK();
    for (size_t attempt = 0;; ++attempt) {
      util::Result<exec::ResultSet> approx =
          planned != nullptr
              ? engine_.ExecutePlanned(*planned, view, *selections,
                                       approx_context)
              : engine_.Execute(bound, view, approx_context);
      if (approx.ok()) {
        result.result = std::move(approx).value();
        result.used_approximation = true;
        result.tier = AnswerTier::kApproximation;
        answered_.fetch_add(1, std::memory_order_relaxed);
        approx_served_.fetch_add(1, std::memory_order_relaxed);
        return result;
      }
      failure = approx.status();
      if (attempt >= retry.max_retries() ||
          !util::RetryPolicy::IsTransient(failure) ||
          approx_context.IsCancelled()) {
        break;
      }
      const double backoff = retry.BackoffSeconds(attempt + 1);
      if (approx_context.deadline().RemainingSeconds() <= backoff) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    // Degradation path: a deadline, cancellation, or resource limit on the
    // approximation-set execution degrades down the ladder rather than
    // failing the user's query. Genuine query errors (bad SQL semantics,
    // internal faults) still propagate.
    if (!IsDegradationClass(failure)) return failure;
    return DegradeFrom(bound, context, failure, std::move(result));
  }

  // Estimator-routed full-database path (answerability below the
  // threshold): not a degradation — deadline-free but still
  // cooperatively cancellable, errors propagate, breaker uninvolved.
  util::ExecContext full_context = context;
  full_context.set_deadline(util::Deadline::Unlimited());
  storage::DatabaseView view(db_);
  ASQP_ASSIGN_OR_RETURN(result.result,
                        engine_.Execute(bound, view, full_context));
  result.used_approximation = false;
  result.tier = AnswerTier::kFullDatabase;
  answered_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

util::Result<AnswerResult> AsqpModel::DegradeFrom(
    const sql::BoundQuery& bound, const util::ExecContext& context,
    const util::Status& failure, AnswerResult result) {
  result.fell_back = true;
  result.fallback_reason = FallbackReasonFromStatus(failure);
  util::Status degrade_cause = failure;

  // Tier 2, the full database, is attempted only when (a) the cost gate
  // says the remaining deadline budget affords a full scan and (b) the
  // circuit breaker is not open. The gate is evaluated *before* the
  // breaker: Allow() on a half-open breaker claims the single trial slot,
  // and a tier skipped after claiming it would leave the slot stuck.
  bool affordable = true;
  if (config_.fallback_full_db_rows_per_second > 0.0) {
    double rows = 0.0;
    for (const auto& table : bound.tables) {
      rows += static_cast<double>(table->num_rows());
    }
    affordable = rows / config_.fallback_full_db_rows_per_second <=
                 context.deadline().RemainingSeconds();
  }
  if (affordable && breaker_.Allow()) {
    // Deadline-free (degradation must be able to finish) but still
    // cooperatively cancellable by the caller.
    util::ExecContext full_context = context;
    full_context.set_deadline(util::Deadline::Unlimited());
    storage::DatabaseView view(db_);
    util::Result<exec::ResultSet> full =
        engine_.Execute(bound, view, full_context);
    // Breaker bookkeeping: a degraded full-database execution "fails" when
    // the caller's *original* deadline has expired by the time it
    // resolves — the answer arrived too late to matter, and consecutive
    // late answers mean the tier is overloaded. Raw Expired() here, never
    // Check(): the latter fires the exec.deadline fault point and would
    // trip the breaker for healthy clients under chaos testing.
    const bool late = context.deadline().Expired();
    if (full.ok()) {
      if (late) {
        breaker_.RecordFailure();
      } else {
        breaker_.RecordSuccess();
      }
      result.result = std::move(full).value();
      result.used_approximation = false;
      result.tier = AnswerTier::kFullDatabase;
      answered_.fetch_add(1, std::memory_order_relaxed);
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    if (!IsDegradationClass(full.status())) {
      // Genuine error: release a possibly-claimed half-open trial slot
      // (the tier itself is not overloaded) and propagate.
      breaker_.RecordSuccess();
      return full.status();
    }
    if (late) {
      breaker_.RecordFailure();
    } else {
      breaker_.RecordSuccess();
    }
    degrade_cause = full.status();
  }

  // Tier 1: the learned answerer — reached when the full database is
  // unaffordable, breaker-blocked, or itself degraded.
  util::Result<AnswerResult> learned =
      AnswerLearnedTier(bound, degrade_cause, std::move(result));
  if (learned.ok()) {
    answered_.fetch_add(1, std::memory_order_relaxed);
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return learned;
}

std::vector<util::Result<AnswerResult>> AsqpModel::AnswerBatch(
    const std::vector<BatchQuery>& queries,
    std::atomic<uint64_t>& scans_saved) {
  const size_t n = queries.size();
  // Estimate every member. Members with no scan to share are answered at
  // once, exactly as Answer() answers them: the only member of a
  // one-query batch (keeping its own plan, index range scans and retry
  // policy), and below-threshold members, which the estimator routes to
  // the full database (the shared scan is an approximation-set pass).
  std::vector<std::optional<util::Result<AnswerResult>>> answers(n);
  std::vector<double> answerability(n);
  std::vector<size_t> batched;
  for (size_t i = 0; i < n; ++i) {
    answerability[i] = PrepareQuery(queries[i].bound->stmt);
    if (n == 1 || answerability[i] < config_.answerable_threshold) {
      answers[i] = AnswerPrepared(*queries[i].bound, answerability[i],
                                  queries[i].context);
    } else {
      batched.push_back(i);
    }
  }

  // Plan every shared-scan member once, for its scan and its execution,
  // and group (member, FROM index) pairs by table. std::map: deterministic
  // scan order regardless of pointer layout. Vectors below are indexed by
  // a member's position in `batched`.
  storage::DatabaseView view(db_, &set_);
  const size_t k = batched.size();
  std::vector<sql::BoundQuery> planned;
  planned.reserve(k);
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> groups;
  // The scan runs under the batch's most generous member deadline: a
  // tighter member's own context still bounds its execution below, so
  // per-member deadlines hold; a generous member is never truncated by a
  // tight peer.
  double max_remaining = 0.0;
  bool any_unlimited = batched.empty();
  for (size_t j = 0; j < k; ++j) {
    const BatchQuery& query = queries[batched[j]];
    planned.push_back(engine_.PlanForView(*query.bound, view));
    for (size_t t = 0; t < planned[j].num_tables(); ++t) {
      groups[planned[j].tables[t]->name()].push_back({j, t});
    }
    const util::Deadline deadline =
        ApproxContextFor(query.context).deadline();
    any_unlimited = any_unlimited || deadline.IsUnlimited();
    if (!any_unlimited) {
      max_remaining = std::max(max_remaining, deadline.RemainingSeconds());
    }
  }
  util::ExecContext scan_context;
  if (!any_unlimited) {
    scan_context.set_deadline(util::Deadline::AfterSeconds(max_remaining));
  }

  std::vector<std::vector<exec::ScanSelection>> selections(k);
  for (size_t j = 0; j < k; ++j) selections[j].resize(planned[j].num_tables());
  util::Status scan_status = util::Status::OK();
  uint64_t saved = 0;
  for (auto& group : groups) {
    const std::vector<std::pair<size_t, size_t>>& entries = group.second;
    const storage::Table& table =
        *planned[entries[0].first].tables[entries[0].second];
    std::vector<exec::SharedScanMember> members;
    members.reserve(entries.size());
    for (const auto& entry : entries) {
      members.push_back(
          exec::SharedScanMember{&planned[entry.first], entry.second});
    }
    std::vector<std::vector<uint32_t>> rows;
    scan_status =
        engine_.SharedFilterScan(view, table, members, scan_context, &rows);
    if (!scan_status.ok()) break;
    for (size_t e = 0; e < entries.size(); ++e) {
      selections[entries[e].first][entries[e].second] =
          std::make_shared<const std::vector<uint32_t>>(std::move(rows[e]));
    }
    saved += entries.size() - 1;
  }
  // A failed shared pass (batch-wide deadline, injected scan fault) saved
  // nothing and leaves each member its unshared solo path.
  const bool shared = scan_status.ok();
  if (shared && saved > 0) {
    scans_saved.fetch_add(saved, std::memory_order_relaxed);
  }

  // Every member runs the solo ladder over its plan and its selections.
  for (size_t j = 0; j < k; ++j) {
    const size_t i = batched[j];
    answers[i] = AnswerPrepared(*queries[i].bound, answerability[i],
                                queries[i].context,
                                shared ? &planned[j] : nullptr,
                                shared ? &selections[j] : nullptr);
  }
  std::vector<util::Result<AnswerResult>> results;
  results.reserve(n);
  for (auto& answer : answers) results.push_back(std::move(*answer));
  return results;
}

util::Result<AnswerResult> AsqpModel::AnswerLearnedTier(
    const sql::BoundQuery& bound, const util::Status& cause,
    AnswerResult result) const {
  util::Result<AnswerResult> learned = TryLearnedAnswer(bound);
  if (!learned.ok()) {
    return util::Status::Degraded(
        "every degradation tier exhausted (reason: " +
        FallbackReasonFromStatus(cause) + "); last failure: " +
        cause.ToString());
  }
  learned.value().answerability = result.answerability;
  learned.value().fallback_reason = std::move(result.fallback_reason);
  return learned;
}

util::Result<AnswerResult> AsqpModel::TryLearnedAnswer(
    const sql::BoundQuery& bound) const {
  // Snapshot the pointer: FineTune swaps learned_ under the serving
  // layer's writer lock, but model-level callers may race MaterializeSet
  // in tests — a local shared_ptr keeps the synopsis alive regardless.
  const std::shared_ptr<const aqp::LearnedFallback> learned = learned_;
  if (learned == nullptr) {
    return util::Status::NotFound("no learned fallback fitted");
  }
  if (!learned->CanAnswer(bound)) {
    return util::Status::InvalidArgument(
        "query outside the learned fallback's supported class");
  }
  ASQP_ASSIGN_OR_RETURN(aqp::LearnedAnswer answer, learned->Answer(bound));
  AnswerResult result;
  result.result = std::move(answer.result);
  result.used_approximation = false;
  result.tier = AnswerTier::kLearned;
  result.fell_back = true;
  result.error_estimate = answer.error_estimate;
  learned_served_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void AsqpModel::SetExecutionPool(std::shared_ptr<util::ThreadPool> pool) {
  // Rebuilding the engine keeps the planner configuration, statistics, and
  // index catalog: routing execution through a shared pool must not change
  // plans (or bytes — the serving layer's cached answers assume both).
  exec_pool_ = std::move(pool);
  RebuildEngine();
}

util::Result<AnswerResult> AsqpModel::AnswerSql(const std::string& sql) {
  ASQP_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(sql));
  return Answer(stmt);
}

bool AsqpModel::NeedsFineTuning() const {
  std::lock_guard<std::mutex> lock(drift_mu_);
  return drifted_queries_.size() >= config_.drift_trigger;
}

util::Status AsqpModel::FineTune(const metric::Workload& new_queries) {
  // Merge the drifted / provided queries with the existing representatives
  // (recent interests weighted up) and retrain with a shortened schedule.
  // FineTune is a writer (it swaps the policy/estimator/approximation
  // set): callers serialize it against concurrent Answer()s — the drift
  // lock below only protects the vector itself.
  size_t drift_count = 0;
  metric::Workload merged;
  for (const metric::WeightedQuery& q :
       preprocess_.representatives.queries()) {
    merged.Add(q.stmt.Clone(), q.weight);
  }
  const double boost =
      2.0 / std::max<size_t>(1, new_queries.size());
  for (const metric::WeightedQuery& q : new_queries.queries()) {
    merged.Add(q.stmt.Clone(), boost);
  }
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    for (const sql::SelectStatement& q : drifted_queries_) {
      merged.Add(q.Clone(), boost);
    }
    drift_count = drifted_queries_.size();
  }
  merged.NormalizeWeights();

  AsqpConfig tune_config = config_;
  tune_config.trainer.iterations =
      std::max<size_t>(4, config_.trainer.iterations / 2);
  tune_config.seed = config_.seed + 1 + drift_count;

  ASQP_ASSIGN_OR_RETURN(PreprocessResult preprocess,
                        Preprocess(*db_, merged, tune_config));
  rl::TrainerConfig trainer_config = tune_config.trainer;
  trainer_config.seed ^= tune_config.seed;
  ASQP_ASSIGN_OR_RETURN(
      rl::TrainResult trained,
      rl::Train(MakeEnvFactory(&preprocess.space, tune_config),
                trainer_config));

  preprocess_ = std::move(preprocess);
  policy_ = std::move(trained.policy);
  estimator_ = std::make_unique<AnswerabilityEstimator>(
      embed::QueryEmbedder(config_.embed_dim),
      preprocess_.representative_embeddings,
      std::vector<double>(preprocess_.representative_embeddings.size(), 0.0));
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    drifted_queries_.clear();
  }
  MaterializeSet();
  CalibrateEstimator();
  // Publish the new approximation-set generation last: a cached answer
  // stamped with the old generation is stale from this point on.
  generation_.fetch_add(1, std::memory_order_release);
  // Re-stamp the index catalog with the generation it now serves (the
  // rebuild inside MaterializeSet ran before the bump). FineTune is
  // serialized against Answer, so nothing executes between the two swaps;
  // the second build over the <= k-tuple set is cheap.
  RebuildIndexes();
  return util::Status::OK();
}

}  // namespace core
}  // namespace asqp
