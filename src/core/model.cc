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

/// An engine with `config`'s executor settings, on `pool`.
exec::QueryEngine EngineFor(
    const AsqpConfig& config, std::shared_ptr<const plan::StatsCatalog> stats,
    std::shared_ptr<util::ThreadPool> pool,
    std::shared_ptr<const storage::IndexCatalog> catalog) {
  exec::ExecOptions options;
  options.num_threads = config.exec_threads;
  if (config.exec_morsel_rows > 0) options.morsel_rows = config.exec_morsel_rows;
  options.enable_planner = config.planner;
  options.planner_stats = std::move(stats);
  options.shared_pool = std::move(pool);
  options.index_catalog = std::move(catalog);
  return exec::QueryEngine(options);
}

/// Algorithm 2: sample actions from `policy` until `budget` base tuples are
/// selected. Greedy (argmax): at inference there is no exploration
/// benefit, and greedy selection is deterministic for the user.
storage::ApproximationSet GreedySet(const PreprocessResult& preprocess,
                                    const rl::Policy& policy, uint64_t seed,
                                    size_t budget) {
  rl::GslEnv env(&preprocess.space, /*batch_size=*/0);
  util::Rng rng(seed ^ 0xABCDEF01ULL);
  env.Reset(0, &rng);
  storage::ApproximationSet out;
  for (size_t steps = 0; steps <= preprocess.space.num_actions(); ++steps) {
    const std::vector<uint8_t>& mask = env.action_mask();
    if (std::find(mask.begin(), mask.end(), 1) == mask.end()) break;
    const rl::Policy::ActResult act =
        policy.Act(env.state(), mask, &rng, /*greedy=*/true);
    const rl::StepResult step = env.Step(act.action);
    // Track the realized set size against the requested budget.
    out = preprocess.space.Materialize(env.SelectedActions());
    if (out.TotalTuples() >= budget || step.done) break;
  }
  return out;
}

/// Aggregates are estimated through their SPJ skeleton (Section 4.4).
double Estimate(const AnswerabilityEstimator& estimator,
                const sql::SelectStatement& stmt) {
  if (!stmt.HasAggregates()) return estimator.Estimate(stmt);
  return estimator.Estimate(metric::StripAggregates(stmt));
}

/// An estimator over `preprocess`'s representatives, no coverage measured.
AnswerabilityEstimator Uncalibrated(const AsqpConfig& config,
                                    const PreprocessResult& preprocess) {
  return AnswerabilityEstimator(
      embed::QueryEmbedder(config.embed_dim),
      preprocess.representative_embeddings,
      std::vector<double>(preprocess.representative_embeddings.size(), 0.0));
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
      planner_stats_(db != nullptr ? std::make_shared<const plan::StatsCatalog>(
                                         plan::StatsCatalog::Collect(*db))
                                   : nullptr),
      breaker_(BreakerOptionsFor(config_)) {
  // Generation 0 before Train materializes it: no tuples, no indexes.
  auto trained = std::make_shared<const PreprocessResult>(std::move(preprocess));
  current_ = std::make_shared<const Generation>(Generation{
      .preprocess = trained,
      .policy = std::move(policy),
      .set = std::make_shared<const storage::ApproximationSet>(),
      .index_catalog = nullptr,
      .engine = EngineFor(config_, planner_stats_, nullptr, nullptr),
      .estimator = Uncalibrated(config_, *trained),
      .learned = nullptr});
}

storage::ApproximationSet AsqpModel::GenerateApproximationSet(
    size_t req_size) const {
  const std::shared_ptr<const Generation> generation = current();
  return GreedySet(*generation->preprocess, generation->policy, config_.seed,
                   req_size == 0 ? config_.k : req_size);
}

void AsqpModel::MaterializeSet() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const Generation> trained = current();
  Publish(Build(trained->number, trained->preprocess, trained->policy,
                trained->engine.options().shared_pool));
}

std::shared_ptr<const AsqpModel::Generation> AsqpModel::Build(
    uint64_t number, std::shared_ptr<const PreprocessResult> preprocess,
    rl::Policy policy, std::shared_ptr<util::ThreadPool> pool) const {
  auto set = std::make_shared<const storage::ApproximationSet>(
      GreedySet(*preprocess, policy, config_.seed, config_.k));
  // Fit the learned fallback tier over the fresh set (a stale synopsis
  // would answer with the previous generation's bias).
  std::shared_ptr<const aqp::LearnedFallback> learned;
  if (config_.fallback_learned_enabled) {
    aqp::LearnedFallbackOptions options;
    options.seed = config_.seed ^ 0x1ea51edfa11ULL;
    util::Result<aqp::LearnedFallback> fitted =
        aqp::LearnedFallback::Fit(*db_, *set, options);
    // A failed fit degrades gracefully: the ladder simply skips tier 1.
    if (fitted.ok()) {
      learned = std::make_shared<const aqp::LearnedFallback>(
          std::move(fitted).value());
    }
  }
  // Every column of the set is indexed: the set holds at most k tuples, so
  // exhaustive indexing is cheap, and the planner picks per query which
  // index (if any) pays. An index whose build fails is left out, and its
  // column is scanned in full: index presence never gates answering.
  auto catalog = std::make_shared<const storage::IndexCatalog>(
      storage::IndexCatalog::Build(storage::DatabaseView(db_, set.get()),
                                   storage::AllIndexColumns(*db_), number));
  // Measure real per-representative coverage of the set; the estimator
  // interpolates these measurements for unseen queries.
  AnswerabilityEstimator estimator = Uncalibrated(config_, *preprocess);
  metric::ScoreEvaluator evaluator(
      db_, metric::ScoreOptions{.frame_size = config_.frame_size});
  for (size_t i = 0; i < preprocess->representatives.size(); ++i) {
    auto score =
        evaluator.QueryScore(preprocess->representatives.query(i).stmt, *set);
    estimator.SetCoverage(i, score.ok() ? score.value() : 0.0);
  }
  return std::make_shared<const Generation>(Generation{
      .number = number,
      .preprocess = std::move(preprocess),
      .policy = std::move(policy),
      .set = std::move(set),
      .index_catalog = catalog,
      .engine = EngineFor(config_, planner_stats_, std::move(pool), catalog),
      .estimator = std::move(estimator),
      .learned = std::move(learned)});
}

void AsqpModel::Publish(std::shared_ptr<const Generation> next) {
  // `next` leaves with the previous generation, freed after the unlock.
  std::lock_guard<std::mutex> lock(current_mu_);
  current_.swap(next);
  generation_.store(current_->number, std::memory_order_release);
}

double AsqpModel::EstimateAnswerability(
    const sql::SelectStatement& stmt) const {
  return Estimate(current()->estimator, stmt);
}

util::Result<AnswerResult> AsqpModel::Answer(const sql::SelectStatement& stmt) {
  return Answer(stmt, util::ExecContext());
}

util::Result<AnswerResult> AsqpModel::Answer(const sql::SelectStatement& stmt,
                                             const util::ExecContext& context) {
  const std::shared_ptr<const Generation> generation = current();
  const double answerability = PrepareQuery(*generation, stmt);
  ASQP_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::Bind(stmt, *db_));
  return AnswerPrepared(*generation, bound, answerability, context);
}

double AsqpModel::PrepareQuery(const Generation& generation,
                               const sql::SelectStatement& stmt) {
  const double answerability = Estimate(generation.estimator, stmt);

  // Drift bookkeeping (Section 4.4): confidently out-of-distribution
  // queries accumulate until fine-tuning is triggered. The deviation
  // confidence is the complement of the estimate just made on the same
  // SPJ skeleton (AnswerabilityEstimator::DeviationConfidence), so the
  // skeleton is copied only when it is recorded. Concurrent sessions
  // record through one mutex; everything else on the answer path reads
  // the pinned generation.
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
    const Generation& generation, const sql::BoundQuery& bound,
    double answerability, const util::ExecContext& context,
    const sql::BoundQuery* planned,
    const std::vector<exec::ScanSelection>* selections) {
  AnswerResult result;
  result.answerability = answerability;

  if (result.answerability >= config_.answerable_threshold) {
    if (planned != nullptr && ASQP_FAULT_POINT("serve.batch")) {
      // A faulted batch member degrades alone — straight down the ladder
      // with a machine-readable reason — while its peers keep their
      // shared-scan answers untouched.
      return DegradeFrom(
          generation, bound, context,
          util::Status::ExecutionError(
              "injected fault(serve.batch): batched member execution failed"),
          std::move(result));
    }
    storage::DatabaseView view(db_, generation.set.get());
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
              ? generation.engine.ExecutePlanned(*planned, view, *selections,
                                                 approx_context)
              : generation.engine.Execute(bound, view, approx_context);
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
    return DegradeFrom(generation, bound, context, failure, std::move(result));
  }

  // Estimator-routed full-database path (answerability below the
  // threshold): not a degradation — deadline-free but still
  // cooperatively cancellable, errors propagate, breaker uninvolved.
  util::ExecContext full_context = context;
  full_context.set_deadline(util::Deadline::Unlimited());
  storage::DatabaseView view(db_);
  ASQP_ASSIGN_OR_RETURN(result.result,
                        generation.engine.Execute(bound, view, full_context));
  result.used_approximation = false;
  result.tier = AnswerTier::kFullDatabase;
  answered_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

util::Result<AnswerResult> AsqpModel::DegradeFrom(
    const Generation& generation, const sql::BoundQuery& bound,
    const util::ExecContext& context, const util::Status& failure,
    AnswerResult result) {
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
        generation.engine.Execute(bound, view, full_context);
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
  util::Result<AnswerResult> learned = AnswerLearnedTier(
      generation, bound, degrade_cause, std::move(result));
  if (learned.ok()) {
    answered_.fetch_add(1, std::memory_order_relaxed);
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return learned;
}

std::vector<util::Result<AnswerResult>> AsqpModel::AnswerBatch(
    const Generation& generation, const std::vector<BatchQuery>& queries,
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
    answerability[i] = PrepareQuery(generation, queries[i].bound->stmt);
    if (n == 1 || answerability[i] < config_.answerable_threshold) {
      answers[i] = AnswerPrepared(generation, *queries[i].bound,
                                  answerability[i], queries[i].context);
    } else {
      batched.push_back(i);
    }
  }

  // Plan every shared-scan member once, for its scan and its execution,
  // and group (member, FROM index) pairs by table. std::map: deterministic
  // scan order regardless of pointer layout. Vectors below are indexed by
  // a member's position in `batched`.
  storage::DatabaseView view(db_, generation.set.get());
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
    planned.push_back(generation.engine.PlanForView(*query.bound, view));
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
    scan_status = generation.engine.SharedFilterScan(view, table, members,
                                                     scan_context, &rows);
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
    answers[i] = AnswerPrepared(generation, *queries[i].bound,
                                answerability[i], queries[i].context,
                                shared ? &planned[j] : nullptr,
                                shared ? &selections[j] : nullptr);
  }
  std::vector<util::Result<AnswerResult>> results;
  results.reserve(n);
  for (auto& answer : answers) results.push_back(std::move(*answer));
  return results;
}

util::Result<AnswerResult> AsqpModel::AnswerLearnedTier(
    const Generation& generation, const sql::BoundQuery& bound,
    const util::Status& cause, AnswerResult result) const {
  util::Result<AnswerResult> learned = TryLearnedAnswer(generation, bound);
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
    const Generation& generation, const sql::BoundQuery& bound) const {
  if (generation.learned == nullptr) {
    return util::Status::NotFound("no learned fallback fitted");
  }
  if (!generation.learned->CanAnswer(bound)) {
    return util::Status::InvalidArgument(
        "query outside the learned fallback's supported class");
  }
  ASQP_ASSIGN_OR_RETURN(aqp::LearnedAnswer answer,
                        generation.learned->Answer(bound));
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
  // The current generation on another pool: plans, bytes and the number
  // stay (cached answers assume all three); the rest is shared.
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto next = std::make_shared<Generation>(*current());
  next->engine =
      EngineFor(config_, planner_stats_, std::move(pool), next->index_catalog);
  Publish(std::move(next));
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
  // Merge the drifted / provided queries with the current representatives
  // (recent interests weighted up) and retrain with a shortened schedule,
  // while readers answer from the current generation.
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const Generation> base = current();
  metric::Workload merged;
  for (const metric::WeightedQuery& q :
       base->preprocess->representatives.queries()) {
    merged.Add(q.stmt.Clone(), q.weight);
  }
  const double boost = 2.0 / std::max<size_t>(1, new_queries.size());
  for (const metric::WeightedQuery& q : new_queries.queries()) {
    merged.Add(q.stmt.Clone(), boost);
  }
  // The drift list as it stands now. An arrival recorded while this runs
  // stays for the next fine-tune, and a failed one leaves the list whole.
  size_t drift_count = 0;
  {
    std::lock_guard<std::mutex> drift_lock(drift_mu_);
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

  std::shared_ptr<const Generation> next =
      Build(base->number + 1,
            std::make_shared<const PreprocessResult>(std::move(preprocess)),
            std::move(trained.policy), base->engine.options().shared_pool);
  {
    std::lock_guard<std::mutex> drift_lock(drift_mu_);
    drifted_queries_.erase(drifted_queries_.begin(),
                           drifted_queries_.begin() + drift_count);
  }
  Publish(std::move(next));
  return util::Status::OK();
}

}  // namespace core
}  // namespace asqp
