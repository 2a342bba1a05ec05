// The trained ASQP-RL model: inference (Algorithm 2), the user-facing
// Answer() mediator, interest-drift detection, and fine-tuning.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/estimator.h"
#include "core/preprocess.h"
#include "exec/executor.h"
#include "metric/workload.h"
#include "plan/stats.h"
#include "rl/policy.h"
#include "storage/database.h"
#include "util/annotations.h"
#include "util/retry.h"
#include "util/status.h"

namespace asqp {

namespace aqp {
class LearnedFallback;
}  // namespace aqp

namespace storage {
class IndexCatalog;
}  // namespace storage

namespace core {

/// Which tier of the degradation ladder produced an answer.
enum class AnswerTier {
  kApproximation = 0,  ///< tier 0: the approximation set
  kFullDatabase = 1,   ///< tier 2: degraded full-database execution
  kLearned = 2,        ///< tier 1: the learned (ML-AQP-style) answerer
};

const char* AnswerTierName(AnswerTier tier);

/// Normalize a failure Status into the machine-readable degradation
/// vocabulary carried by AnswerResult::fallback_reason:
///   kDeadlineExceeded                  -> "deadline"
///   kCancelled                         -> "cancelled"
///   kResourceExhausted ("row budget")  -> "row_budget"
///   any message "injected fault(<p>)"  -> "fault:<p>"
///   kResourceExhausted (other)         -> "resource_exhausted"
///   kExecutionError                    -> "exec_error"
///   anything else                      -> lowercase code name
std::string FallbackReasonFromStatus(const util::Status& status);

/// \brief Outcome of answering one user query through the mediator.
struct AnswerResult {
  exec::ResultSet result;
  /// True when served from the approximation set, false when the estimator
  /// routed the query to the full database.
  bool used_approximation = false;
  /// The ladder tier that produced `result` (kApproximation also covers
  /// the estimator-routed full-database path when `fell_back` is false —
  /// check `tier` for the executing tier).
  AnswerTier tier = AnswerTier::kApproximation;
  /// The estimator's answerability score for this query.
  double answerability = 0.0;
  /// True when the approximation-set execution was attempted but abandoned
  /// (deadline, cancellation, or resource exhaustion) and the result came
  /// from a degraded tier (full database or learned answerer) instead.
  bool fell_back = false;
  /// Why the mediator degraded, normalized by FallbackReasonFromStatus
  /// ("deadline", "cancelled", "row_budget", "fault:<point>", ...; the
  /// serving layer's shed paths use "shed:<cause>"). Empty when
  /// `fell_back` is false.
  std::string fallback_reason;
  /// Estimated relative error of `result`: 0 for exact tiers
  /// (approximation set answers are exact over the subset; full-database
  /// answers are exact, period), the calibrated per-category bound for
  /// learned answers (aqp::LearnedFallback).
  double error_estimate = 0.0;
  /// True when the serving layer returned a cached answer without
  /// executing (serve::ServeEngine; always false from AsqpModel::Answer).
  bool from_cache = false;
};

class AsqpModel {
 public:
  /// Everything a request reads, and the trained state the next fine-tune
  /// starts from: built to the side, published whole, never changed after.
  struct Generation {
    /// Bumped by every FineTune; stamps the index catalog and, in the
    /// serving layer, every cached answer.
    uint64_t number = 0;
    std::shared_ptr<const PreprocessResult> preprocess;
    rl::Policy policy;
    /// Shared, never copied, by a republish: the index catalog covers this
    /// object only (IndexCatalog::CoversView), and a copy would turn every
    /// index scan into a full scan.
    std::shared_ptr<const storage::ApproximationSet> set;
    std::shared_ptr<const storage::IndexCatalog> index_catalog;
    exec::QueryEngine engine;  ///< carries index_catalog and the pool
    AnswerabilityEstimator estimator;  ///< calibrated against `set`
    /// Fitted over `set`; null when disabled or when the fit failed.
    std::shared_ptr<const aqp::LearnedFallback> learned;
  };

  AsqpModel(const storage::Database* db, AsqpConfig config,
            PreprocessResult preprocess, rl::Policy policy);

  /// The published generation: a request pins it once and answers from it
  /// alone, whatever is published meanwhile.
  std::shared_ptr<const Generation> current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Algorithm 2: sample tuple-group actions from the current policy until
  /// `req_size` base tuples are selected (0 = the configured budget k).
  storage::ApproximationSet GenerateApproximationSet(size_t req_size = 0) const;

  /// The current approximation set, valid until the next FineTune
  /// publishes (pin current() to hold one across it).
  const storage::ApproximationSet& approximation_set() const {
    return *current()->set;
  }

  /// Answerability estimate in [0, 1] for a query (Section 4.4).
  double EstimateAnswerability(const sql::SelectStatement& stmt) const;

  /// Answer a query through the mediator: approximation set when the
  /// estimator deems it answerable (estimate >= threshold), otherwise the
  /// full database. Aggregate queries are estimated via their SPJ skeleton
  /// but executed as written. Records drift statistics. The estimate, the
  /// route and every tier of the ladder read one pinned generation.
  ///
  /// Thread safety: any number of Answer() calls may run at once, and
  /// alongside FineTune() and SetExecutionPool().
  [[nodiscard]] util::Result<AnswerResult> Answer(const sql::SelectStatement& stmt);
  /// As above, but the caller's ExecContext (deadline / cancellation)
  /// bounds the approximation-set attempt; when it is unlimited the
  /// configured answer_deadline_seconds applies instead. The degraded
  /// full-database fallback still honors cancellation but not the
  /// deadline (degradation must be able to finish).
  [[nodiscard]] util::Result<AnswerResult> Answer(const sql::SelectStatement& stmt,
                                                  const util::ExecContext& context);
  [[nodiscard]] util::Result<AnswerResult> AnswerSql(const std::string& sql);

  /// One member of a batched Answer (see AnswerBatch).
  struct BatchQuery {
    /// The query bound against database(), executed without binding
    /// again; must outlive the AnswerBatch call. The estimator and the
    /// drift list read `bound->stmt`: binding only annotates column refs
    /// (table_idx / col_idx), which neither reads, so the estimate is the
    /// written statement's.
    const sql::BoundQuery* bound = nullptr;
    /// Per-member deadline/cancellation, honored exactly as Answer()'s.
    util::ExecContext context;
  };

  /// Answer a batch of queries from `generation`, each as a solo query
  /// whose scans were done for it. Every member is estimated as Answer()
  /// estimates it. The answerable members of a multi-member batch are
  /// planned, grouped by table and filtered by one shared scan pass per
  /// table (exec::QueryEngine::SharedFilterScan), which reproduces each
  /// member's own filtered-scan output exactly; each then runs
  /// AnswerPrepared, the solo ladder, over its plan and its selections, so
  /// answers are byte-identical to Answer() per member and a faulted
  /// member degrades alone. Every other member (the only member of a
  /// one-query batch, answerability below threshold, every member of a
  /// batch whose shared scan failed) runs AnswerPrepared as Answer() does.
  /// `scans_saved` is credited with the per-table scan passes the shared
  /// scan avoided. Returns one Result per input, index-aligned.
  [[nodiscard]] std::vector<util::Result<AnswerResult>> AnswerBatch(
      const Generation& generation, const std::vector<BatchQuery>& queries,
      std::atomic<uint64_t>& scans_saved);

  /// Answer `bound` from `generation`'s learned fallback alone (no
  /// execution, no admission): used by the serving layer to shed load when
  /// a query cannot be admitted, and by the ladder's tier 1. Fails
  /// (kNotFound / kInvalidArgument) when the learned answerer is absent or
  /// the query is outside its class. The result carries no answerability
  /// and no fallback reason; the caller stamps those.
  [[nodiscard]] util::Result<AnswerResult> TryLearnedAnswer(
      const Generation& generation, const sql::BoundQuery& bound) const;

  /// Interest drift (C5): true once `drift_trigger` out-of-distribution
  /// queries with deviation confidence > `drift_confidence` accumulated.
  bool NeedsFineTuning() const;

  /// Fine-tune on the drifted workload: merge `new_queries` and the drift
  /// list with the current representatives, re-run pre-processing and a
  /// shortened training run, and publish the next generation. Readers keep
  /// answering from the current one meanwhile.
  [[nodiscard]] util::Status FineTune(const metric::Workload& new_queries)
      ASQP_EXCLUDES(writer_mu_);

  const metric::Workload& representatives() const {
    return current()->preprocess->representatives;
  }
  const AsqpConfig& config() const { return config_; }
  /// The underlying full database this model mediates over.
  const storage::Database* database() const { return db_; }
  /// Mutable access for post-training knobs (e.g. answer_deadline_seconds).
  AsqpConfig& mutable_config() { return config_; }
  size_t drifted_query_count() const {
    std::lock_guard<std::mutex> lock(drift_mu_);
    return drifted_queries_.size();
  }

  /// The published generation's number, read without pinning it: stored
  /// after each publish, so a reader that sees a number pins that
  /// generation or a later one.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Route this model's query execution through an externally owned pool
  /// (the serving layer's process-wide pool; see ExecOptions::shared_pool):
  /// republishes the current generation with an engine on `pool`.
  void SetExecutionPool(std::shared_ptr<util::ThreadPool> pool)
      ASQP_EXCLUDES(writer_mu_);

  /// Cumulative Answer() bookkeeping (monotonic, thread-safe).
  struct AnswerStats {
    uint64_t answered = 0;        ///< completed Answer() calls
    uint64_t approx_served = 0;   ///< served from the approximation set
    uint64_t fallbacks = 0;       ///< degraded off the approximation set
    uint64_t retries = 0;         ///< approximation-tier retry attempts
    uint64_t learned_served = 0;  ///< answered by the learned fallback
  };
  AnswerStats answer_stats() const {
    return AnswerStats{answered_.load(std::memory_order_relaxed),
                       approx_served_.load(std::memory_order_relaxed),
                       fallbacks_.load(std::memory_order_relaxed),
                       retries_.load(std::memory_order_relaxed),
                       learned_served_.load(std::memory_order_relaxed)};
  }

  /// The current generation's index catalog.
  std::shared_ptr<const storage::IndexCatalog> index_catalog() const {
    return current()->index_catalog;
  }

  /// The circuit breaker guarding the full-database tier (tests drive its
  /// clock; see util::CircuitBreaker::SetNowFnForTest).
  util::CircuitBreaker& circuit_breaker() { return breaker_; }

 private:
  friend class AsqpTrainer;

  /// Materialize the trained generation: AsqpTrainer::Train's publish.
  void MaterializeSet() ASQP_EXCLUDES(writer_mu_);

  /// The generation numbered `number` that `preprocess` and `policy` lead
  /// to, with its engine on `pool`.
  std::shared_ptr<const Generation> Build(
      uint64_t number, std::shared_ptr<const PreprocessResult> preprocess,
      rl::Policy policy, std::shared_ptr<util::ThreadPool> pool) const;

  /// Make `next` the generation every later pin sees, then its number the
  /// one every later cache probe reads. The caller holds writer_mu_.
  void Publish(std::shared_ptr<const Generation> next);

  /// Answer()'s pre-execution half, run once per statement however it
  /// then executes (solo or batched): the answerability estimate on
  /// `generation` and the drift bookkeeping. Returns the answerability.
  double PrepareQuery(const Generation& generation,
                      const sql::SelectStatement& stmt);

  /// Answer()'s execution half and the only tier-0 path: the full
  /// degradation ladder over `bound` (the statement bound against the
  /// database) with its answerability, on `generation`. Answer(stmt, ctx)
  /// == AnswerPrepared(g, Bind(stmt), PrepareQuery(g, stmt), ctx). A batch
  /// member also passes its plan (QueryEngine::PlanForView of `bound`) and
  /// its shared scan's `selections`, which tier 0 runs through
  /// ExecutePlanned instead of planning and scanning again; such a
  /// member's serve.batch fault point degrades it straight down the
  /// ladder.
  [[nodiscard]] util::Result<AnswerResult> AnswerPrepared(
      const Generation& generation, const sql::BoundQuery& bound,
      double answerability, const util::ExecContext& context,
      const sql::BoundQuery* planned = nullptr,
      const std::vector<exec::ScanSelection>* selections = nullptr);

  /// The ladder below tier 0: cost-gated, breaker-guarded full database,
  /// then the learned answerer, then typed kDegraded. `failure` is the
  /// tier-0 failure that forced degradation; `result` carries the
  /// answerability already computed. Increments the answered/fallback
  /// counters for whichever tier serves.
  [[nodiscard]] util::Result<AnswerResult> DegradeFrom(
      const Generation& generation, const sql::BoundQuery& bound,
      const util::ExecContext& context, const util::Status& failure,
      AnswerResult result);

  /// The context bounding a tier-0 (approximation set) attempt: the
  /// caller's when it carries a deadline, else the configured
  /// answer_deadline_seconds.
  util::ExecContext ApproxContextFor(const util::ExecContext& context) const;

  /// Tier 1 of the ladder: TryLearnedAnswer, stamped with `result`'s
  /// answerability and fallback reason. `cause` is the failure that forced
  /// degradation past the full database; when the learned answerer cannot
  /// take the query either, the ladder ends in Status::Degraded naming it.
  [[nodiscard]] util::Result<AnswerResult> AnswerLearnedTier(
      const Generation& generation, const sql::BoundQuery& bound,
      const util::Status& cause, AnswerResult result) const;

  const storage::Database* db_;
  AsqpConfig config_;
  /// Column statistics over the full database for the cost-based planner,
  /// collected once at construction and shared by every generation's
  /// engine.
  std::shared_ptr<const plan::StatsCatalog> planner_stats_;
  /// Breaker guarding degradation-path full-database executions.
  util::CircuitBreaker breaker_;

  /// Out-of-distribution queries observed since the last fine-tune
  /// (Answer() may run on many threads at once).
  mutable std::mutex drift_mu_;
  std::vector<sql::SelectStatement> drifted_queries_ ASQP_GUARDED_BY(drift_mu_);

  /// Serializes the writers (Train's publish, FineTune, SetExecutionPool),
  /// each of which builds on the current generation. Readers never take it.
  std::mutex writer_mu_;

  /// Held only to copy or replace current_, never while building.
  mutable std::mutex current_mu_;
  std::shared_ptr<const Generation> current_ ASQP_GUARDED_BY(current_mu_);

  /// current_'s number (see generation()), on a cache line of its own:
  /// every cache hit reads it, and every pin writes current_mu_.
  alignas(64) std::atomic<uint64_t> generation_{0};

  /// Monotonic Answer() counters (see answer_stats()).
  alignas(64) std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> approx_served_{0};
  std::atomic<uint64_t> fallbacks_{0};
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> learned_served_{0};
};

}  // namespace core
}  // namespace asqp
