// Configuration of the full ASQP-RL system, including the ASQP-Light
// preset and the adaptive time-budget configuration (Section 4.5).
#pragma once

#include <cstdint>
#include <string>

#include "relax/relax.h"
#include "rl/trainer.h"

namespace asqp {
namespace core {

enum class EnvKind { kGsl, kDrp, kHybrid };

const char* EnvKindName(EnvKind kind);

struct AsqpConfig {
  /// Memory budget k: total base tuples in the approximation set.
  size_t k = 1000;
  /// Frame size F: result tuples a user can cognitively process.
  int frame_size = 50;

  // ---- Pre-processing (Section 4.2).
  /// Number of query representatives selected by clustering the embedded
  /// generalized workload. The fraction actually executed is
  /// `representative_fraction` (ASQP-Light executes fewer).
  size_t num_representatives = 24;
  double representative_fraction = 1.0;
  /// Pool size after variational subsampling. Per-query coverage
  /// reservations (up to 3F satisfying tuples per representative) may push
  /// the final pool slightly above this target.
  size_t pool_target = 1500;
  /// Cap on joined tuples collected per executed representative.
  size_t max_tuples_per_rep = 5000;
  /// Pool tuples grouped per action.
  size_t action_group_size = 4;
  /// Reserve up to 3F satisfying tuples per representative before
  /// variational subsampling (prevents the subsample from starving a
  /// query of coverage). Disable only for ablation.
  bool reserve_query_quota = true;
  /// Embedding dimensionality (queries and tuples).
  size_t embed_dim = 64;
  relax::RelaxOptions relax;
  /// Statistics-generated exploration queries appended (at low weight) to
  /// the training workload before clustering — together with relaxation,
  /// the C4 generalization mechanism for future, unseen queries.
  size_t exploration_queries = 4;
  double exploration_weight = 0.05;

  // ---- Environment (Section 5.2).
  EnvKind env = EnvKind::kGsl;
  size_t drp_horizon = 64;
  size_t hybrid_refine_horizon = 32;
  /// Queries per training batch (each episode is rewarded on one batch).
  size_t batch_queries = 8;

  // ---- RL (Section 5.1).
  rl::TrainerConfig trainer;

  // ---- Inference (Section 4.4).
  /// Answerability threshold: estimates >= this are served from the
  /// approximation set.
  double answerable_threshold = 0.5;
  /// Interest drift: fine-tune after this many out-of-distribution queries
  /// whose deviation confidence exceeds `drift_confidence`.
  size_t drift_trigger = 3;
  double drift_confidence = 0.8;
  /// Per-query deadline for the approximation-set execution path in
  /// Answer() (seconds; 0 = unlimited). On timeout the mediator falls back
  /// to an unbounded full-database execution and flags the result.
  double answer_deadline_seconds = 0.0;
  /// Execution threads for the mediator's query engine and the
  /// pre-processing representative executions (morsel-parallel scans +
  /// hash-join probe; see exec::ExecOptions::num_threads). 1 = sequential
  /// (the default — callers opt in to parallel answering explicitly).
  /// Results are identical across thread counts.
  size_t exec_threads = 1;
  /// Rows per execution morsel (see exec::ExecOptions::morsel_rows). The
  /// morsel decomposition is part of the deterministic plan: aggregation
  /// folds per-morsel partials in morsel order even sequentially, so this
  /// knob — unlike exec_threads — can affect the last ulp of a
  /// floating-point SUM/AVG. 0 = engine default (16384).
  size_t exec_morsel_rows = 0;
  /// Run the cost-based planner (src/plan) on the mediator's executions:
  /// filter pushdown, constant folding, and cost-ordered joins driven by
  /// column statistics collected at model construction. Results are
  /// byte-identical either way (see exec::ExecOptions::enable_planner);
  /// off is for A/B comparison.
  bool planner = true;

  // ---- Serving (serve::ServeEngine).
  /// Queries executing at once; further queries queue in arrival order
  /// behind them (see serve_queue_capacity). Bounds how many queries
  /// share the process-wide execution pool.
  size_t serve_max_inflight = 4;
  /// Queries allowed to queue for admission once serve_max_inflight
  /// queries are executing; arrivals beyond this are rejected immediately
  /// with kResourceExhausted (back-pressure, not unbounded queueing).
  size_t serve_queue_capacity = 16;
  /// Worker threads in the serving layer's shared execution pool (total
  /// morsel concurrency = workers + the calling session's thread). 0 =
  /// derive from exec_threads.
  size_t serve_pool_threads = 0;
  /// Byte budget for the fingerprint-keyed answer cache (LRU within the
  /// budget; 0 disables caching).
  size_t cache_bytes = 64ull << 20;

  // ---- Degradation ladder (aqp::LearnedFallback + AsqpModel::Answer).
  /// Fit an ML-AQP-style learned answerer over the approximation set at
  /// model-build / fine-tune time, and use it as the tier between the
  /// approximation set and the full database when the full-database
  /// fallback is unaffordable (deadline budget, tripped breaker).
  bool fallback_learned_enabled = true;
  /// Bounded retries of the approximation-set attempt on *transient*
  /// failures (resource exhaustion, injected faults, internal errors; never
  /// deadline/cancellation). 0 disables retrying.
  size_t fallback_retry_attempts = 2;
  /// Base backoff before the first retry; doubles per retry, jittered
  /// deterministically (util::RetryPolicy).
  double fallback_retry_backoff_seconds = 0.001;
  /// Consecutive late full-database fallbacks (finished after the caller's
  /// deadline had already expired) that trip the circuit breaker guarding
  /// the full-database tier. 0 disables the breaker.
  size_t fallback_breaker_threshold = 5;
  /// Seconds the tripped breaker stays open before a half-open trial.
  double fallback_breaker_cooldown_seconds = 2.0;
  /// Cost gate for the full-database tier: estimated scan throughput in
  /// rows/second. The tier is attempted only when
  /// (rows in the query's tables) / this <= the caller's remaining
  /// deadline budget. 0 = no gate (always afford, matching the pre-ladder
  /// behavior of an unlimited degraded execution).
  double fallback_full_db_rows_per_second = 0.0;
  /// Serving layer: when admission fails (queue full, deadline expired
  /// while queued, cancelled while queued), answer supported aggregate
  /// queries from the learned fallback instead of erroring (load
  /// shedding). Unsupported queries keep the typed admission error.
  bool serve_shed_to_learned = true;
  /// Upper bound on queries in one shared-scan batch. When an execution
  /// slot frees, the oldest queued query and its queued peers over the
  /// same table set, up to this many, execute as one batch with one scan
  /// pass per table; a query never waits for peers, so batches form only
  /// behind busy slots. 1 executes every query alone. Results are
  /// byte-identical either way.
  size_t serve_batch_max_queries = 8;

  uint64_t seed = 1;

  /// ASQP-Light (Section 4.5): 25% of representatives executed, higher
  /// learning rate, aggressive early stopping. ~2x faster setup for ~10%
  /// quality loss.
  static AsqpConfig Light();

  /// Adaptive configuration: interpolate between Light and the default
  /// given a relative time budget in (0, 1]; 1 = full quality.
  static AsqpConfig FromTimeBudget(double budget_fraction);
};

}  // namespace core
}  // namespace asqp
