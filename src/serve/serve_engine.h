// The concurrent serving layer: one ServeEngine fronts one trained
// AsqpModel for N simultaneous mediator sessions. Every query takes the
// same path, whether the client calls Answer or AnswerAsync:
//   1. The front half. A request whose deadline or cancellation is
//      already dead on arrival is turned away with a typed error. A SQL
//      text then probes the exact-text memo (TextMemo): a text memoized
//      earlier goes straight to the answer cache with the fingerprint its
//      own front end produced, skipping parse, bind and canonicalization.
//      Otherwise the statement is bound in place (sql::Bind by move),
//      fingerprinted (sql::QueryFingerprint of the bound AST) and probed
//      in a sharded answer cache: a repeat query, in any equivalent
//      spelling, returns the cached AnswerResult without admission, and a
//      text whose probe hit enters the memo. A miss becomes a
//      BatchScheduler ticket carrying the bound query — the one statement
//      the query has from then on — and its table-set key. SQL text is
//      parsed at most once and its statement never copied; Answer(stmt)
//      copies the caller's statement once. Cache entries are stamped with
//      the number of the generation that answered them, and a probe reads
//      only AsqpModel::generation(): a hit takes no model lock and pins no
//      generation. A cache entry, every hit on it, a batch duplicate's
//      answer and a future's Get() all share one immutable row block
//      (exec::ResultSet), so no answer's rows are copied after they are
//      built.
//   2. Admission, by the BatchScheduler alone. At most max_inflight
//      batches execute at once and up to queue_capacity tickets queue
//      behind them in arrival order. AnswerAsync queues its ticket and
//      returns an AnswerFuture; Answer runs its ticket on its own thread
//      when a slot is free and nothing is queued, and otherwise queues it
//      and waits. When a slot frees, the oldest queued ticket and up to
//      batch_max_queries - 1 queued tickets over the same table set
//      execute as one batch sharing a single scan pass per table
//      (AsqpModel::AnswerBatch), byte-identical to solo execution.
//   3. The tail, ExecuteBatch, whichever thread runs it, on one pinned
//      model generation (AsqpModel::current()): expiry while queued, a
//      cache hit since submission, canonical dedup, then execution, where
//      each member is a solo query whose scans were done for it
//      (AsqpModel::AnswerBatch runs the solo ladder per member), and the
//      conversion of every outcome once the batch has run. Under
//      overload a client gets an answer (possibly load-shed to the model's
//      learned fallback, with an error estimate) or a typed degradation —
//      kDegraded, or kResourceExhausted when the queue is full — never a
//      raw timeout.
// Every query's morsel-parallel execution runs on one process-wide
// util::ThreadPool (injected via ExecOptions::shared_pool), so total
// execution threads never exceed its cap (util::ThreadPool::
// LiveWorkerCount()).
//
// Answer() calls may run from any number of threads, also while FineTune()
// retrains: the model publishes the next generation whole. A batch that
// pinned the old one finishes on it, under the old stamp; a request sent
// after FineTune() returns is answered from the new one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/config.h"
#include "core/model.h"
#include "serve/answer_cache.h"
#include "serve/answer_future.h"
#include "serve/batch_scheduler.h"
#include "serve/text_memo.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace asqp {
namespace serve {

struct ServeOptions {
  /// Queries executing at once (inline on a caller's thread or on one of
  /// the scheduler's executor threads).
  size_t max_inflight = 4;
  /// Queries allowed to queue behind them (excess is rejected).
  size_t queue_capacity = 16;
  /// Worker threads in the shared execution pool. Total morsel
  /// concurrency per query = pool workers + the executing thread.
  /// 0 = 1 worker.
  size_t pool_threads = 1;
  /// Answer-cache byte budget (0 disables caching).
  size_t cache_bytes = 64ull << 20;
  size_t cache_shards = 8;
  /// Load shedding: when admission fails (queue full, deadline expired or
  /// cancelled while queued) or a deadline/cancellation leaks out of the
  /// ladder, answer supported aggregate queries from the model's learned
  /// fallback instead of erroring. Unsupported queries keep the typed
  /// admission error (queue full) or degrade to kDegraded.
  bool shed_to_learned = true;
  /// Queued queries one shared-scan batch may take: the oldest and its
  /// same-table-set peers. 1 executes every query alone.
  size_t batch_max_queries = 8;

  /// Derive the serving knobs from a model's AsqpConfig
  /// (serve_max_inflight, serve_queue_capacity, serve_pool_threads /
  /// exec_threads, cache_bytes, serve_shed_to_learned,
  /// serve_batch_max_queries).
  static ServeOptions FromConfig(const core::AsqpConfig& config);
};

class ServeEngine {
 public:
  /// `model` must outlive the engine. The engine re-routes the model's
  /// execution through its shared pool (AsqpModel::SetExecutionPool).
  ServeEngine(core::AsqpModel* model, ServeOptions options);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Serve one query and wait for its answer: front half (cache hits
  /// return here, bypassing admission), then admission and execution —
  /// on this thread when a slot is free and no ticket is queued, else
  /// queued and run on an executor thread, batched with queued peers over
  /// the same table set (BatchScheduler). `context` bounds the execution;
  /// a deadline or cancellation that trips while the ticket is queued is
  /// noticed when it leaves the queue (shed to the learned tier, or
  /// kDegraded).
  [[nodiscard]] util::Result<core::AnswerResult> Answer(
      const sql::SelectStatement& stmt,
      const util::ExecContext& context = util::ExecContext());

  /// Answer the query `sql` spells. A text memoized by an earlier cache
  /// hit is answered from the cache without parsing; any other text is
  /// parsed and served as Answer() serves its statement.
  [[nodiscard]] util::Result<core::AnswerResult> AnswerSql(
      const std::string& sql,
      const util::ExecContext& context = util::ExecContext());

  /// Serve one query without blocking the caller: returns an AnswerFuture
  /// that resolves when the query's batch executes on an executor thread
  /// (or immediately on a cache hit / fast-path rejection). Results are
  /// byte-identical to Answer().
  [[nodiscard]] AnswerFuture AnswerAsync(
      const sql::SelectStatement& stmt,
      const util::ExecContext& context = util::ExecContext());

  /// AnswerSql without blocking: as AnswerAsync() (parse errors resolve
  /// the future).
  [[nodiscard]] AnswerFuture AnswerSqlAsync(
      const std::string& sql,
      const util::ExecContext& context = util::ExecContext());

  /// Retrain on drifted/new queries (AsqpModel::FineTune) while queries
  /// keep being answered from the current generation, then drop every
  /// cached answer of older generations and clear the text memo.
  [[nodiscard]] util::Status FineTune(const metric::Workload& new_queries);

  struct Stats {
    uint64_t served = 0;          ///< successful Answer() calls
    uint64_t cache_hits = 0;      ///< served straight from the cache
    uint64_t memo_hits = 0;       ///< cache hits found via the text memo
    uint64_t admitted = 0;        ///< entered execution
    uint64_t rejected = 0;        ///< admission queue full
    uint64_t admission_expired = 0;  ///< deadline/cancel while queued
    uint64_t shed_learned = 0;    ///< load-shed to the learned fallback
    uint64_t degraded = 0;        ///< every tier exhausted (kDegraded)
    uint64_t expired_fast_path = 0;  ///< dead on arrival, never admitted
    uint64_t queue_depth = 0;     ///< tickets queued right now (gauge)
    uint64_t batches_formed = 0;  ///< batches executed, inline included
    uint64_t batch_members = 0;   ///< tickets across all formed batches
    uint64_t shared_scan_saved = 0;  ///< table scans avoided by sharing
    uint64_t inline_runs = 0;     ///< batches run on the caller's thread
  };
  Stats stats() const;

  const AnswerCache& cache() const { return cache_; }
  const TextMemo& memo() const { return memo_; }
  AnswerCache& mutable_cache() { return cache_; }
  const ServeOptions& options() const { return options_; }
  /// The shared execution pool (for instrumentation/tests).
  util::ThreadPool* pool() { return pool_.get(); }

 private:
  /// What the front half ends in: a resolved answer (cache hit, dead on
  /// arrival, parse or bind failure) or a ticket to admit.
  using FrontHalf =
      std::variant<util::Result<core::AnswerResult>, BatchScheduler::Ticket>;

  /// What every Answer* entry point runs on its front half: a resolved
  /// answer returns; a ticket goes to admission (inline or queued) and
  /// the wait.
  util::Result<core::AnswerResult> Serve(FrontHalf&& front);
  /// As Serve, but queued without blocking (never inline).
  AnswerFuture ServeAsync(FrontHalf&& front);

  /// The front half of Answer and AnswerAsync: the dead-on-arrival check,
  /// then Probe on a copy of `stmt`.
  FrontHalf Front(const sql::SelectStatement& stmt,
                  const util::ExecContext& context);
  /// The front half of AnswerSql and AnswerSqlAsync: the dead-on-arrival
  /// check, the memo probe (MemoHit), and for a text the memo does not
  /// answer, the parse and Probe with `sql` to memoize.
  FrontHalf FrontSql(const std::string& sql,
                     const util::ExecContext& context);

  /// The typed status of a request already cancelled or past its deadline
  /// (counted in expired_fast_path), or nullopt for a live one.
  std::optional<util::Status> DeadOnArrival(const util::ExecContext& context);

  /// The cached answer for a memoized `sql`, or nullopt when the memo
  /// does not hold the text or its cache entry is gone.
  std::optional<core::AnswerResult> MemoHit(const std::string& sql);

  /// Bind `stmt` in place, fingerprint, cache probe, and the table-set key
  /// of a miss's ticket. A hit memoizes `memo_text` when it is not null.
  FrontHalf Probe(sql::SelectStatement&& stmt,
                  const util::ExecContext& context,
                  const std::string* memo_text);

  /// A cache hit's answer: a copy of `cached` that shares its rows,
  /// flagged from_cache and counted as served.
  core::AnswerResult CacheHit(const core::AnswerResult& cached);

  /// The answer for a query the scheduler refused (queue full): load-shed
  /// to the learned fallback, or typed kResourceExhausted back-pressure.
  /// `bound` is the refused ticket's bound query.
  util::Result<core::AnswerResult> RejectQueueFull(
      const sql::BoundQuery& bound);

  /// The shed conversion: `bound` answered by `generation`'s learned
  /// fallback, labelled `reason` ("shed:<cause>"), when shedding is on and
  /// the learned tier can take the query; `otherwise` when not.
  util::Result<core::AnswerResult> ShedOr(
      const core::AsqpModel::Generation& generation,
      const sql::BoundQuery& bound, std::string reason,
      util::Status otherwise);

  /// Execute one batch on one pinned generation — on an executor thread, or
  /// inline on the caller's for a solo ticket: per-ticket expiry / cache
  /// re-probe / canonical dedup, AsqpModel::AnswerBatch for the
  /// representatives, then every ticket's promise resolved.
  void ExecuteBatch(std::vector<BatchScheduler::Ticket>&& tickets);

  core::AsqpModel* const model_;
  ServeOptions options_;
  std::shared_ptr<util::ThreadPool> pool_;
  AnswerCache cache_;
  /// SQL text -> fingerprint for texts whose full front half hit the
  /// cache (internally synchronized; cleared by FineTune).
  TextMemo memo_;

  // Every request writes the members from here on (the counters);
  // starting them on a fresh cache line keeps those writes off the members
  // above, which every cache hit reads.
  alignas(64) std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> admission_expired_{0};
  std::atomic<uint64_t> shed_learned_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> expired_fast_path_{0};
  std::atomic<uint64_t> shared_scan_saved_{0};

  /// The admission gate. Declared last so its destructor runs first:
  /// queued tickets drain against a still-live engine.
  std::unique_ptr<BatchScheduler> scheduler_;
};

}  // namespace serve
}  // namespace asqp
