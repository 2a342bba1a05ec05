#include "serve/serve_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/binder.h"
#include "sql/parser.h"

namespace asqp {
namespace serve {

namespace {

/// The text memo's byte budget: about 2k entries of typical exploratory
/// SQL (a text and its canonical form are a few hundred bytes each).
constexpr size_t kTextMemoBytes = size_t{1} << 20;

}  // namespace

ServeOptions ServeOptions::FromConfig(const core::AsqpConfig& config) {
  ServeOptions options;
  options.max_inflight = std::max<size_t>(1, config.serve_max_inflight);
  options.queue_capacity = config.serve_queue_capacity;
  options.pool_threads =
      config.serve_pool_threads > 0
          ? config.serve_pool_threads
          : std::max<size_t>(1, config.exec_threads > 1
                                    ? config.exec_threads - 1
                                    : 1);
  options.cache_bytes = config.cache_bytes;
  options.shed_to_learned = config.serve_shed_to_learned;
  options.batch_max_queries = config.serve_batch_max_queries;
  return options;
}

ServeEngine::ServeEngine(core::AsqpModel* model, ServeOptions options)
    : model_(model),
      options_(options),
      pool_(std::make_shared<util::ThreadPool>(
          std::max<size_t>(1, options.pool_threads))),
      cache_(options.cache_bytes,
             std::max<size_t>(1, options.cache_shards)),
      memo_(kTextMemoBytes) {
  model_->SetExecutionPool(pool_);
  BatchScheduler::Options sched;
  sched.max_batch = std::max<size_t>(1, options_.batch_max_queries);
  sched.queue_capacity = options_.queue_capacity;
  sched.slots = std::max<size_t>(1, options_.max_inflight);
  scheduler_ = std::make_unique<BatchScheduler>(
      sched, [this](std::vector<BatchScheduler::Ticket>&& batch) {
        ExecuteBatch(std::move(batch));
      });
}

ServeEngine::~ServeEngine() {
  // Stop intake and drain every queued ticket while the model and pool
  // are still alive (the scheduler's destructor executes them), then
  // detach the model from the pool we are about to destroy: the model
  // outlives the engine and must not execute on a dead pool.
  scheduler_.reset();
  model_->SetExecutionPool(nullptr);
}

ServeEngine::Stats ServeEngine::stats() const {
  const BatchScheduler::Stats b = scheduler_->stats();
  Stats s;
  s.served = served_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.admission_expired = admission_expired_.load(std::memory_order_relaxed);
  s.shed_learned = shed_learned_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.expired_fast_path = expired_fast_path_.load(std::memory_order_relaxed);
  s.queue_depth = scheduler_->QueueDepth();
  s.batches_formed = b.batches_formed;
  s.batch_members = b.batch_members;
  s.shared_scan_saved = shared_scan_saved_.load(std::memory_order_relaxed);
  s.inline_runs = b.inline_runs;
  return s;
}

std::optional<util::Status> ServeEngine::DeadOnArrival(
    const util::ExecContext& context) {
  // Load-shedding fast path: a request that is already dead on arrival
  // never costs a parse, a ticket or an execution slot, and never gets a
  // cached answer. Raw deadline / cancellation reads here, never
  // ExecContext::Check() — the latter fires the exec.deadline fault point
  // and would turn away healthy clients under chaos testing.
  if (context.IsCancelled()) {
    expired_fast_path_.fetch_add(1, std::memory_order_relaxed);
    return util::Status::Cancelled(
        "serve: request already cancelled on arrival");
  }
  if (context.deadline().Expired()) {
    expired_fast_path_.fetch_add(1, std::memory_order_relaxed);
    return util::Status::DeadlineExceeded(
        "serve: deadline already expired on arrival");
  }
  return std::nullopt;
}

ServeEngine::FrontHalf ServeEngine::Front(const sql::SelectStatement& stmt,
                                          const util::ExecContext& context) {
  if (std::optional<util::Status> dead = DeadOnArrival(context)) {
    return *std::move(dead);
  }
  return Probe(stmt.Clone(), context, /*memo_text=*/nullptr);
}

ServeEngine::FrontHalf ServeEngine::FrontSql(const std::string& sql,
                                             const util::ExecContext& context) {
  if (std::optional<util::Status> dead = DeadOnArrival(context)) {
    return *std::move(dead);
  }
  if (std::optional<core::AnswerResult> hit = MemoHit(sql)) {
    return std::move(*hit);
  }
  util::Result<sql::SelectStatement> stmt = sql::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  return Probe(std::move(stmt).value(), context, &sql);
}

std::optional<core::AnswerResult> ServeEngine::MemoHit(const std::string& sql) {
  // A memoized fingerprint depends only on the text and the database
  // schema, which no FineTune changes. An entry evicted or left in an
  // older generation is a miss, and the caller takes the full front half.
  sql::QueryFingerprint fingerprint;
  if (!memo_.Lookup(sql, &fingerprint)) return std::nullopt;
  std::shared_ptr<const core::AnswerResult> hit =
      cache_.Lookup(fingerprint, model_->generation());
  if (hit == nullptr) return std::nullopt;
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  return CacheHit(*hit);
}

ServeEngine::FrontHalf ServeEngine::Probe(sql::SelectStatement&& stmt,
                                          const util::ExecContext& context,
                                          const std::string* memo_text) {
  // Bind in place: the statement becomes the bound query's own, so a
  // served query is never copied. Fingerprint the *bound* statement so
  // table aliases normalize away. The ticket carries the bound query, so
  // execution never binds again.
  util::Result<sql::BoundQuery> bound =
      sql::Bind(std::move(stmt), *model_->database());
  if (!bound.ok()) return bound.status();
  sql::QueryFingerprint fingerprint = sql::FingerprintQuery(bound.value().stmt);
  // Cache hits bypass admission entirely: they cost a shard lock and a
  // copy that shares the cached rows, not an execution slot.
  if (auto hit = cache_.Lookup(fingerprint, model_->generation())) {
    // An admission may land just after FineTune's clear. That is harmless:
    // a memoized fingerprint never goes wrong, and the old generation's
    // entry misses by its stamp.
    if (memo_text != nullptr) memo_.Admit(*memo_text, std::move(fingerprint));
    return CacheHit(*hit);
  }

  BatchScheduler::Ticket ticket;
  // Group key: sorted, deduplicated bound table names — queued queries
  // over the same table set join one shared-scan batch regardless of the
  // order tables appear in the FROM list.
  std::vector<std::string> names;
  names.reserve(bound.value().tables.size());
  for (const auto& table : bound.value().tables) {
    names.push_back(table->name());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    if (!ticket.group_key.empty()) ticket.group_key += ',';
    ticket.group_key += name;
  }
  ticket.bound = std::move(bound).value();
  ticket.fingerprint = std::move(fingerprint);
  ticket.context = context;
  return ticket;
}

core::AnswerResult ServeEngine::CacheHit(const core::AnswerResult& cached) {
  core::AnswerResult result = cached;
  result.from_cache = true;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

util::Result<core::AnswerResult> ServeEngine::Answer(
    const sql::SelectStatement& stmt, const util::ExecContext& context) {
  return Serve(Front(stmt, context));
}

util::Result<core::AnswerResult> ServeEngine::AnswerSql(
    const std::string& sql, const util::ExecContext& context) {
  return Serve(FrontSql(sql, context));
}

AnswerFuture ServeEngine::AnswerAsync(const sql::SelectStatement& stmt,
                                      const util::ExecContext& context) {
  return ServeAsync(Front(stmt, context));
}

AnswerFuture ServeEngine::AnswerSqlAsync(const std::string& sql,
                                         const util::ExecContext& context) {
  return ServeAsync(FrontSql(sql, context));
}

util::Result<core::AnswerResult> ServeEngine::Serve(FrontHalf&& front) {
  if (auto* resolved = std::get_if<util::Result<core::AnswerResult>>(&front)) {
    return std::move(*resolved);
  }
  BatchScheduler::Ticket& ticket = std::get<BatchScheduler::Ticket>(front);
  AnswerFuture future = ticket.promise.future();
  if (!scheduler_->RunInlineOrSubmit(std::move(ticket))) {
    // Refused: the ticket is still ours.
    return RejectQueueFull(ticket.bound);
  }
  return future.Get();
}

AnswerFuture ServeEngine::ServeAsync(FrontHalf&& front) {
  if (auto* resolved = std::get_if<util::Result<core::AnswerResult>>(&front)) {
    AnswerPromise promise;
    promise.Resolve(std::move(*resolved));
    return promise.future();
  }
  BatchScheduler::Ticket& ticket = std::get<BatchScheduler::Ticket>(front);
  const AnswerPromise promise = ticket.promise;
  if (!scheduler_->Submit(std::move(ticket))) {
    // Refused: the ticket is still ours.
    promise.Resolve(RejectQueueFull(ticket.bound));
  }
  return promise.future();
}

util::Result<core::AnswerResult> ServeEngine::RejectQueueFull(
    const sql::BoundQuery& bound) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  util::Result<core::AnswerResult> shed =
      ShedOr(*model_->current(), bound, "shed:queue_full",
             util::Status::ResourceExhausted(
                 "serve: admission queue is full; retry later"));
  if (shed.ok()) served_.fetch_add(1, std::memory_order_relaxed);
  return shed;
}

util::Result<core::AnswerResult> ServeEngine::ShedOr(
    const core::AsqpModel::Generation& generation,
    const sql::BoundQuery& bound, std::string reason,
    util::Status otherwise) {
  if (options_.shed_to_learned) {
    util::Result<core::AnswerResult> shed =
        model_->TryLearnedAnswer(generation, bound);
    if (shed.ok()) {
      shed.value().fallback_reason = std::move(reason);
      shed_learned_.fetch_add(1, std::memory_order_relaxed);
      return shed;
    }
  }
  if (otherwise.code() == util::StatusCode::kDegraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  return otherwise;
}

void ServeEngine::ExecuteBatch(std::vector<BatchScheduler::Ticket>&& tickets) {
  // One generation for the whole batch: the re-probe, the sheds, every
  // member's answer, and the stamp its cache entry carries.
  const auto generation = model_->current();

  // Triage each ticket: expired/cancelled while queued (shed: the budget
  // is gone, there is nothing to retry), answered by the cache since it
  // was submitted, or deduplicated onto a canonically-equivalent peer in
  // the same batch. Survivors become batch representatives.
  struct Representative {
    size_t ticket = 0;
    std::vector<size_t> duplicates;
  };
  std::vector<Representative> reps;
  std::map<std::string, size_t> by_canonical;
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchScheduler::Ticket& ticket = tickets[i];
    // Raw reads, never Check(): the exec.deadline fault point must not
    // shed a healthy ticket.
    const bool cancelled = ticket.context.IsCancelled();
    if (cancelled || ticket.context.deadline().Expired()) {
      admission_expired_.fetch_add(1, std::memory_order_relaxed);
      util::Result<core::AnswerResult> shed =
          ShedOr(*generation, ticket.bound,
                 cancelled ? "shed:cancelled" : "shed:admission_deadline",
                 util::Status::Degraded(
                     "admission budget exhausted while queued and the "
                     "learned tier cannot answer"));
      if (shed.ok()) served_.fetch_add(1, std::memory_order_relaxed);
      ticket.promise.Resolve(std::move(shed));
      continue;
    }
    if (auto hit = cache_.Lookup(ticket.fingerprint, generation->number)) {
      ticket.promise.Resolve(CacheHit(*hit));
      continue;
    }
    const auto ins =
        by_canonical.emplace(ticket.fingerprint.canonical, reps.size());
    if (ins.second) {
      reps.push_back(Representative{i, {}});
    } else {
      // Canonically equivalent to an earlier member: same canonical text
      // implies byte-identical results, so one execution serves both.
      reps[ins.first->second].duplicates.push_back(i);
      shared_scan_saved_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (reps.empty()) return;
  admitted_.fetch_add(reps.size(), std::memory_order_relaxed);

  std::vector<core::AsqpModel::BatchQuery> queries;
  queries.reserve(reps.size());
  for (const Representative& rep : reps) {
    const BatchScheduler::Ticket& t = tickets[rep.ticket];
    queries.push_back(core::AsqpModel::BatchQuery{&t.bound, t.context});
  }
  std::vector<util::Result<core::AnswerResult>> answers =
      model_->AnswerBatch(*generation, queries, shared_scan_saved_);

  // Convert each representative's outcome. A member that failed degrades
  // alone; its peers' results are already computed and resolve normally.
  for (size_t r = 0; r < reps.size(); ++r) {
    const Representative& rep = reps[r];
    BatchScheduler::Ticket& ticket = tickets[rep.ticket];
    util::Result<core::AnswerResult> outcome = std::move(answers[r]);
    if (outcome.ok()) {
      // Degraded (fell-back) answers are not cached: a retry without
      // pressure may serve the better approximation-set answer.
      if (!outcome.value().fell_back) {
        cache_.Insert(ticket.fingerprint, generation->number,
                      outcome.value());
      }
    } else {
      const util::Status failure = outcome.status();
      if (failure.code() == util::StatusCode::kDeadlineExceeded ||
          failure.code() == util::StatusCode::kCancelled) {
        // Belt and suspenders: the ladder degrades deadline/cancellation
        // failures itself, but one racing the ladder's tier boundaries
        // can still leak — convert it here so a client never sees a raw
        // timeout.
        outcome = ShedOr(*generation, ticket.bound,
                         "shed:" + core::FallbackReasonFromStatus(failure),
                         util::Status::Degraded(
                             "no tier could answer within the budget: " +
                             failure.ToString()));
      } else if (failure.code() == util::StatusCode::kDegraded) {
        degraded_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (outcome.ok()) {
      served_.fetch_add(1 + rep.duplicates.size(),
                        std::memory_order_relaxed);
    }
    // The cache entry and every duplicate share the outcome's rows.
    for (size_t dup : rep.duplicates) {
      tickets[dup].promise.Resolve(outcome);
    }
    ticket.promise.Resolve(std::move(outcome));
  }
}

util::Status ServeEngine::FineTune(const metric::Workload& new_queries) {
  ASQP_RETURN_NOT_OK(model_->FineTune(new_queries));
  // Lazy per-lookup invalidation already guarantees correctness (what a
  // batch still on the old generation inserts later misses by its stamp);
  // the eager sweep frees the stale entries' bytes now.
  cache_.InvalidateOlderThan(model_->generation());
  // Memoized fingerprints stay valid across generations, but clearing
  // bounds the memo to texts served since the last fine-tune.
  memo_.Clear();
  return util::Status::OK();
}

}  // namespace serve
}  // namespace asqp
