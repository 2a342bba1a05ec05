// The serving layer's only admission gate and shared-scan batch former.
//
// Every query that misses the answer cache becomes a Ticket (its bound
// statement, caller context, fingerprint, promise).
// At most `slots` batches execute at once. A synchronous caller runs its
// ticket as a one-member batch on its own thread (RunInlineOrSubmit) when
// a slot is free and no ticket is queued ahead of it — the
// ThreadPool::ParallelFor pattern of the caller doing the work. Every
// other ticket waits in one bounded queue, in arrival order, for a fixed
// pool of executor threads (one per slot).
//
// Batches form by group commit: when a slot frees, the executor that
// takes it removes the oldest queued ticket and the queued tickets with
// the same table-set key, in arrival order, up to max_batch, and runs
// them as one batch. So queries over the same tables share one scan pass
// (multi-query optimization) exactly when load has built a queue behind
// busy slots, and a ticket never waits for peers that have not arrived.
// Inline runs and executor runs both go through the engine's ExecuteFn
// (ServeEngine::ExecuteBatch), which resolves every member's promise;
// asynchronous sessions wait on futures, not threads.
//
// Shutdown drains: the destructor stops intake, and the executors exit
// only once the queue is empty — no ticket is ever dropped with an
// unresolved promise.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/answer_future.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "util/annotations.h"
#include "util/exec_context.h"

namespace asqp {
namespace serve {

class BatchScheduler {
 public:
  struct Options {
    /// Tickets one batch may take from the queue: the oldest and its
    /// same-key peers. 1 runs every ticket alone.
    size_t max_batch = 8;
    /// Tickets queued before Submit rejects.
    size_t queue_capacity = 16;
    /// Batches executing at once, inline or on an executor thread (the
    /// serving layer's in-flight bound). One executor thread per slot.
    size_t slots = 1;
  };

  /// One admitted query. It owns its statement, bound in place against
  /// the model's database by the serving front half (`bound.stmt`), so
  /// execution never binds it again and the caller's may die while the
  /// ticket waits; the context shares the caller's cancellation flag and
  /// deadline.
  struct Ticket {
    sql::BoundQuery bound;
    util::ExecContext context;
    sql::QueryFingerprint fingerprint;
    /// Grouping key: the sorted, deduplicated bound table names.
    std::string group_key;
    AnswerPromise promise;
  };

  using ExecuteFn = std::function<void(std::vector<Ticket>&&)>;

  /// `execute` runs on executor threads (and on callers' threads for
  /// inline runs) and must resolve every ticket's promise
  /// (ServeEngine::ExecuteBatch does).
  BatchScheduler(Options options, ExecuteFn execute);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueue a ticket, moving from it. Returns false — without resolving
  /// the promise or moving from `ticket` — when the queue is at capacity
  /// or the scheduler is shutting down; the caller owns the rejection
  /// (shed / typed back-pressure error) and still holds the ticket.
  [[nodiscard]] bool Submit(Ticket&& ticket) ASQP_EXCLUDES(mu_);

  /// Run `ticket` as a one-member batch on the calling thread when a slot
  /// is free and no ticket is queued — the promise is resolved when this
  /// returns. Otherwise Submit it, so a late arrival never runs ahead of
  /// a queued ticket. Returns false exactly when Submit would, leaving
  /// `ticket` with the caller.
  [[nodiscard]] bool RunInlineOrSubmit(Ticket&& ticket) ASQP_EXCLUDES(mu_);

  struct Stats {
    uint64_t submitted = 0;       ///< tickets accepted (queued or inline)
    uint64_t rejected = 0;        ///< Submit refusals (queue full)
    uint64_t batches_formed = 0;  ///< batches formed, inline runs included
    uint64_t batch_members = 0;   ///< tickets across all formed batches
    uint64_t inline_runs = 0;     ///< one-member batches run by the caller
  };
  Stats stats() const;

  /// Tickets queued but not yet taken into a batch.
  size_t QueueDepth() const;

  const Options& options() const { return options_; }

 private:
  void ExecutorLoop();
  /// Return an inline run's slot, handing it to a queued ticket if any.
  void ReleaseInlineSlot() ASQP_EXCLUDES(mu_);

  const Options options_;
  const ExecuteFn execute_;

  mutable std::mutex mu_;
  std::condition_variable exec_cv_;
  bool stop_ ASQP_GUARDED_BY(mu_) = false;
  /// Admitted tickets not yet taken into a batch, oldest first.
  std::deque<Ticket> queue_ ASQP_GUARDED_BY(mu_);
  /// Batches executing right now, inline or on executors (<= slots).
  size_t running_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t submitted_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batches_formed_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batch_members_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t inline_runs_ ASQP_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace asqp
