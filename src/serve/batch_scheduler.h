// The serving layer's only admission gate and shared-scan batch former.
//
// Every query that misses the answer cache becomes a Ticket (owned
// statement copy, its bound form, caller context, fingerprint, promise).
// At most `slots` batches execute at once. A synchronous caller runs its
// ticket as a one-member batch on its own thread (RunInlineOrSubmit) when
// the gather window is 0, a slot is free and no ticket is queued ahead of
// it — the ThreadPool::ParallelFor pattern of the caller doing the work.
// Every other ticket waits in a bounded queue: a gather thread groups
// tickets by their table-set key, and a group becomes a batch when it
// reaches max_batch members or its oldest ticket has waited out the
// gather window, whichever comes first — so queries over the same tables
// share one scan pass (multi-query optimization), while disjoint-table
// queries sit in different groups and never wait on each other's
// batches. Ready batches leave the queue in arrival order, one per free
// slot, on a fixed pool of executor threads. Inline runs and executor
// runs both go through the engine's ExecuteFn (ServeEngine::ExecuteBatch),
// which resolves every member's promise; asynchronous sessions wait on
// futures, not threads.
//
// Shutdown flushes: the destructor stops intake, promotes every gathering
// group to a batch, executes them all, then joins — no ticket is ever
// dropped with an unresolved promise.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/answer_future.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/canonicalize.h"
#include "util/annotations.h"
#include "util/exec_context.h"

namespace asqp {
namespace serve {

class BatchScheduler {
 public:
  struct Options {
    /// Seconds a group's oldest ticket waits for peers before the group
    /// executes. <= 0 makes every ticket its own batch the moment it is
    /// admitted (and lets RunInlineOrSubmit run it on the caller).
    double window_seconds = 0.001;
    /// A group reaching this many members executes without waiting.
    size_t max_batch = 8;
    /// Tickets queued (gathering + ready) before Submit rejects.
    size_t queue_capacity = 16;
    /// Batches executing at once, inline or on an executor thread (the
    /// serving layer's in-flight bound). One executor thread per slot.
    size_t slots = 1;
  };

  /// One admitted query. The statement is an owned deep copy (the caller's
  /// may die while the ticket waits); the context shares the caller's
  /// cancellation flag and deadline.
  struct Ticket {
    sql::SelectStatement stmt;
    /// `stmt` bound against the model's database by the serving front
    /// half, so execution never binds it again.
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

  /// Enqueue a ticket. Returns false — without resolving the promise —
  /// when the queue is at capacity or the scheduler is shutting down; the
  /// caller owns the rejection (shed / typed back-pressure error).
  [[nodiscard]] bool Submit(Ticket ticket) ASQP_EXCLUDES(mu_);

  /// Run `ticket` as a one-member batch on the calling thread when the
  /// gather window is 0, a slot is free and no ticket is queued — the
  /// promise is resolved when this returns. Otherwise Submit it, so a
  /// late arrival never runs ahead of a queued ticket. Returns false
  /// exactly when Submit would.
  [[nodiscard]] bool RunInlineOrSubmit(Ticket ticket) ASQP_EXCLUDES(mu_);

  struct Stats {
    uint64_t submitted = 0;       ///< tickets accepted (queued or inline)
    uint64_t rejected = 0;        ///< Submit refusals (queue full)
    uint64_t batches_formed = 0;  ///< batches formed, inline runs included
    uint64_t batch_members = 0;   ///< tickets across all formed batches
    uint64_t inline_runs = 0;     ///< one-member batches run by the caller
  };
  Stats stats() const;

  /// Tickets gathering or ready but not yet handed to an executor.
  size_t QueueDepth() const;

  const Options& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Groups only live inside `gathering_`, so their fields inherit its
  /// lock protocol.
  struct Group {
    std::vector<Ticket> tickets ASQP_GUARDED_BY(mu_);
    /// Arrival of the first (oldest) ticket.
    Clock::time_point oldest ASQP_GUARDED_BY(mu_);
  };

  void GatherLoop();
  void ExecutorLoop();
  /// Return an inline run's slot, handing it to a queued batch if any.
  void ReleaseInlineSlot() ASQP_EXCLUDES(mu_);

  const Options options_;
  const ExecuteFn execute_;

  mutable std::mutex mu_;
  std::condition_variable gather_cv_;
  std::condition_variable exec_cv_;
  bool stop_ ASQP_GUARDED_BY(mu_) = false;
  bool flushed_ ASQP_GUARDED_BY(mu_) = false;
  std::map<std::string, Group> gathering_ ASQP_GUARDED_BY(mu_);
  std::deque<std::vector<Ticket>> ready_ ASQP_GUARDED_BY(mu_);
  size_t queued_tickets_ ASQP_GUARDED_BY(mu_) = 0;
  /// Batches executing right now, inline or on executors (<= slots).
  size_t running_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t submitted_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batches_formed_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t batch_members_ ASQP_GUARDED_BY(mu_) = 0;
  uint64_t inline_runs_ ASQP_GUARDED_BY(mu_) = 0;

  std::thread gatherer_;
  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace asqp
