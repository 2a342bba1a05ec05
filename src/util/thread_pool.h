// Fixed-size thread pool used for parallel rollout collection (the paper's
// asynchronous actor-learners), for the minibatch kernels of src/nn and the
// k-means assignment step (through ForEachRange), for the multi-process
// brute-force / greedy baselines, and for morsel-parallel query execution
// (exec::QueryEngine).
//
// One pool instance may be shared by many concurrent callers (the serving
// layer runs every session's morsels through a single process-wide pool):
// ParallelFor and the helpers built on it keep all per-call state — the
// work-stealing counter, the completion latch, and the first-exception
// slot — in a per-invocation block, so overlapping calls never observe
// each other's completions or steal each other's exceptions. Submit /
// WaitIdle remain a pool-global pair for callers that own the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"

namespace asqp {
namespace util {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown here (once); later tasks still
  /// ran to completion, so the pool remains usable afterwards.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

  /// Total live pool worker threads across every ThreadPool instance in
  /// the process. Instrumentation hook for the serving layer's
  /// oversubscription assertions: a shared-pool deployment keeps this at
  /// the configured cap no matter how many sessions are in flight.
  static size_t LiveWorkerCount() {
    return live_workers_.load(std::memory_order_relaxed);
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// The calling thread participates in the work, so `ParallelFor` makes
  /// progress even on a saturated pool. It returns once every index has
  /// run, without waiting for helpers that wake after the work is gone:
  /// such a helper finds no index left and never calls `fn`. Edge cases
  /// are well-defined:
  ///   - n == 0 returns immediately (no locking, no stale-exception check);
  ///   - n < num_threads() enqueues only n helper tasks;
  ///   - an exception from `fn` on the calling thread or a worker is
  ///     captured first-exception-wins into *per-call* state and rethrown
  ///     (exactly once) after every index has run — no `fn` is still
  ///     running when the call returns, and a pending Submit() exception
  ///     is never consumed (ParallelFor is not a WaitIdle join point).
  /// Safe to call concurrently from many threads on one shared pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Split [0, n) into chunks of `chunk_size` and run
  /// `fn(chunk, begin, end)` across the pool (the calling thread
  /// participates, like ParallelFor). Each chunk returns a Status rather
  /// than throwing — no exception crosses the pool boundary from `fn`.
  /// Statuses are collected per chunk and the first non-OK Status in
  /// *chunk order* is returned, so the propagated error is deterministic
  /// regardless of scheduling. Once any chunk fails, chunks that have not
  /// started yet are skipped (best-effort early exit); chunks already
  /// running finish normally. n == 0 returns OK immediately.
  [[nodiscard]] Status ParallelForChunked(
      size_t n, size_t chunk_size,
      const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn);

  /// Partitioned reduce: split [0, n) into chunks of `chunk_size`, run
  /// `map(chunk, begin, end, &local)` across the pool — each chunk owning a
  /// default-constructed `Local` (its partition buffer) — then run
  /// `reduce(chunk, &local)` on the *calling thread* in ascending chunk
  /// order. Because every merge happens sequentially in chunk order, the
  /// reduced result is deterministic regardless of how chunks were
  /// scheduled: identical to mapping and reducing the chunks one by one on
  /// a single thread. Error handling matches ParallelForChunked (first
  /// non-OK map Status in chunk order wins; a failed map skips every
  /// reduce); a non-OK reduce Status stops the merge and is returned.
  template <typename Local>
  [[nodiscard]] Status ParallelReduceOrdered(
      size_t n, size_t chunk_size,
      const std::function<Status(size_t chunk, size_t begin, size_t end,
                                 Local* local)>& map,
      const std::function<Status(size_t chunk, Local* local)>& reduce) {
    if (n == 0) return Status::OK();
    if (chunk_size == 0) chunk_size = 1;
    const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
    std::vector<Local> locals(num_chunks);
    ASQP_RETURN_NOT_OK(ParallelForChunked(
        n, chunk_size, [&](size_t chunk, size_t begin, size_t end) -> Status {
          return map(chunk, begin, end, &locals[chunk]);
        }));
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      ASQP_RETURN_NOT_OK(reduce(chunk, &locals[chunk]));
    }
    return Status::OK();
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_ ASQP_GUARDED_BY(mu_);
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  size_t in_flight_ ASQP_GUARDED_BY(mu_) = 0;
  bool shutting_down_ ASQP_GUARDED_BY(mu_) = false;
  /// First exception to escape a Submit()ed task since the last WaitIdle.
  /// Without this a throwing task would std::terminate the worker.
  /// ParallelFor exceptions use per-call state instead.
  std::exception_ptr first_exception_ ASQP_GUARDED_BY(mu_);

  /// Process-wide live worker count (see LiveWorkerCount()).
  static std::atomic<size_t> live_workers_;
};

/// Run fn(begin, end) over disjoint ranges covering [0, count). Runs on the
/// calling thread when `pool` is null or `work` (multiply-adds, roughly) is
/// below a fixed threshold; otherwise splits into several ranges per thread,
/// so that helpers that wake late still find work. Each index belongs to
/// exactly one range, so a caller that writes only its indices' outputs
/// gets the same bits at any pool size.
void ForEachRange(ThreadPool* pool, size_t count, size_t work,
                  const std::function<void(size_t begin, size_t end)>& fn);

}  // namespace util
}  // namespace asqp
