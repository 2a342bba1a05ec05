#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/sync.h"

namespace asqp {
namespace util {

std::atomic<size_t> ThreadPool::live_workers_{0};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  live_workers_.fetch_add(num_threads, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
  live_workers_.fetch_sub(workers_.size(), std::memory_order_relaxed);
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr e = std::move(first_exception_);
    first_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // All iteration state is per-call so overlapping ParallelFor calls on a
  // shared pool stay independent: each call has its own work-stealing
  // counter, its own completion latch, and its own first-exception slot.
  // The state is heap-shared with the helper tasks, which may start after
  // the caller has returned.
  struct ForState {
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    Latch done;
    explicit ForState(size_t n) : done(n) {}
  };
  // The caller is one participant, so at most n - 1 helpers are useful.
  const size_t helpers = std::min(n - 1, workers_.size());
  // The latch counts indices, not participants, so the caller never waits
  // for a helper that wakes late. Every claimed index counts down, also
  // when `fn` throws, so the latch always releases; a late helper's claim
  // fails and it touches only `state`, never `fn`. First exception wins
  // across caller and helpers.
  auto state = std::make_shared<ForState>(n);
  auto drain = [state, &fn, n] {
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < n; i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::unique_lock<std::mutex> lock(state->error_mu);
        if (state->first_error == nullptr) {
          state->first_error = std::current_exception();
        }
      }
      state->done.CountDown();
    }
  };
  for (size_t w = 0; w < helpers; ++w) Submit(drain);
  drain();
  state->done.Wait();
  if (state->first_error != nullptr) {
    std::rethrow_exception(state->first_error);
  }
}

Status ThreadPool::ParallelForChunked(
    size_t n, size_t chunk_size,
    const std::function<Status(size_t chunk, size_t begin, size_t end)>& fn) {
  if (n == 0) return Status::OK();
  if (chunk_size == 0) chunk_size = 1;
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  // Each chunk writes only its own slot, so the vector needs no lock; the
  // ParallelFor barrier publishes every slot before the scan below.
  std::vector<Status> statuses(num_chunks);
  std::atomic<bool> failed{false};
  ParallelFor(num_chunks, [&](size_t chunk) {
    if (failed.load(std::memory_order_relaxed)) return;
    const size_t begin = chunk * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    Status st = fn(chunk, begin, end);
    if (!st.ok()) {
      statuses[chunk] = std::move(st);
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (failed.load(std::memory_order_relaxed)) {
    for (Status& st : statuses) {
      if (!st.ok()) return std::move(st);
    }
  }
  return Status::OK();
}

namespace {

/// Below this many multiply-adds ForEachRange runs on the calling thread: a
/// ParallelFor round trip (waking helpers, the completion latch) costs more
/// than the work it would split.
constexpr size_t kMinParallelWork = size_t{1} << 17;
/// Ranges per participating thread in ForEachRange.
constexpr size_t kRangesPerThread = 4;

}  // namespace

void ForEachRange(ThreadPool* pool, size_t count, size_t work,
                  const std::function<void(size_t begin, size_t end)>& fn) {
  if (count == 0) return;
  if (pool == nullptr || count == 1 || work < kMinParallelWork) {
    fn(0, count);
    return;
  }
  const size_t ranges =
      std::min(count, (pool->num_threads() + 1) * kRangesPerThread);
  pool->ParallelFor(ranges, [&](size_t r) {
    fn(count * r / ranges, count * (r + 1) / ranges);
  });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (error != nullptr && first_exception_ == nullptr) {
        first_exception_ = std::move(error);
      }
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace util
}  // namespace asqp
