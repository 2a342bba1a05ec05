#include "serve/batch_scheduler.h"

#include <algorithm>
#include <utility>

namespace asqp {
namespace serve {

BatchScheduler::BatchScheduler(Options options, ExecuteFn execute)
    : options_(options), execute_(std::move(execute)) {
  const size_t n = std::max<size_t>(1, options_.slots);
  executors_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

BatchScheduler::~BatchScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  exec_cv_.notify_all();
  // Executors drain the queue to empty before they exit, so every
  // submitted ticket's promise resolves before destruction completes.
  for (std::thread& t : executors_) t.join();
}

bool BatchScheduler::Submit(Ticket&& ticket) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= options_.queue_capacity) {
      ++rejected_;
      return false;
    }
    ++submitted_;
    queue_.push_back(std::move(ticket));
  }
  exec_cv_.notify_one();
  return true;
}

bool BatchScheduler::RunInlineOrSubmit(Ticket&& ticket) {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run_inline = !stop_ && queue_.empty() &&
                 running_ < std::max<size_t>(1, options_.slots);
    if (run_inline) {
      ++running_;
      ++submitted_;
      ++batches_formed_;
      ++batch_members_;
      ++inline_runs_;
    }
  }
  if (!run_inline) return Submit(std::move(ticket));
  // The slot comes back even if the batch throws: the exception reaches
  // this caller, as a solo query's would.
  struct SlotRelease {
    BatchScheduler* scheduler;
    ~SlotRelease() { scheduler->ReleaseInlineSlot(); }
  } release{this};
  std::vector<Ticket> batch;
  batch.push_back(std::move(ticket));
  execute_(std::move(batch));
  return true;
}

void BatchScheduler::ReleaseInlineSlot() {
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    queued = !queue_.empty();
  }
  // The freed slot goes to the oldest ticket that queued meanwhile.
  if (queued) exec_cv_.notify_one();
}

void BatchScheduler::ExecutorLoop() {
  const size_t slots = std::max<size_t>(1, options_.slots);
  const size_t max_batch = std::max<size_t>(1, options_.max_batch);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    exec_cv_.wait(lock, [this, slots] {
      return (!queue_.empty() && running_ < slots) ||
             (queue_.empty() && stop_);
    });
    if (queue_.empty()) break;  // stopped and drained
    // Group commit: the oldest ticket leads, and the queued tickets with
    // its key follow in arrival order.
    std::vector<Ticket> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < max_batch;) {
      if (it->group_key == batch.front().group_key) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    ++running_;
    ++batches_formed_;
    batch_members_ += batch.size();
    lock.unlock();
    execute_(std::move(batch));
    lock.lock();
    --running_;
  }
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.batches_formed = batches_formed_;
  s.batch_members = batch_members_;
  s.inline_runs = inline_runs_;
  return s;
}

size_t BatchScheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace serve
}  // namespace asqp
