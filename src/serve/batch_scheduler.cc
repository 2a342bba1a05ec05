#include "serve/batch_scheduler.h"

#include <algorithm>
#include <utility>

namespace asqp {
namespace serve {

BatchScheduler::BatchScheduler(Options options, ExecuteFn execute)
    : options_(options), execute_(std::move(execute)) {
  gatherer_ = std::thread([this] { GatherLoop(); });
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
  gather_cv_.notify_all();
  exec_cv_.notify_all();
  // The gatherer flushes every gathering group into ready_ before it
  // exits; executors drain ready_ to empty before they exit — so every
  // submitted ticket's promise resolves before destruction completes.
  gatherer_.join();
  for (std::thread& t : executors_) t.join();
}

bool BatchScheduler::Submit(Ticket ticket) {
  const std::string key = ticket.group_key;
  bool promoted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queued_tickets_ >= options_.queue_capacity) {
      ++rejected_;
      return false;
    }
    ++submitted_;
    ++queued_tickets_;
    Group& group = gathering_[key];
    if (group.tickets.empty()) group.oldest = Clock::now();
    group.tickets.push_back(std::move(ticket));
    const bool full =
        group.tickets.size() >= std::max<size_t>(1, options_.max_batch);
    if (full || options_.window_seconds <= 0.0) {
      ++batches_formed_;
      batch_members_ += group.tickets.size();
      ready_.push_back(std::move(group.tickets));
      gathering_.erase(key);
      promoted = true;
    }
  }
  if (promoted) {
    exec_cv_.notify_one();
  } else {
    // A new group may now carry the earliest gather deadline.
    gather_cv_.notify_one();
  }
  return true;
}

bool BatchScheduler::RunInlineOrSubmit(Ticket ticket) {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run_inline = options_.window_seconds <= 0.0 && !stop_ &&
                 queued_tickets_ == 0 &&
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
    queued = !ready_.empty();
  }
  // The freed slot goes to the oldest batch that queued meanwhile.
  if (queued) exec_cv_.notify_one();
}

void BatchScheduler::GatherLoop() {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(0.0, options_.window_seconds)));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (gathering_.empty()) {
      gather_cv_.wait(lock, [this] { return stop_ || !gathering_.empty(); });
      continue;
    }
    Clock::time_point earliest = Clock::time_point::max();
    for (const auto& entry : gathering_) {
      earliest = std::min(earliest, entry.second.oldest + window);
    }
    gather_cv_.wait_until(lock, earliest);
    if (stop_) break;
    const Clock::time_point now = Clock::now();
    bool promoted = false;
    for (auto it = gathering_.begin(); it != gathering_.end();) {
      if (now >= it->second.oldest + window) {
        ++batches_formed_;
        batch_members_ += it->second.tickets.size();
        ready_.push_back(std::move(it->second.tickets));
        it = gathering_.erase(it);
        promoted = true;
      } else {
        ++it;
      }
    }
    if (promoted) exec_cv_.notify_all();
  }
  // Shutdown flush: promote every gathering group so its members execute
  // (and resolve) rather than vanish.
  for (auto& entry : gathering_) {
    ++batches_formed_;
    batch_members_ += entry.second.tickets.size();
    ready_.push_back(std::move(entry.second.tickets));
  }
  gathering_.clear();
  flushed_ = true;
  exec_cv_.notify_all();
}

void BatchScheduler::ExecutorLoop() {
  const size_t slots = std::max<size_t>(1, options_.slots);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    exec_cv_.wait(lock, [this, slots] {
      return (!ready_.empty() && running_ < slots) ||
             (ready_.empty() && stop_ && flushed_);
    });
    if (ready_.empty()) break;  // stopped, flushed, and drained
    std::vector<Ticket> batch = std::move(ready_.front());
    ready_.pop_front();
    queued_tickets_ -= batch.size();
    ++running_;
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
  return queued_tickets_;
}

}  // namespace serve
}  // namespace asqp
