// A count-down Latch: the per-call completion barrier of
// ThreadPool::ParallelFor. (The serving layer's admission gate is
// serve::BatchScheduler.)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "util/annotations.h"

namespace asqp {
namespace util {

/// \brief One-shot count-down latch. `count` arrivals via CountDown()
/// release every thread blocked in Wait(). Unlike WaitIdle-style joins it
/// is per-instance state, so concurrent users of a shared ThreadPool never
/// observe each other's completions.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown(size_t n = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    count_ = n >= count_ ? 0 : count_ - n;
    if (count_ == 0) cv_.notify_all();
  }

  /// Block until the count reaches zero.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ ASQP_GUARDED_BY(mu_);
};

}  // namespace util
}  // namespace asqp
