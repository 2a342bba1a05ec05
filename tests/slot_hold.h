// Holds a ServeEngine's only execution slot (ServeOptions::max_inflight
// = 1) so that the tests decide what is queued when a slot frees, and no
// timing does: tickets submitted while the hold stands wait in the queue,
// and the batches they form start only after Release().
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "serve/serve_engine.h"

namespace asqp {
namespace testing {

class SlotHold {
 public:
  /// Returns once an executor is blocked inside ServeEngine::ExecuteBatch:
  /// the holder query's OnReady callback runs on the thread that resolves
  /// it, and waits there for Release(). The holder queries read `title`.
  explicit SlotHold(serve::ServeEngine* engine) {
    const std::thread::id caller = std::this_thread::get_id();
    for (int attempt = 0;; ++attempt) {
      // A fresh query per attempt: an earlier holder's answer may be
      // cached, and a hit never takes a slot.
      serve::AnswerFuture holder = engine->AnswerSqlAsync(
          std::string("SELECT t.name FROM title t WHERE t.id > ") +
          std::to_string(attempt));
      holder.OnReady([this, caller](const auto&) {
        std::unique_lock<std::mutex> lock(mu_);
        if (std::this_thread::get_id() == caller) {
          // The holder resolved before OnReady registered the callback,
          // so it runs here, on the test thread, holding no slot.
          missed_ = true;
          return;
        }
        holding_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        holding_ = false;
        cv_.notify_all();
      });
      std::lock_guard<std::mutex> lock(mu_);
      if (!missed_) break;
      missed_ = false;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return holding_; });
  }

  /// Waits for the callback to leave, so the hold outlives its use.
  ~SlotHold() { Release(); }

  SlotHold(const SlotHold&) = delete;
  SlotHold& operator=(const SlotHold&) = delete;

  /// Let the executor go, and wait until the callback has returned.
  void Release() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !holding_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool missed_ = false;
  bool holding_ = false;
  bool released_ = false;
};

}  // namespace testing
}  // namespace asqp
