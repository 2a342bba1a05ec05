// Future/callback-based completion for the serving layer's async sessions.
//
// ServeEngine::AnswerAsync returns an AnswerFuture immediately; the batch
// scheduler resolves the paired AnswerPromise when the query's batch
// executes. A session waits with Get() (blocking; returns a copy of the
// result that shares its rows), registers an OnReady callback (invoked
// inline if the future already resolved, otherwise on the resolving
// executor thread), or multiplexes many futures onto one waiter with a
// CompletionQueue — so hundreds of logical sessions can be in flight
// while only the scheduler's fixed executor threads exist.
//
// Resolution is set-once: the first Resolve wins and later ones are
// ignored, so a shutdown flush racing a normal completion is benign.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/model.h"
#include "util/annotations.h"
#include "util/status.h"

namespace asqp {
namespace serve {

class AnswerPromise;

class AnswerFuture {
 public:
  using Callback = std::function<void(const util::Result<core::AnswerResult>&)>;

  /// Default-constructed futures are invalid (no promise attached).
  AnswerFuture() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the promise resolved (non-blocking).
  bool Ready() const;

  /// Block until resolved; returns a copy of the result, which shares the
  /// resolved rows (O(1) in the row count). Invalid futures return
  /// kInternal.
  util::Result<core::AnswerResult> Get() const;

  /// Register `callback` to run when the future resolves. If it already
  /// resolved, the callback runs inline on this thread before OnReady
  /// returns; otherwise it runs on the resolving thread. Callbacks must
  /// not block the resolving thread on other futures of the same batch.
  void OnReady(Callback callback) const;

 private:
  friend class AnswerPromise;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<util::Result<core::AnswerResult>> result
        ASQP_GUARDED_BY(mu);
    std::vector<Callback> callbacks ASQP_GUARDED_BY(mu);
  };

  explicit AnswerFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// The producer side: ServeEngine holds the promise inside the scheduler
/// ticket and resolves it when the batch executes (or is shed/rejected).
/// Copyable — copies share one resolution state.
class AnswerPromise {
 public:
  AnswerPromise() : state_(std::make_shared<AnswerFuture::State>()) {}

  AnswerFuture future() const { return AnswerFuture(state_); }

  /// Resolve the shared state (first call wins; later calls are no-ops)
  /// and run any registered callbacks on this thread.
  void Resolve(util::Result<core::AnswerResult> result) const;

 private:
  std::shared_ptr<AnswerFuture::State> state_;
};

/// \brief Multiplexes many AnswerFutures onto one waiter: Track() each
/// future with a caller-chosen tag, then loop Next() until it returns
/// nullopt (everything tracked has been delivered). One completion is
/// delivered exactly once regardless of how many threads call Next().
class CompletionQueue {
 public:
  struct Completion {
    uint64_t tag = 0;
    util::Result<core::AnswerResult> result;
  };

  /// Register `future`; its completion will surface through Next() carrying
  /// `tag`. An already-resolved future surfaces immediately.
  void Track(const AnswerFuture& future, uint64_t tag);

  /// Block until a tracked future resolves and return its completion, or
  /// nullopt when no tracked future is outstanding.
  std::optional<Completion> Next();

  /// Tracked futures not yet delivered through Next().
  size_t pending() const;

 private:
  struct Inner {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Completion> ready ASQP_GUARDED_BY(mu);
    size_t outstanding ASQP_GUARDED_BY(mu) = 0;
  };

  /// Shared with the futures' callbacks: a completion arriving after the
  /// queue's destruction lands on the Inner kept alive by the callback.
  std::shared_ptr<Inner> inner_ = std::make_shared<Inner>();
};

}  // namespace serve
}  // namespace asqp
