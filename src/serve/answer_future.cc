#include "serve/answer_future.h"

#include <utility>

namespace asqp {
namespace serve {

bool AnswerFuture::Ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->result.has_value();
}

util::Result<core::AnswerResult> AnswerFuture::Get() const {
  if (state_ == nullptr) {
    return util::Status::Internal("waiting on an invalid AnswerFuture");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->result.has_value(); });
  return *state_->result;
}

void AnswerFuture::OnReady(Callback callback) const {
  if (state_ == nullptr) return;
  // Once resolved the result is set-once and immutable, so a pointer taken
  // under the lock stays valid outside it — run the callback without
  // holding the state lock (it may Get()/OnReady() other futures).
  const util::Result<core::AnswerResult>* resolved = nullptr;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->result.has_value()) {
      state_->callbacks.push_back(std::move(callback));
      return;
    }
    resolved = &*state_->result;
  }
  callback(*resolved);
}

void AnswerPromise::Resolve(util::Result<core::AnswerResult> result) const {
  std::vector<AnswerFuture::Callback> callbacks;
  const util::Result<core::AnswerResult>* resolved = nullptr;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->result.has_value()) return;  // first resolution wins
    state_->result.emplace(std::move(result));
    resolved = &*state_->result;
    callbacks.swap(state_->callbacks);
  }
  state_->cv.notify_all();
  for (AnswerFuture::Callback& callback : callbacks) {
    callback(*resolved);
  }
}

void CompletionQueue::Track(const AnswerFuture& future, uint64_t tag) {
  {
    std::lock_guard<std::mutex> lock(inner_->mu);
    inner_->outstanding += 1;
  }
  // The callback owns a reference to Inner, so completions arriving after
  // the CompletionQueue object is gone still have somewhere to land.
  std::shared_ptr<Inner> inner = inner_;
  future.OnReady([inner, tag](const util::Result<core::AnswerResult>& result) {
    {
      std::lock_guard<std::mutex> lock(inner->mu);
      inner->ready.push_back(Completion{tag, result});
    }
    inner->cv.notify_one();
  });
}

std::optional<CompletionQueue::Completion> CompletionQueue::Next() {
  std::unique_lock<std::mutex> lock(inner_->mu);
  inner_->cv.wait(lock, [this] {
    return !inner_->ready.empty() || inner_->outstanding == 0;
  });
  if (inner_->ready.empty()) return std::nullopt;
  Completion done = std::move(inner_->ready.front());
  inner_->ready.pop_front();
  inner_->outstanding -= 1;
  return done;
}

size_t CompletionQueue::pending() const {
  std::lock_guard<std::mutex> lock(inner_->mu);
  return inner_->outstanding;
}

}  // namespace serve
}  // namespace asqp
