#include "serve/request_queue.h"

#include <utility>

#include "core/logging.h"

namespace song::serve {

RequestQueue::RequestQueue(size_t capacity, size_t slots)
    : capacity_(capacity > 0 ? capacity : 1), slots_(slots) {}

Status RequestQueue::Push(std::unique_ptr<PendingRequest>& request,
                          size_t* depth) {
  SONG_CHECK(request != nullptr);
  MutexLock lock(mu_);
  if (closed_) {
    return Status::Unavailable("request queue draining: not accepting work");
  }
  if (queue_.size() >= capacity_) {
    return Status::ResourceExhausted(
        "request queue full: " + std::to_string(queue_.size()) + " of " +
        std::to_string(capacity_) + " slots");
  }
  queue_.push_back(std::move(request));
  if (depth != nullptr) *depth = queue_.size();
  claimable_.NotifyOne();
  return Status::OK();
}

size_t RequestQueue::PopBatch(std::unique_ptr<PendingRequest>* out,
                              size_t max_batch, size_t* depth) {
  if (max_batch == 0) return 0;
  MutexLock lock(mu_);
  while (!Claimable() && !(closed_ && queue_.empty())) claimable_.Wait(mu_);
  size_t n = 0;
  if (Claimable()) {
    ++in_dispatch_;
    const BatchKey key = KeyOf(*queue_.front());
    // song-lint: begin-hot-path(serve-batch-form)
    // Work-conserving claim under the queue mutex: every queued request and
    // every other worker waits on this sweep, so it is allocation- and
    // logging-free. It takes the compatible requests already queued, in
    // arrival order, and never waits for more.
    for (auto it = queue_.begin(); it != queue_.end() && n < max_batch;) {
      if (KeyOf(**it) == key) {
        out[n] = std::move(*it);
        ++n;
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    // song-lint: end-hot-path
    // Requests the sweep left behind (another key) may still be claimable:
    // pass the wake-up on rather than let them wait for the next Push.
    if (Claimable()) claimable_.NotifyOne();
  }
  if (depth != nullptr) *depth = queue_.size();
  return n;  // 0 only when closed and drained: the worker-exit signal
}

bool RequestQueue::TryClaimIdle() {
  MutexLock lock(mu_);
  if (closed_ || !queue_.empty() || in_dispatch_ >= slots_) return false;
  ++in_dispatch_;
  return true;
}

void RequestQueue::Release() {
  MutexLock lock(mu_);
  SONG_CHECK(in_dispatch_ > 0);
  --in_dispatch_;
  claimable_.NotifyOne();
}

void RequestQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  claimable_.NotifyAll();
}

std::vector<std::unique_ptr<PendingRequest>> RequestQueue::TakeAll() {
  MutexLock lock(mu_);
  std::vector<std::unique_ptr<PendingRequest>> taken;
  taken.reserve(queue_.size());
  while (!queue_.empty()) {
    taken.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return taken;
}

size_t RequestQueue::Size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

}  // namespace song::serve
