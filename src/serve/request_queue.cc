#include "serve/request_queue.h"

#include <utility>

#include "core/logging.h"

namespace song::serve {

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

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
  nonempty_.NotifyOne();
  return Status::OK();
}

size_t RequestQueue::PopBatch(std::unique_ptr<PendingRequest>* out,
                              size_t max_batch, size_t* depth) {
  if (max_batch == 0) return 0;
  MutexLock lock(mu_);
  while (queue_.empty() && !closed_) nonempty_.Wait(mu_);
  size_t n = 0;
  if (!queue_.empty()) {
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
  }
  if (depth != nullptr) *depth = queue_.size();
  return n;  // 0 only when closed and drained: the worker-exit signal
}

void RequestQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  nonempty_.NotifyAll();
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
