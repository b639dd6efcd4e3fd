// Copyright 2026 The SONG-Repro Authors.
//
// The serving tier's admission queue: a bounded, lock-annotated MPMC queue
// of pending search requests, plus the work-conserving batching claim the
// scheduler workers drive. Connection reader threads Push decoded requests;
// scheduler workers PopBatch — block only while the queue is empty, then
// claim the oldest request, sweep every queued request that can share its
// batch (same k / ef / cost budget and the same deadline-ness) in arrival
// order, and return at once. An idle worker never holds work back waiting
// for a fuller batch: batches grow only from the backlog that builds while
// every worker is busy, so light traffic runs batches of one and heavy
// traffic fills max_batch-sized batches.
//
// Backpressure is explicit: Push on a full queue is kResourceExhausted and
// Push after Close() is kUnavailable — the caller turns either into an
// immediate shed response, never a silent drop.

#ifndef SONG_SERVE_REQUEST_QUEUE_H_
#define SONG_SERVE_REQUEST_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace song::serve {

class Connection;

/// One decoded, admitted search request waiting for a scheduler worker.
/// Stage stamps are microseconds on the server's clock (Timer started at
/// SongServer::Start); they become the request's RequestTimeline when it
/// settles, so song.req.* histograms cover the full network lifecycle.
struct PendingRequest {
  uint64_t request_id = 0;   ///< server-assigned, monotonic (telemetry id)
  uint64_t client_tag = 0;   ///< echoed to the client verbatim
  uint32_t k = 0;
  uint32_t queue_size = 0;   ///< resolved ef (server default already applied)
  uint64_t deadline_us = 0;  ///< client budget, 0 = none
  uint64_t cost_budget = 0;  ///< search work-unit budget, 0 = none
  std::vector<float> query;
  double enqueue_us = 0.0;   ///< frame decoded
  double batched_us = 0.0;   ///< a scheduler worker claimed it
  double deadline_at_us = 0.0;  ///< enqueue + deadline, 0 = no deadline
  /// Response destination. Holding the shared_ptr keeps the connection's
  /// writer alive until every request it issued has settled, even when the
  /// client disconnects mid-flight. Null in queue-level tests.
  std::shared_ptr<Connection> conn;
};

/// Requests may share a batch iff their key matches: one SongSearchOptions
/// and one k serve the whole engine batch. `bounded_deadline` separates
/// deadline-free requests from deadline-carrying ones so an unhurried
/// request is never cut short by a batchmate's budget.
struct BatchKey {
  uint32_t k = 0;
  uint32_t queue_size = 0;
  uint64_t cost_budget = 0;
  bool bounded_deadline = false;

  friend bool operator==(const BatchKey& a, const BatchKey& b) {
    return a.k == b.k && a.queue_size == b.queue_size &&
           a.cost_budget == b.cost_budget &&
           a.bounded_deadline == b.bounded_deadline;
  }
};

inline BatchKey KeyOf(const PendingRequest& request) {
  BatchKey key;
  key.k = request.k;
  key.queue_size = request.queue_size;
  key.cost_budget = request.cost_budget;
  key.bounded_deadline = request.deadline_us != 0;
  return key;
}

class RequestQueue {
 public:
  /// `capacity` >= 1 bounds queued (not yet claimed) requests.
  explicit RequestQueue(size_t capacity);

  /// Enqueues or refuses: kResourceExhausted when full (shed), kUnavailable
  /// after Close() (draining). Never blocks. On refusal `request` keeps its
  /// ownership so the caller can settle it with a shed response. `depth`,
  /// when set, receives the queue depth the call left behind.
  Status Push(std::unique_ptr<PendingRequest>& request,
              size_t* depth = nullptr) SONG_EXCLUDES(mu_);

  /// Blocks while the queue is empty (returns 0 once it is closed and empty
  /// — the worker-exit signal). Then claims the oldest request plus every
  /// queued request compatible with it, in arrival order and up to
  /// `max_batch` in all, into `out[0..n)` and returns without waiting for
  /// more. `out` must have room for `max_batch` entries. `depth`, when set,
  /// receives the queue depth the claim left behind.
  size_t PopBatch(std::unique_ptr<PendingRequest>* out, size_t max_batch,
                  size_t* depth = nullptr) SONG_EXCLUDES(mu_);

  /// Drain entry: refuses new pushes; PopBatch keeps claiming until empty,
  /// then returns 0. Idempotent.
  void Close() SONG_EXCLUDES(mu_);

  /// Removes and returns every queued request (drain sweep for servers
  /// running without scheduler workers, or after the workers exited).
  std::vector<std::unique_ptr<PendingRequest>> TakeAll() SONG_EXCLUDES(mu_);

  size_t Size() const SONG_EXCLUDES(mu_);
  bool closed() const SONG_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar nonempty_;
  std::deque<std::unique_ptr<PendingRequest>> queue_ SONG_GUARDED_BY(mu_);
  bool closed_ SONG_GUARDED_BY(mu_) = false;
};

}  // namespace song::serve

#endif  // SONG_SERVE_REQUEST_QUEUE_H_
