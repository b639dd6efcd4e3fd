// Copyright 2026 The SONG-Repro Authors.
//
// Request-lifecycle observability (ROADMAP item 1's prerequisite telemetry):
// where does a request spend its life between arrival and completion? A
// RequestTimeline carries monotonic stage stamps (enqueue -> batched ->
// search-begin -> degraded/complete) recorded by the serving tier, by the
// batch engine's checked TrySearch path and by single-query serving loops;
// the derived per-stage durations feed the song.req.* histograms and the
// flight-recorder records (obs/flight_recorder.h).
//
// Stage attribution telescopes: total_us is computed as the float sum
// queue_us + batch_form_us + search_us (never complete - enqueue), so
//   sum(song.req.total_us) ~= sum(queue) + sum(batch_form) + sum(search)
// holds to within per-record float rounding over any number of requests —
// the invariant tools/validate_telemetry.py enforces on --statusz dumps.
//
// Everything here is opt-in: the unchecked Search path never touches these
// types, and a null registry/recorder makes every Record call a no-op.

#ifndef SONG_OBS_REQUEST_TIMELINE_H_
#define SONG_OBS_REQUEST_TIMELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/status.h"
#include "obs/metrics.h"

namespace song::obs {

/// FNV-1a over an integer, for order-insensitive-free (sequential) mixing of
/// option knobs into a request's options digest.
inline uint64_t Fnv1aMix(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/// Monotonic stage stamps for one request, in microseconds relative to a
/// caller-chosen epoch (the batch engine stamps against one Timer started at
/// TrySearch entry, shared read-only across worker threads; the server
/// against its own start).
///
///   enqueue      request arrival (frame decoded / TrySearch entry)
///   batched      a worker claimed the request (queue wait ends)
///   search_begin its search is about to run (batch formation ends)
///   complete     Search returned (degraded or not) or validation rejected
struct RequestTimeline {
  double enqueue_us = 0.0;
  double batched_us = 0.0;
  double search_begin_us = 0.0;
  double complete_us = 0.0;

  /// Queue wait: enqueue -> batched, until a worker claims the request.
  float QueueUs() const { return Stage(enqueue_us, batched_us); }
  /// Batch formation: batched -> search_begin — dispatch, validation and
  /// the wait behind batchmates that search before this request.
  float BatchFormUs() const { return Stage(batched_us, search_begin_us); }
  /// The search itself: search_begin -> complete.
  float SearchUs() const { return Stage(search_begin_us, complete_us); }
  /// Float sum of the three stages, so per-stage histograms telescope
  /// exactly (not complete - enqueue, which would drift by rounding).
  float TotalUs() const { return QueueUs() + BatchFormUs() + SearchUs(); }

 private:
  static float Stage(double begin, double end) {
    const double d = end - begin;
    return d > 0.0 ? static_cast<float>(d) : 0.0f;
  }
};

/// One completed request, as retained by the flight recorder. Trivially
/// copyable and a multiple of 8 bytes so the lock-free ring can store it as
/// relaxed atomic words; no pointers, no allocation.
struct RequestRecord {
  uint64_t request_id = 0;
  uint64_t options_digest = 0;   ///< SongSearchOptions::Digest(k)
  uint64_t snapshot_version = 0; ///< MVCC version served, 0 = frozen index
  float queue_us = 0.0f;
  float batch_form_us = 0.0f;
  float search_us = 0.0f;
  float total_us = 0.0f;
  int32_t status_code = 0;       ///< StatusCode as int
  uint8_t degraded = 0;          ///< budget cut the search short
  uint8_t rejected = 0;          ///< validation refused the query
  uint8_t reserved[2] = {};

  StatusCode code() const { return static_cast<StatusCode>(status_code); }

  static RequestRecord Make(uint64_t request_id, uint64_t options_digest,
                            const RequestTimeline& timeline, StatusCode code,
                            bool degraded, bool rejected,
                            uint64_t snapshot_version = 0) {
    RequestRecord r;
    r.request_id = request_id;
    r.options_digest = options_digest;
    r.snapshot_version = snapshot_version;
    r.queue_us = timeline.QueueUs();
    r.batch_form_us = timeline.BatchFormUs();
    r.search_us = timeline.SearchUs();
    r.total_us = timeline.TotalUs();
    r.status_code = static_cast<int32_t>(code);
    r.degraded = degraded ? 1 : 0;
    r.rejected = rejected ? 1 : 0;
    return r;
  }
};

static_assert(std::is_trivially_copyable_v<RequestRecord>,
              "the flight recorder memcpys records into atomic words");
static_assert(sizeof(RequestRecord) % sizeof(uint64_t) == 0,
              "record must tile into 8-byte ring words");

inline constexpr size_t kRequestRecordWords =
    sizeof(RequestRecord) / sizeof(uint64_t);

/// Number of distinct StatusCode values (kOk..kUnavailable). Kept in sync
/// with core/status.h by the switch in Status::CodeSlug.
inline constexpr int kNumStatusCodes =
    static_cast<int>(StatusCode::kUnavailable) + 1;

/// Resolves the song.req.* metric family once and records per-request stage
/// durations plus outcome counters (song.req.outcome.<slug>). Construction
/// takes the registry mutex a handful of times; Record is lock-free (the
/// outcome counters resolve lazily, once per observed status code). A null
/// registry makes every call a no-op.
class RequestMetrics {
 public:
  explicit RequestMetrics(MetricsRegistry* registry) : registry_(registry) {
    if (registry_ == nullptr) return;
    queue_us_ = &registry_->GetHistogram("song.req.queue_us");
    batch_form_us_ = &registry_->GetHistogram("song.req.batch_form_us");
    search_us_ = &registry_->GetHistogram("song.req.search_us");
    total_us_ = &registry_->GetHistogram("song.req.total_us");
  }

  bool enabled() const { return registry_ != nullptr; }

  void Record(const RequestRecord& r) const {
    if (registry_ == nullptr) return;
    queue_us_->Observe(static_cast<double>(r.queue_us));
    batch_form_us_->Observe(static_cast<double>(r.batch_form_us));
    search_us_->Observe(static_cast<double>(r.search_us));
    total_us_->Observe(static_cast<double>(r.total_us));
    Outcome(r.code()).Increment();
  }

 private:
  Counter& Outcome(StatusCode code) const {
    int idx = static_cast<int>(code);
    if (idx < 0 || idx >= kNumStatusCodes) idx = 0;
    Counter* c = outcomes_[idx].load(std::memory_order_acquire);
    if (c == nullptr) {
      // GetCounter is idempotent, so a racing double-resolve is benign.
      c = &registry_->GetCounter(std::string("song.req.outcome.") +
                                 Status::CodeSlug(static_cast<StatusCode>(
                                     idx)));
      outcomes_[idx].store(c, std::memory_order_release);
    }
    return *c;
  }

  MetricsRegistry* registry_ = nullptr;
  Histogram* queue_us_ = nullptr;
  Histogram* batch_form_us_ = nullptr;
  Histogram* search_us_ = nullptr;
  Histogram* total_us_ = nullptr;
  mutable std::atomic<Counter*> outcomes_[kNumStatusCodes] = {};
};

class FlightRecorder;  // obs/flight_recorder.h

/// Sink bundle for single-query serving paths (SongSearcher::TrySearch /
/// IndexSnapshot::TrySearch). The caller owns stamping of the pre-search
/// stages (queue_us / batch_form_us); the searcher measures search_us,
/// composes the RequestRecord and emits it to both sinks. Either sink may
/// be null.
struct RequestObserver {
  const RequestMetrics* metrics = nullptr;
  FlightRecorder* recorder = nullptr;
  uint64_t request_id = 0;
  uint64_t snapshot_version = 0;  ///< filled by IndexSnapshot::TrySearch
  float queue_us = 0.0f;
  float batch_form_us = 0.0f;
};

/// Composes and emits one RequestRecord for a single-query serving call:
/// the pre-search stages come from the observer's stamps, the search stage
/// from `search_us` (0 for a validation rejection). No-op for null sinks.
/// Defined in flight_recorder.cc (needs the recorder's full type).
void EmitRequestRecord(const RequestObserver& observer,
                       uint64_t options_digest, float search_us,
                       StatusCode code, bool degraded, bool rejected);

}  // namespace song::obs

#endif  // SONG_OBS_REQUEST_TIMELINE_H_
