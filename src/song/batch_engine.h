// Copyright 2026 The SONG-Repro Authors.
//
// Batched query execution. On the GPU each query (or multi-query group)
// occupies a warp; here each worker thread plays the role of a stream of
// warps. This engine produces (a) real wall-clock throughput — the paper's
// "SONG-cpu" of Fig 15 — and (b) aggregate work counters that the GPU cost
// model converts into simulated kernel time.

#ifndef SONG_SONG_BATCH_ENGINE_H_
#define SONG_SONG_BATCH_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/status.h"
#include "core/timer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "song/song_searcher.h"

namespace song {

/// Opt-in observability for a batch run: per-query traces at 1-in-M
/// sampling and/or metric recording into a registry. The defaults (no
/// registry, period 0) make telemetry a no-op.
struct BatchTelemetry {
  /// Destination for batch/query metrics; nullptr disables recording.
  obs::MetricsRegistry* registry = nullptr;
  /// Trace 1 in `trace_sample_period` queries (0 = tracing off, 1 = all).
  uint32_t trace_sample_period = 0;
  /// Seed of the deterministic query sampler.
  uint64_t trace_seed = 0x534f4e47;  // "SONG"
  /// Hard cap on collected traces per batch.
  size_t max_traces = 4096;
  /// Post-mortem ring for completed request records; nullptr disables it.
  /// Only the checked TrySearch path records (Search stays lifecycle-free),
  /// and each record is one wait-free, allocation-free ring write.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// When false, TrySearch skips per-request records and song.req.* stage
  /// histograms even with a registry/recorder set. The serving tier sets
  /// this: it stamps its own RequestTimeline covering the full network
  /// lifecycle, and engine-level records would double-count each request.
  /// Batch-level metrics (song.batch.*) are unaffected.
  bool request_lifecycle = true;
};

struct BatchResult {
  std::vector<std::vector<Neighbor>> results;
  /// Counters summed over all queries (capacity fields hold maxima).
  SearchStats stats;
  double wall_seconds = 0.0;
  size_t num_queries = 0;
  /// Per-query service times in microseconds (same order as `results`).
  std::vector<float> latencies_us;
  /// Per-query start offsets in microseconds after the batch's worker
  /// fan-out began (same order as `results`): when query q's search started,
  /// or when validation rejected it. With one engine thread, query q's
  /// offset includes the time spent behind queries 0..q-1.
  std::vector<float> start_offsets_us;
  /// Sampled per-query traces (empty unless BatchTelemetry enabled them).
  std::vector<obs::SearchTrace> traces;
  /// Traces discarded after `max_traces` was reached.
  size_t traces_dropped = 0;
  /// Per-query flags, same order as `results`: `degraded[q]` set when a
  /// deadline/cost budget cut query q short (its results are valid but
  /// best-so-far); `rejected[q]` set when validation refused the query
  /// (TrySearch only — its result list is empty).
  std::vector<uint8_t> degraded;
  std::vector<uint8_t> rejected;
  size_t queries_degraded = 0;
  size_t queries_rejected = 0;

  double Qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(num_queries) /
                                    wall_seconds
                              : 0.0;
  }

  /// Latency percentile in microseconds; p in [0, 100]. Returns 0 when no
  /// latencies were recorded.
  double LatencyPercentileUs(double p) const;

  /// Id-only view for recall evaluation.
  std::vector<std::vector<idx_t>> Ids() const {
    std::vector<std::vector<idx_t>> ids(results.size());
    for (size_t q = 0; q < results.size(); ++q) {
      ids[q].reserve(results[q].size());
      for (const Neighbor& n : results[q]) ids[q].push_back(n.id);
    }
    return ids;
  }
};

class BatchEngine {
 public:
  /// `searcher` must outlive the engine. 0 threads = hardware concurrency.
  explicit BatchEngine(const SongSearcher* searcher, size_t num_threads = 0);

  /// Runs every query in `queries`, returning results, wall time and
  /// aggregated counters.
  BatchResult Search(const Dataset& queries, size_t k,
                     const SongSearchOptions& options) const;

  /// Same, with sampled per-query tracing and metric recording. Tracing a
  /// 1-in-M sample adds one deterministic hash per query and a null check
  /// per search iteration for the untraced majority.
  BatchResult Search(const Dataset& queries, size_t k,
                     const SongSearchOptions& options,
                     const BatchTelemetry& telemetry) const;

  /// Checked batch search for serving: validates the batch shape and
  /// options up front (the dim, then SongSearcher::ValidateOptions) and
  /// screens each query for NaN/Inf — a bad query is recorded in `rejected`
  /// with an empty result list instead of poisoning the batch. Valid
  /// queries behave exactly as under Search().
  StatusOr<BatchResult> TrySearch(const Dataset& queries, size_t k,
                                  const SongSearchOptions& options,
                                  const BatchTelemetry& telemetry = {}) const;

  size_t num_threads() const { return num_threads_; }

 private:
  /// Request-lifecycle context for one checked batch: the shared monotonic
  /// epoch (workers read the const Timer concurrently) plus the stamps and
  /// identity taken before the workers fan out. Present only when telemetry
  /// enables a registry or flight recorder; the unchecked Search path and
  /// telemetry-free TrySearch runs pass nullptr and skip every stamp.
  struct LifecycleContext {
    const Timer* clock = nullptr;
    double enqueue_us = 0.0;
    uint64_t request_id_base = 0;
    uint64_t options_digest = 0;
  };

  BatchResult RunBatch(const Dataset& queries, size_t k,
                       const SongSearchOptions& options,
                       const BatchTelemetry& telemetry, bool validate,
                       const LifecycleContext* lifecycle = nullptr) const;

  const SongSearcher* searcher_;
  size_t num_threads_;
  /// Process-lifetime request ids for flight-recorder records.
  mutable std::atomic<uint64_t> request_seq_{0};
};

}  // namespace song

#endif  // SONG_SONG_BATCH_ENGINE_H_
