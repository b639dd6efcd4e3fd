#include "song/batch_engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/simd.h"
#include "core/thread_pool.h"
#include "core/timer.h"

namespace song {

namespace {

/// Queries claimed per atomic grab in the batch loop: adjacent queries
/// share the cache-warm index pages their traversals touch, so each thread
/// streams a small run instead of interleaving query-by-query.
constexpr size_t kQueryChunk = 8;

/// Batch-level counters and occupancy/latency distributions. Counter names
/// deliberately mirror the hop/probe metrics the baselines emit
/// (hnsw.search.*, ivfpq.search.*) so SONG-vs-baseline dashboards line up.
void RecordBatchMetrics(const BatchResult& batch,
                        const SongSearchOptions& options,
                        obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetCounter("song.batch.batches").Increment();
  registry->GetCounter("song.batch.queries").Increment(batch.num_queries);
  registry->GetGauge("song.batch.wall_seconds").Set(batch.wall_seconds);
  registry->GetGauge("song.batch.qps").Set(batch.Qps());
  registry->GetGauge("song.batch.queue_size")
      .Set(static_cast<double>(options.queue_size));
  // Which distance tier Stage 2 dispatched to (0=scalar, 1=avx2, 2=avx512);
  // lets deployments confirm the SIMD path is live from telemetry alone.
  registry->GetGauge("song.search.simd_tier")
      .Set(static_cast<double>(ActiveSimdTier()));

  obs::Histogram& latency = registry->GetHistogram("song.query.latency_us");
  for (const float us : batch.latencies_us) {
    latency.Observe(static_cast<double>(us));
  }

  const SearchStats& s = batch.stats;
  registry->GetCounter("song.search.iterations").Increment(s.iterations);
  registry->GetCounter("song.search.hops").Increment(s.vertices_expanded);
  registry->GetCounter("song.search.distance_computations")
      .Increment(s.distance_computations);
  registry->GetCounter("song.search.graph_rows_loaded")
      .Increment(s.graph_rows_loaded);
  registry->GetCounter("song.search.graph_bytes_loaded")
      .Increment(s.graph_bytes_loaded);
  registry->GetCounter("song.search.data_bytes_loaded")
      .Increment(s.data_bytes_loaded);
  registry->GetCounter("song.search.q_pushes").Increment(s.q_pushes);
  registry->GetCounter("song.search.q_pops").Increment(s.q_pops);
  registry->GetCounter("song.search.q_evictions").Increment(s.q_evictions);
  registry->GetCounter("song.search.q_rejections").Increment(s.q_rejections);
  registry->GetCounter("song.search.topk_pushes").Increment(s.topk_pushes);
  registry->GetCounter("song.search.topk_evictions")
      .Increment(s.topk_evictions);
  registry->GetCounter("song.search.visited_tests").Increment(s.visited_tests);
  registry->GetCounter("song.search.visited_insertions")
      .Increment(s.visited_insertions);
  registry->GetCounter("song.search.visited_deletions")
      .Increment(s.visited_deletions);
  registry->GetCounter("song.search.visited_insert_failures")
      .Increment(s.visited_insert_failures);
  registry->GetCounter("song.search.selected_insertion_skips")
      .Increment(s.selected_insertion_skips);
  registry->GetCounter("song.search.degraded")
      .Increment(batch.queries_degraded);
  registry->GetCounter("song.batch.rejected_queries")
      .Increment(batch.queries_rejected);
  registry->GetGauge("song.search.visited_capacity_bytes")
      .Set(static_cast<double>(s.visited_capacity_bytes));
  registry->GetGauge("song.search.peak_visited_size")
      .Set(static_cast<double>(s.peak_visited_size));

  // Quantized-traversal telemetry: emitted only when the batch ran with
  // quant != kNone, so exact-search deployments see an unchanged metric set.
  if (options.quant != QuantizationMode::kNone) {
    registry->GetCounter("song.search.quant.adc_tables")
        .Increment(s.adc_tables_built);
    registry->GetCounter("song.search.quant.adc_table_build_ns")
        .Increment(s.adc_table_build_ns);
    registry->GetCounter("song.search.quant.rerank_candidates")
        .Increment(s.rerank_candidates);
    registry->GetCounter("song.search.quant.rerank_bytes_loaded")
        .Increment(s.rerank_bytes_loaded);
    if (batch.num_queries > 0) {
      registry->GetGauge("song.search.quant.rerank_pool_size")
          .Set(static_cast<double>(s.rerank_candidates) /
               static_cast<double>(batch.num_queries));
    }
  }

  registry->GetCounter("song.trace.sampled").Increment(batch.traces.size());
  registry->GetCounter("song.trace.dropped").Increment(batch.traces_dropped);
  if (!batch.traces.empty()) {
    obs::Histogram& hops = registry->GetHistogram("song.trace.hops");
    obs::Histogram& frontier =
        registry->GetHistogram("song.trace.peak_frontier");
    for (const obs::SearchTrace& t : batch.traces) {
      hops.Observe(static_cast<double>(t.Hops()));
      uint32_t peak = 0;
      for (const obs::TraceIterationRow& r : t.rows) {
        peak = std::max(peak, r.frontier_size);
      }
      frontier.Observe(static_cast<double>(peak));
    }
  }
}

}  // namespace

BatchEngine::BatchEngine(const SongSearcher* searcher, size_t num_threads)
    : searcher_(searcher),
      num_threads_(num_threads != 0
                       ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency())) {
  SONG_CHECK(searcher != nullptr);
}

BatchResult BatchEngine::Search(const Dataset& queries, size_t k,
                                const SongSearchOptions& options) const {
  return Search(queries, k, options, BatchTelemetry{});
}

BatchResult BatchEngine::Search(const Dataset& queries, size_t k,
                                const SongSearchOptions& options,
                                const BatchTelemetry& telemetry) const {
  return RunBatch(queries, k, options, telemetry, /*validate=*/false);
}

StatusOr<BatchResult> BatchEngine::TrySearch(
    const Dataset& queries, size_t k, const SongSearchOptions& options,
    const BatchTelemetry& telemetry) const {
  // Request lifecycle (enqueue stamp + ids + per-stage histograms) is armed
  // only when telemetry asks for it; otherwise this path is stamp-free and
  // results/allocations match the pre-lifecycle engine exactly.
  const bool lifecycle_on =
      telemetry.request_lifecycle && (telemetry.registry != nullptr ||
                                      telemetry.flight_recorder != nullptr);
  Timer clock;  // epoch: request arrival (the enqueue stamp is 0)
  const uint64_t id_base =
      lifecycle_on ? request_seq_.fetch_add(
                         std::max<uint64_t>(queries.num(), 1),
                         std::memory_order_relaxed)
                   : 0;

  // Records a single turned-away record for the whole batch: all lifetime
  // up to the refusal is queue time (the batch never got admitted).
  auto record_refusal = [&](const Status& status) {
    if (!lifecycle_on) return;
    obs::RequestTimeline tl;
    const double now = clock.ElapsedMicros();
    tl.enqueue_us = 0.0;
    tl.batched_us = tl.search_begin_us = tl.complete_us = now;
    obs::RequestRecord rec = obs::RequestRecord::Make(
        id_base, options.Digest(k), tl, status.code(), /*degraded=*/false,
        /*rejected=*/true);
    obs::RequestMetrics(telemetry.registry).Record(rec);
    if (telemetry.flight_recorder != nullptr) {
      telemetry.flight_recorder->Record(rec);
    }
  };

  if (queries.dim() != searcher_->data().dim()) {
    Status status = Status::InvalidArgument(
        "query dim " + std::to_string(queries.dim()) +
        " does not match index dim " +
        std::to_string(searcher_->data().dim()));
    record_refusal(status);
    return status;
  }
  const Status shape = searcher_->ValidateOptions(k, options);
  if (!shape.ok()) {
    record_refusal(shape);
    return shape;
  }

  LifecycleContext lifecycle;
  lifecycle.clock = &clock;
  lifecycle.enqueue_us = 0.0;
  lifecycle.request_id_base = id_base;
  lifecycle.options_digest = options.Digest(k);
  return RunBatch(queries, k, options, telemetry, /*validate=*/true,
                  lifecycle_on ? &lifecycle : nullptr);
}

BatchResult BatchEngine::RunBatch(const Dataset& queries, size_t k,
                                  const SongSearchOptions& options,
                                  const BatchTelemetry& telemetry,
                                  bool validate,
                                  const LifecycleContext* lifecycle) const {
  BatchResult batch;
  batch.num_queries = queries.num();
  batch.results.resize(queries.num());
  batch.latencies_us.resize(queries.num());
  batch.start_offsets_us.resize(queries.num());
  batch.degraded.assign(queries.num(), 0);
  batch.rejected.assign(queries.num(), 0);

  std::vector<SongWorkspace> workspaces(num_threads_);
  std::vector<SearchStats> thread_stats(num_threads_);

  const obs::TraceSampler sampler(telemetry.trace_sample_period,
                                  telemetry.trace_seed);
  obs::TraceCollector collector(telemetry.max_traces);

  // Per-request sinks: histogram pointers are resolved once here, worker
  // threads record lock-free. Both are no-ops when lifecycle is off.
  const obs::RequestMetrics req_metrics(
      lifecycle != nullptr ? telemetry.registry : nullptr);
  obs::FlightRecorder* recorder =
      lifecycle != nullptr ? telemetry.flight_recorder : nullptr;

  Timer timer;
  ParallelFor(queries.num(), num_threads_, [&](size_t qi, size_t tid) {
    obs::RequestTimeline tl;
    if (lifecycle != nullptr) {
      tl.enqueue_us = lifecycle->enqueue_us;
      tl.batched_us = lifecycle->clock->ElapsedMicros();
    }
    auto emit = [&](StatusCode code, bool degraded, bool rejected) {
      if (lifecycle == nullptr) return;
      const obs::RequestRecord rec = obs::RequestRecord::Make(
          lifecycle->request_id_base + qi, lifecycle->options_digest, tl,
          code, degraded, rejected);
      req_metrics.Record(rec);
      if (recorder != nullptr) recorder->Record(rec);
    };

    const float* query = queries.Row(static_cast<idx_t>(qi));
    if (validate) {
      const Status vs = searcher_->ValidateQuery(query);
      if (!vs.ok()) {
        batch.rejected[qi] = 1;
        batch.latencies_us[qi] = 0.0f;
        batch.start_offsets_us[qi] = static_cast<float>(timer.ElapsedMicros());
        if (lifecycle != nullptr) {
          tl.search_begin_us = tl.complete_us =
              lifecycle->clock->ElapsedMicros();
        }
        emit(vs.code(), /*degraded=*/false, /*rejected=*/true);
        return;
      }
    }
    const bool traced = sampler.ShouldSample(qi);
    obs::SearchTrace trace;
    bool degraded = false;
    if (lifecycle != nullptr) {
      tl.search_begin_us = lifecycle->clock->ElapsedMicros();
    }
    const double begin_us = timer.ElapsedMicros();
    batch.results[qi] =
        searcher_->Search(query, k, options, &workspaces[tid],
                          &thread_stats[tid], traced ? &trace : nullptr,
                          &degraded);
    batch.latencies_us[qi] =
        static_cast<float>(timer.ElapsedMicros() - begin_us);
    batch.start_offsets_us[qi] = static_cast<float>(begin_us);
    if (lifecycle != nullptr) {
      tl.complete_us = lifecycle->clock->ElapsedMicros();
    }
    if (degraded) batch.degraded[qi] = 1;
    emit(StatusCode::kOk, degraded, /*rejected=*/false);
    if (traced) {
      trace.query_id = qi;
      trace.wall_micros = static_cast<double>(batch.latencies_us[qi]);
      collector.Add(std::move(trace));
    }
  }, kQueryChunk);
  batch.wall_seconds = timer.ElapsedSeconds();

  for (const SearchStats& s : thread_stats) batch.stats.Add(s);
  for (const uint8_t d : batch.degraded) batch.queries_degraded += d;
  for (const uint8_t r : batch.rejected) batch.queries_rejected += r;
  batch.traces_dropped = collector.dropped();
  batch.traces = collector.Take();
  // Worker completion order is nondeterministic; keep exports stable.
  std::sort(batch.traces.begin(), batch.traces.end(),
            [](const obs::SearchTrace& a, const obs::SearchTrace& b) {
              return a.query_id < b.query_id;
            });
  RecordBatchMetrics(batch, options, telemetry.registry);
  return batch;
}

double BatchResult::LatencyPercentileUs(double p) const {
  if (latencies_us.empty()) return 0.0;
  std::vector<float> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace song
