// Copyright 2026 The SONG-Repro Authors.
//
// Convenience wrapper combining native batch execution with the GPU cost
// model: one call returns the real results (for recall) plus the simulated
// per-stage GPU profile (for throughput). This is what all figure benches
// drive.

#ifndef SONG_GPUSIM_SIMULATOR_H_
#define SONG_GPUSIM_SIMULATOR_H_

#include <cstddef>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/fault_injection.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "core/timer.h"
#include "gpusim/cost_model.h"
#include "gpusim/gpu_spec.h"
#include "hashing/hashed_index.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"

namespace song {

struct SimulatedRun {
  BatchResult batch;       ///< native execution: results + counters + CPU wall
  KernelBreakdown gpu;     ///< simulated GPU profile for `spec`
  WorkloadShape shape;     ///< the shape `gpu` was priced with
  double SimQps() const { return gpu.Qps(batch.num_queries); }
};

/// Executes `queries` through the SONG pipeline and prices the collected
/// counters on `spec`. `telemetry` (optional) enables sampled per-query
/// traces and metric recording; the simulated profile is surfaced into the
/// telemetry registry as `song.gpu.*`.
inline SimulatedRun SimulateBatch(const SongSearcher& searcher,
                                  const Dataset& queries, size_t k,
                                  const SongSearchOptions& options,
                                  const GpuSpec& spec,
                                  size_t num_threads = 0,
                                  const BatchTelemetry& telemetry = {}) {
  SimulatedRun run;
  BatchEngine engine(&searcher, num_threads);
  run.batch = engine.Search(queries, k, options, telemetry);

  WorkloadShape shape;
  shape.num_queries = queries.num();
  shape.dim = searcher.data().dim();
  shape.point_bytes = searcher.data().dim() * sizeof(float);
  shape.k = k;
  shape.queue_size = std::max(options.queue_size, k);
  shape.degree = searcher.graph().degree();
  shape.multi_query = options.multi_query;
  shape.multi_step = options.multi_step_probe;
  shape.structure = options.structure;
  if (options.quant == QuantizationMode::kPq && searcher.pq_enabled()) {
    shape.pq_m = searcher.pq_distance()->code_bytes();
    shape.full_point_bytes = shape.point_bytes;
    shape.point_bytes = shape.pq_m;  // Stage 2 fetches m-byte codes
  }
  run.shape = shape;

  CostModel model(spec);
  run.gpu = model.Estimate(run.batch.stats, shape);
  RecordKernelBreakdown(run.gpu, run.batch.num_queries, spec,
                        telemetry.registry);
  return run;
}

/// Checked simulation for serving paths. Wraps the batch in the
/// deterministic `transfer.htod` / `transfer.dtoh` fault sites (a tripped
/// transfer returns kUnavailable — the caller may retry) and routes
/// execution through BatchEngine::TrySearch, picking up query validation.
/// With no faults armed the results are identical to SimulateBatch.
inline StatusOr<SimulatedRun> TrySimulateBatch(
    const SongSearcher& searcher, const Dataset& queries, size_t k,
    const SongSearchOptions& options, const GpuSpec& spec,
    size_t num_threads = 0, const BatchTelemetry& telemetry = {}) {
  if (fault::ShouldFail("transfer.htod")) {
    return Status::Unavailable("injected fault: transfer.htod (query upload)");
  }
  SimulatedRun run;
  BatchEngine engine(&searcher, num_threads);
  StatusOr<BatchResult> batch =
      engine.TrySearch(queries, k, options, telemetry);
  if (!batch.ok()) return batch.status();
  run.batch = std::move(batch).value();
  if (fault::ShouldFail("transfer.dtoh")) {
    return Status::Unavailable(
        "injected fault: transfer.dtoh (result download)");
  }

  WorkloadShape shape;
  shape.num_queries = queries.num();
  shape.dim = searcher.data().dim();
  shape.point_bytes = searcher.data().dim() * sizeof(float);
  shape.k = k;
  shape.queue_size = std::max(options.queue_size, k);
  shape.degree = searcher.graph().degree();
  shape.multi_query = options.multi_query;
  shape.multi_step = options.multi_step_probe;
  shape.structure = options.structure;
  if (options.quant == QuantizationMode::kPq && searcher.pq_enabled()) {
    shape.pq_m = searcher.pq_distance()->code_bytes();
    shape.full_point_bytes = shape.point_bytes;
    shape.point_bytes = shape.pq_m;  // Stage 2 fetches m-byte codes
  }
  run.shape = shape;

  CostModel model(spec);
  run.gpu = model.Estimate(run.batch.stats, shape);
  RecordKernelBreakdown(run.gpu, run.batch.num_queries, spec,
                        telemetry.registry);
  return run;
}

/// Same as SimulateBatch for the hashed (out-of-GPU-memory, §VII) index:
/// the device holds bits/8-byte codes, and the host hashes queries before
/// the HtoD transfer.
inline SimulatedRun SimulateHashedBatch(const HashedSongIndex& index,
                                        const Dataset& queries, size_t k,
                                        const SongSearchOptions& options,
                                        const GpuSpec& spec,
                                        size_t num_threads = 0) {
  SimulatedRun run;
  run.batch.num_queries = queries.num();
  run.batch.results.resize(queries.num());
  const size_t threads =
      num_threads != 0 ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  std::vector<SongWorkspace> workspaces(threads);
  std::vector<SearchStats> thread_stats(threads);
  Timer timer;
  ParallelFor(queries.num(), threads, [&](size_t qi, size_t tid) {
    run.batch.results[qi] =
        index.Search(queries.Row(static_cast<idx_t>(qi)), k, options,
                     &workspaces[tid], &thread_stats[tid]);
  });
  run.batch.wall_seconds = timer.ElapsedSeconds();
  for (const SearchStats& s : thread_stats) run.batch.stats.Add(s);

  const size_t bits = index.codes().bits();
  WorkloadShape shape;
  shape.num_queries = queries.num();
  shape.dim = std::max<size_t>(1, bits / 32);  // hashed query words (HtoD)
  shape.point_bytes = bits / 8;
  shape.k = k;
  shape.queue_size = std::max(options.queue_size, k);
  shape.degree = index.graph().degree();
  shape.multi_query = options.multi_query;
  shape.multi_step = options.multi_step_probe;
  shape.structure = options.structure;

  CostModel model(spec);
  run.gpu = model.Estimate(run.batch.stats, shape);
  return run;
}

}  // namespace song

#endif  // SONG_GPUSIM_SIMULATOR_H_
