// Copyright 2026 The SONG-Repro Authors.
//
// The SONG search pipeline (paper §III–§VI) over dense float vectors:
// Algorithm 1 decoupled into three stages per iteration —
//   1. candidate locating      (pop best vertices, gather unvisited
//                               neighbors from the fixed-degree graph)
//   2. bulk distance computation (batched distances, the GPU warp-reduction
//                               stage; on CPU a tight loop over candidates)
//   3. data structure maintenance (bounded queues + visited updates by a
//                               single logical thread)
// with the bounded-queue (§IV-C), selected-insertion (§IV-D) and
// visited-deletion (§IV-E) optimizations and the multi-query / multi-step
// probing parameters (§V). The distance-agnostic core lives in
// song/search_core.h; per-stage work counters feed the GPU cost model in
// src/gpusim.

#ifndef SONG_SONG_SONG_SEARCHER_H_
#define SONG_SONG_SONG_SEARCHER_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "obs/request_timeline.h"
#include "quant/pq.h"
#include "quant/pq_distance.h"
#include "song/search_core.h"
#include "song/search_options.h"

namespace song {

class SongSearcher {
 public:
  /// `data` and `graph` must outlive the searcher. `entry` is the default
  /// starting vertex of Algorithm 1.
  SongSearcher(const Dataset* data, const FixedDegreeGraph* graph,
               Metric metric, idx_t entry = 0);

  /// Top-k search for one query. `workspace` may be shared across calls on
  /// the same thread; `stats` (optional) accumulates work counters; `trace`
  /// (optional) records a per-iteration obs::SearchTrace for this query;
  /// `degraded` (optional) is set when a deadline/cost budget cut the
  /// search short and the result is best-so-far rather than converged.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               const SongSearchOptions& options,
                               SongWorkspace* workspace,
                               SearchStats* stats = nullptr,
                               obs::SearchTrace* trace = nullptr,
                               bool* degraded = nullptr) const;

  /// Convenience overload owning a transient workspace.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               const SongSearchOptions& options,
                               SearchStats* stats = nullptr) const;

  /// Largest admissible effective queue size (ef). Guards the fixed
  /// per-query allocations against corrupt or hostile option values.
  static constexpr size_t kMaxQueueSize = size_t{1} << 22;

  /// Rejects queries the pipeline cannot serve meaningfully: null or
  /// containing NaN/Inf components (distances would be poisoned and the
  /// bounded-heap ordering undefined).
  Status ValidateQuery(const float* query) const;

  /// Validates the request shape every query of a request shares: k against
  /// the dataset, the effective queue size against kMaxQueueSize,
  /// multi_step_probe, and a PQ codebook when options.quant == kPq.
  Status ValidateOptions(size_t k, const SongSearchOptions& options) const;

  /// Validates a full request (ValidateOptions, then ValidateQuery) before
  /// touching any per-query structure.
  Status ValidateRequest(const float* query, size_t k,
                         const SongSearchOptions& options) const;

  /// Checked search: runs ValidateRequest, then Search. Never aborts on
  /// malformed input; a budget-terminated search still succeeds and sets
  /// `*degraded`. When `observer` is non-null the request's lifecycle is
  /// recorded to its metrics/flight-recorder sinks: the searcher measures
  /// the search stage itself, adopts the caller-stamped queue/batch_form
  /// stages, and emits one RequestRecord whether the request was served,
  /// degraded, or rejected by validation. A null observer leaves this path
  /// stamp-free and bit-identical to the pre-observability behavior.
  StatusOr<std::vector<Neighbor>> TrySearch(
      const float* query, size_t k, const SongSearchOptions& options,
      SongWorkspace* workspace, SearchStats* stats = nullptr,
      obs::SearchTrace* trace = nullptr, bool* degraded = nullptr,
      const obs::RequestObserver* observer = nullptr) const;

  /// Installs a new-id -> old-id mapping applied to result ids at emit
  /// time. Used with reordered indexes (graph/reorder.h): the searcher runs
  /// over relabeled vertices but callers still see original dataset ids.
  /// Pass an empty vector to clear. Size must equal data().num() otherwise.
  void SetResultIdMap(std::vector<idx_t> new_to_old);

  // --- Quantized traversal (options.quant == kPq). -------------------------

  /// Trains a PQ codebook on the index dataset and encodes every row; after
  /// an OK return, searches with options.quant == kPq traverse Stage 2 over
  /// the m-byte codes via a per-query ADC table, then rerank the final pool
  /// with exact distances. Searches with quant == kNone stay bit-identical
  /// to a searcher that never called this. Supported metrics: kL2 and
  /// kInnerProduct (kCosine is rejected — ADC tables have no cosine form).
  Status EnablePq(const PqOptions& pq_options);

  /// Adopts a pre-trained codebook (e.g. ProductQuantizer::Load of a .sngq
  /// file) and encodes the dataset with it. The codebook dim must match.
  Status EnablePq(ProductQuantizer pq);

  bool pq_enabled() const { return pq_dist_ != nullptr; }
  const PqBatchDistance* pq_distance() const { return pq_dist_.get(); }

  /// The exact-rerank pool size a (k, options) search rescores: clamp of
  /// options.rerank_depth (auto when 0) to [k, effective queue size].
  static size_t RerankPoolSize(size_t k, const SongSearchOptions& options);

  const Dataset& data() const { return *data_; }
  const FixedDegreeGraph& graph() const { return *graph_; }
  Metric metric() const { return metric_; }
  idx_t entry() const { return entry_; }
  const std::vector<idx_t>& result_id_map() const { return result_id_map_; }

 private:
  /// The PQ traversal: ADC-scored SongSearchCore over the rerank pool,
  /// followed by the exact-distance rescoring of that pool.
  std::vector<Neighbor> SearchPq(const float* query, size_t k,
                                 const SongSearchOptions& options,
                                 SongWorkspace* workspace, SearchStats* stats,
                                 obs::SearchTrace* trace,
                                 bool* degraded) const;

  const Dataset* data_;
  const FixedDegreeGraph* graph_;
  Metric metric_;
  idx_t entry_;
  BatchDistance batch_dist_;         ///< fused Stage 2 kernel + cached norms
  std::vector<idx_t> result_id_map_; ///< new -> old, empty = identity
  std::unique_ptr<PqBatchDistance> pq_dist_;  ///< null until EnablePq
};

}  // namespace song

#endif  // SONG_SONG_SONG_SEARCHER_H_
