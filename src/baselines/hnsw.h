// Copyright 2026 The SONG-Repro Authors.
//
// Hierarchical Navigable Small World graphs (Malkov & Yashunin 2018) — the
// paper's CPU baseline ("HNSW, the state-of-the-art ANN method on CPU",
// compared single-threaded throughout §VIII). Full implementation: geometric
// level assignment, heuristic neighbor selection with occlusion pruning,
// greedy descent through the upper layers and ef-bounded search at layer 0.
//
// The base layer can also be exported as a FixedDegreeGraph, giving SONG an
// HNSW-derived index (the paper runs SONG on NSW graphs, "similar to HNSW
// but no hierarchical structures").

#ifndef SONG_BASELINES_HNSW_H_
#define SONG_BASELINES_HNSW_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "obs/metrics.h"

namespace song {

struct HnswBuildOptions {
  size_t m = 8;                  ///< upper-layer degree; layer 0 holds 2*m
  size_t ef_construction = 100;
  uint64_t seed = 20260706;
  size_t num_threads = 0;
};

struct HnswSearchStats {
  size_t distance_computations = 0;
  size_t hops = 0;

  void Add(const HnswSearchStats& other) {
    distance_computations += other.distance_computations;
    hops += other.hops;
  }
};

/// Records HNSW work counters under `<prefix>.*` — the same counter names
/// the SONG pipeline emits (`.hops`, `.distance_computations`), so
/// baseline-vs-SONG dashboards line up column for column.
void RecordHnswSearchStats(const HnswSearchStats& stats, size_t num_queries,
                           obs::MetricsRegistry* registry,
                           const std::string& prefix = "hnsw.search");

class Hnsw {
 public:
  /// Builds the index over `data` (which must outlive the object).
  Hnsw(const Dataset* data, Metric metric,
       const HnswBuildOptions& options = {});

  /// Serialization (magic "SNGH"): structure only — `data` must be the same
  /// dataset the index was built over.
  Status Save(const std::string& path) const;
  static StatusOr<Hnsw> Load(const std::string& path, const Dataset* data,
                             Metric metric);

  /// ef-bounded top-k search (ef clamped up to k).
  std::vector<Neighbor> Search(const float* query, size_t k, size_t ef,
                               HnswSearchStats* stats = nullptr) const;

  /// Exports layer 0 as a fixed-degree graph (degree 2*m).
  FixedDegreeGraph ExportBaseLayer() const;

  size_t max_level() const { return max_level_; }
  idx_t entry_point() const { return entry_; }
  size_t MemoryBytes() const;

 private:
  // Uninitialized shell for Load().
  struct LoadTag {};
  Hnsw(LoadTag, const Dataset* data, Metric metric, size_t m)
      : data_(data),
        metric_(metric),
        batch_dist_(metric, data),
        m_(m),
        level_mult_(1.0) {}

  size_t RandomLevel(uint64_t* state) const;

  const idx_t* Row(idx_t v, size_t level) const;
  idx_t* MutableRow(idx_t v, size_t level);
  size_t RowCapacity(size_t level) const { return level == 0 ? 2 * m_ : m_; }

  const Dataset* data_;
  Metric metric_;
  BatchDistance batch_dist_;     ///< every build and query distance
  size_t m_;
  double level_mult_;

  std::vector<uint32_t> levels_;          // per vertex
  std::vector<idx_t> layer0_;             // n * 2m slots
  std::vector<std::vector<idx_t>> upper_; // per vertex: levels * m slots
  idx_t entry_ = 0;
  size_t max_level_ = 0;
};

}  // namespace song

#endif  // SONG_BASELINES_HNSW_H_
