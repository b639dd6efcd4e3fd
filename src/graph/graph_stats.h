// Copyright 2026 The SONG-Repro Authors.
//
// Structural diagnostics for proximity graphs: degree distribution,
// reachability from the entry vertex, and memory accounting (Table III).

#ifndef SONG_GRAPH_GRAPH_STATS_H_
#define SONG_GRAPH_GRAPH_STATS_H_

#include <cstddef>

#include <vector>

#include "core/types.h"
#include "graph/fixed_degree_graph.h"

namespace song {

struct GraphStats {
  size_t num_vertices = 0;
  size_t degree_capacity = 0;
  size_t min_degree = 0;
  size_t max_degree = 0;
  double avg_degree = 0.0;
  /// Vertices reachable from the entry point by directed BFS.
  size_t reachable = 0;
  /// Slot-array bytes (what the GPU would hold in global memory).
  size_t memory_bytes = 0;
};

/// seen[v]: v is reachable from `entry` following directed edges.
std::vector<bool> ReachableFrom(const FixedDegreeGraph& graph, idx_t entry);

/// Number of vertices reachable from `entry` following directed edges.
size_t CountReachable(const FixedDegreeGraph& graph, idx_t entry);

GraphStats ComputeGraphStats(const FixedDegreeGraph& graph, idx_t entry = 0);

}  // namespace song

#endif  // SONG_GRAPH_GRAPH_STATS_H_
