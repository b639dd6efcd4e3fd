#include "graph/graph_stats.h"

#include <algorithm>
#include <vector>

namespace song {

std::vector<bool> ReachableFrom(const FixedDegreeGraph& graph, idx_t entry) {
  std::vector<bool> seen(graph.num_vertices(), false);
  if (seen.empty()) return seen;
  std::vector<idx_t> stack{entry};
  seen[entry] = true;
  while (!stack.empty()) {
    const idx_t v = stack.back();
    stack.pop_back();
    const idx_t* row = graph.Row(v);
    for (size_t i = 0; i < graph.degree() && row[i] != kInvalidIdx; ++i) {
      const idx_t u = row[i];
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  return seen;
}

size_t CountReachable(const FixedDegreeGraph& graph, idx_t entry) {
  const std::vector<bool> seen = ReachableFrom(graph, entry);
  return static_cast<size_t>(std::count(seen.begin(), seen.end(), true));
}

GraphStats ComputeGraphStats(const FixedDegreeGraph& graph, idx_t entry) {
  GraphStats stats;
  stats.num_vertices = graph.num_vertices();
  stats.degree_capacity = graph.degree();
  stats.memory_bytes = graph.MemoryBytes();
  if (stats.num_vertices == 0) return stats;
  size_t total = 0;
  size_t min_deg = graph.degree();
  size_t max_deg = 0;
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    const size_t d = graph.NeighborCount(static_cast<idx_t>(v));
    total += d;
    min_deg = std::min(min_deg, d);
    max_deg = std::max(max_deg, d);
  }
  stats.min_degree = min_deg;
  stats.max_degree = max_deg;
  stats.avg_degree =
      static_cast<double>(total) / static_cast<double>(stats.num_vertices);
  stats.reachable = CountReachable(graph, entry);
  return stats;
}

}  // namespace song
