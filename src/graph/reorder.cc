#include "graph/reorder.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "core/logging.h"

namespace song {

namespace {

GraphPermutation IdentityPermutation(size_t n) {
  GraphPermutation perm;
  perm.old_to_new.resize(n);
  perm.new_to_old.resize(n);
  std::iota(perm.old_to_new.begin(), perm.old_to_new.end(), idx_t{0});
  perm.new_to_old = perm.old_to_new;
  return perm;
}

/// BFS from `entry`; unreached vertices (disconnected components) keep
/// their relative old-id order at the end of the numbering.
std::vector<idx_t> BfsOrder(const FixedDegreeGraph& graph, idx_t entry) {
  const size_t n = graph.num_vertices();
  const size_t degree = graph.degree();
  std::vector<idx_t> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  std::deque<idx_t> frontier;
  frontier.push_back(entry);
  seen[entry] = true;
  while (!frontier.empty()) {
    const idx_t v = frontier.front();
    frontier.pop_front();
    order.push_back(v);
    const idx_t* row = graph.Row(v);
    for (size_t i = 0; i < degree && row[i] != kInvalidIdx; ++i) {
      const idx_t u = row[i];
      if (!seen[u]) {
        seen[u] = true;
        frontier.push_back(u);
      }
    }
  }
  for (idx_t v = 0; v < static_cast<idx_t>(n); ++v) {
    if (!seen[v]) order.push_back(v);
  }
  return order;
}

std::vector<idx_t> DegreeDescendingOrder(const FixedDegreeGraph& graph) {
  const size_t n = graph.num_vertices();
  std::vector<idx_t> order(n);
  std::iota(order.begin(), order.end(), idx_t{0});
  std::vector<size_t> degrees(n);
  for (size_t v = 0; v < n; ++v) {
    degrees[v] = graph.NeighborCount(static_cast<idx_t>(v));
  }
  std::stable_sort(order.begin(), order.end(), [&](idx_t a, idx_t b) {
    return degrees[a] > degrees[b];  // stable: ties keep old-id order
  });
  return order;
}

}  // namespace

GraphPermutation ComputeReorder(const FixedDegreeGraph& graph,
                                GraphReorder strategy, idx_t entry) {
  const size_t n = graph.num_vertices();
  if (n == 0 || strategy == GraphReorder::kNone) {
    return IdentityPermutation(n);
  }
  SONG_CHECK(entry < n);
  std::vector<idx_t> order;  // order[new_id] = old_id
  switch (strategy) {
    case GraphReorder::kBfs:
      order = BfsOrder(graph, entry);
      break;
    case GraphReorder::kDegreeDescending:
      order = DegreeDescendingOrder(graph);
      break;
    case GraphReorder::kNone:
      break;  // handled above
  }
  SONG_CHECK(order.size() == n);
  GraphPermutation perm;
  perm.new_to_old = std::move(order);
  perm.old_to_new.resize(n);
  for (size_t new_id = 0; new_id < n; ++new_id) {
    perm.old_to_new[perm.new_to_old[new_id]] = static_cast<idx_t>(new_id);
  }
  return perm;
}

FixedDegreeGraph PermuteGraph(const FixedDegreeGraph& graph,
                              const GraphPermutation& perm) {
  const size_t n = graph.num_vertices();
  SONG_CHECK(perm.size() == n);
  FixedDegreeGraph out(n, graph.degree());
  std::vector<idx_t> row_buf;
  for (idx_t old_v = 0; old_v < static_cast<idx_t>(n); ++old_v) {
    row_buf = graph.Neighbors(old_v);
    for (idx_t& u : row_buf) u = perm.old_to_new[u];
    out.SetNeighbors(perm.old_to_new[old_v], row_buf);
  }
  return out;
}

Dataset PermuteDataset(const Dataset& data, const GraphPermutation& perm) {
  SONG_CHECK(perm.size() == data.num());
  Dataset out(data.num(), data.dim());
  for (idx_t old_v = 0; old_v < static_cast<idx_t>(data.num()); ++old_v) {
    out.SetRow(perm.old_to_new[old_v], data.Row(old_v));
  }
  return out;
}

ReorderedIndex ReorderIndex(const Dataset& data, const FixedDegreeGraph& graph,
                            GraphReorder strategy, idx_t entry) {
  SONG_CHECK_MSG(data.num() == graph.num_vertices(),
                 "dataset / graph size mismatch");
  ReorderedIndex out;
  out.perm = ComputeReorder(graph, strategy, entry);
  out.data = PermuteDataset(data, out.perm);
  out.graph = PermuteGraph(graph, out.perm);
  out.entry = out.perm.old_to_new.empty() ? entry : out.perm.old_to_new[entry];
  return out;
}

}  // namespace song
