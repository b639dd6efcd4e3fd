#include "graph/nsg_builder.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sync.h"
#include "core/thread_pool.h"
#include "graph/graph_search.h"
#include "graph/graph_stats.h"
#include "graph/knn_graph.h"

namespace song {

namespace {

// Search on the kNN graph from `entry`, returning ALL scored vertices with
// their distances (NSG collects the whole visited pool, not just the top-L).
std::vector<Neighbor> CollectPool(const Dataset& data, Metric metric,
                                  const FixedDegreeGraph& knn, idx_t entry,
                                  const float* query, size_t l,
                                  BestFirstScratch* scratch) {
  const DistanceFunc dist = GetDistanceFunc(metric);
  const size_t dim = data.dim();
  const auto distance = [&](idx_t v) { return dist(query, data.Row(v), dim); };
  const auto row_of = [&knn](idx_t v) {
    return std::span<const idx_t>(knn.Row(v), knn.degree());
  };
  std::vector<Neighbor> pool;
  const Neighbor start(distance(entry), entry);
  BestFirstSearch(row_of, distance, {&start, 1}, l, data.num(), scratch,
                  /*stats=*/nullptr, TraverseAll{},
                  [&pool](const Neighbor& n) { pool.push_back(n); });
  return pool;
}

// MRNG edge selection: scan candidates ascending by distance to p; keep c if
// no already-kept r is closer to c than c is to p (the "occlusion" rule).
std::vector<idx_t> MrngSelect(const Dataset& data, Metric metric, idx_t p,
                              std::vector<Neighbor>& pool, size_t degree) {
  const DistanceFunc dist = GetDistanceFunc(metric);
  const size_t dim = data.dim();
  std::sort(pool.begin(), pool.end());
  std::vector<idx_t> selected;
  selected.reserve(degree);
  for (const Neighbor& cand : pool) {
    if (cand.id == p) continue;
    if (selected.size() >= degree) break;
    bool occluded = false;
    for (const idx_t r : selected) {
      if (r == cand.id) {
        occluded = true;
        break;
      }
      const float d_rc = dist(data.Row(r), data.Row(cand.id), dim);
      if (d_rc < cand.dist) {
        occluded = true;
        break;
      }
    }
    if (!occluded) selected.push_back(cand.id);
  }
  return selected;
}

}  // namespace

NsgIndex NsgBuilder::Build(const Dataset& data, Metric metric,
                           const NsgBuildOptions& options) {
  const size_t n = data.num();
  SONG_CHECK_MSG(n > 0, "cannot build NSG over an empty dataset");
  const DistanceFunc dist = GetDistanceFunc(metric);
  const size_t dim = data.dim();

  const FixedDegreeGraph knn = BuildApproxKnnGraph(
      data, metric, options.knn_k, /*ef=*/options.search_l * 2,
      options.num_threads);

  // Navigating node: the point whose vector is closest to the dataset mean
  // (approximate medoid), found by searching the kNN graph with the mean.
  std::vector<float> mean(dim, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const float* row = data.Row(static_cast<idx_t>(i));
    for (size_t d = 0; d < dim; ++d) mean[d] += row[d];
  }
  for (size_t d = 0; d < dim; ++d) mean[d] /= static_cast<float>(n);
  BestFirstScratch medoid_scratch;
  const std::vector<Neighbor> medoid_result =
      GraphSearch(data, metric, knn, /*entry=*/0, mean.data(),
                  options.search_l, /*k=*/1, &medoid_scratch);
  const idx_t navigating = medoid_result.empty() ? 0 : medoid_result[0].id;

  // Pass 1: MRNG selection per vertex over (search pool ∪ kNN row).
  std::vector<std::vector<idx_t>> adjacency(n);
  ParallelFor(n, options.num_threads, [&](size_t v, size_t) {
    thread_local BestFirstScratch scratch;
    const idx_t p = static_cast<idx_t>(v);
    std::vector<Neighbor> pool = CollectPool(
        data, metric, knn, navigating, data.Row(p), options.search_l,
        &scratch);
    const idx_t* row = knn.Row(p);
    for (size_t i = 0; i < knn.degree() && row[i] != kInvalidIdx; ++i) {
      pool.emplace_back(dist(data.Row(p), data.Row(row[i]), dim), row[i]);
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end(),
                           [](const Neighbor& a, const Neighbor& b) {
                             return a.id == b.id;
                           }),
               pool.end());
    adjacency[v] = MrngSelect(data, metric, p, pool, options.degree);
  });

  // Pass 2: reverse edges ("InterInsert"): p is offered to each selected
  // neighbor; overflowing rows are re-selected with the occlusion rule.
  std::unique_ptr<Mutex[]> locks(std::make_unique<Mutex[]>(n));
  ParallelFor(n, options.num_threads, [&](size_t v, size_t) {
    const idx_t p = static_cast<idx_t>(v);
    // Copy under lock: adjacency[p] may be rewritten by other workers.
    std::vector<idx_t> targets;
    {
      MutexLock guard(locks[p]);
      targets = adjacency[p];
    }
    for (const idx_t q : targets) {
      MutexLock guard(locks[q]);
      auto& row = adjacency[q];
      if (std::find(row.begin(), row.end(), p) != row.end()) continue;
      if (row.size() < options.degree) {
        row.push_back(p);
        continue;
      }
      std::vector<Neighbor> pool;
      pool.reserve(row.size() + 1);
      for (const idx_t r : row) {
        pool.emplace_back(dist(data.Row(q), data.Row(r), dim), r);
      }
      pool.emplace_back(dist(data.Row(q), data.Row(p), dim), p);
      row = MrngSelect(data, metric, q, pool, options.degree);
      if (row.empty()) row.push_back(pool[0].id);  // never leave q isolated
    }
  });

  FixedDegreeGraph graph = FixedDegreeGraph::FromAdjacency(adjacency,
                                                           options.degree);

  // Pass 3: connectivity repair. BFS from the navigating node; every
  // unreachable vertex gets an edge from its nearest reachable vertex.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::vector<bool> seen = ReachableFrom(graph, navigating);
    if (std::find(seen.begin(), seen.end(), false) == seen.end()) break;
    BestFirstScratch scratch;
    for (size_t v = 0; v < n; ++v) {
      if (seen[v]) continue;
      // Nearest reachable vertex to v via a search on the current graph
      // (results are reachable by construction: traversal starts at the
      // navigating node).
      const std::vector<Neighbor> near =
          GraphSearch(data, metric, graph, navigating,
                      data.Row(static_cast<idx_t>(v)), options.search_l,
                      options.search_l, &scratch);
      bool linked = false;
      for (const Neighbor& cand : near) {
        if (graph.AddNeighbor(cand.id, static_cast<idx_t>(v))) {
          linked = true;
          break;
        }
      }
      if (!linked && !near.empty()) {
        // All candidate rows full: evict the farthest slot of the nearest.
        std::vector<idx_t> row = graph.Neighbors(near[0].id);
        row.back() = static_cast<idx_t>(v);
        graph.SetNeighbors(near[0].id, row);
      }
    }
  }

  return NsgIndex{std::move(graph), navigating};
}

}  // namespace song
