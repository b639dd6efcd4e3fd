// Copyright 2026 The SONG-Repro Authors.
//
// Reference CPU implementation of the proximity-graph search (paper
// Algorithm 1, the heuristic best-first search shared by NSW / HNSW / NSG).
// BestFirstSearch is the repo's one reference loop: the single-thread
// baseline the SONG pipeline is checked against, the construction-time
// search of every graph builder, and HNSW's layer search all instantiate it.

#ifndef SONG_GRAPH_GRAPH_SEARCH_H_
#define SONG_GRAPH_GRAPH_SEARCH_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/epoch_visited_set.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"

namespace song {

/// Counters reported by the reference search (used in tests and to sanity
/// check the SONG pipeline's own instrumentation).
struct GraphSearchStats {
  size_t distance_computations = 0;
  size_t iterations = 0;
  size_t hops = 0;  // vertices expanded
};

/// Default BestFirstSearch hooks: every vertex may be traversed, and scored
/// vertices are not reported.
struct TraverseAll {
  constexpr bool operator()(idx_t) const { return true; }
};
struct IgnoreScored {
  constexpr void operator()(const Neighbor&) const {}
};

/// Best-first search with a frontier of width `ef` from the already-scored
/// `entries`; returns the (at most) `ef` closest admitted vertices,
/// ascending by distance.
///
/// A min-heap frontier and a max-heap of the best `ef`; entries are admitted
/// through the visited set's test-and-set; the loop stops when the frontier
/// minimum is strictly worse than the worst of a full top list. Each pop
/// gathers the row's unvisited, traversable neighbours in row order, scores
/// them, then accepts them — the same search as the one-at-a-time textbook
/// loop, since a distance never depends on heap state.
///
/// Hooks, all resolved at compile time:
///  - `row_of(v)` returns v's neighbour ids as a std::span<const idx_t>;
///    a kInvalidIdx entry ends the row. The span only has to stay valid
///    until the next row_of call.
///  - `distance(v)` scores vertex v (smaller = closer). When it also has
///    `distance.ComputeBatch(ids, n, out)`, each gathered row is scored in
///    one call, which must produce exactly the values of `distance(id)`.
///  - `may_traverse(v)` false hides v: it is neither scored nor marked.
///  - `on_scored(n)` sees every admitted entry and every scored vertex, in
///    order, whether or not it entered the top list.
///
/// `visited` is reset here over ids [0, num_points); passing it in lets
/// callers reuse its storage across searches.
template <typename RowFn, typename DistanceFn,
          typename MayTraverseFn = TraverseAll,
          typename OnScoredFn = IgnoreScored>
std::vector<Neighbor> BestFirstSearch(RowFn&& row_of, DistanceFn&& distance,
                                      std::span<const Neighbor> entries,
                                      size_t ef, size_t num_points,
                                      EpochVisitedSet* visited,
                                      GraphSearchStats* stats = nullptr,
                                      MayTraverseFn&& may_traverse = {},
                                      OnScoredFn&& on_scored = {}) {
  ef = std::max<size_t>(ef, 1);
  visited->Reset(num_points);

  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> frontier;
  std::priority_queue<Neighbor> top;
  for (const Neighbor& ep : entries) {
    if (!visited->Insert(ep.id)) continue;
    on_scored(ep);
    frontier.push(ep);
    top.push(ep);
    if (top.size() > ef) top.pop();
  }

  std::vector<idx_t> ids;
  std::vector<float> dists;
  while (!frontier.empty()) {
    const Neighbor now = frontier.top();
    frontier.pop();
    if (stats != nullptr) ++stats->iterations;
    if (top.size() >= ef && now.dist > top.top().dist) break;
    if (stats != nullptr) ++stats->hops;

    ids.clear();
    for (const idx_t v : row_of(now.id)) {
      if (v == kInvalidIdx) break;
      if (!may_traverse(v) || !visited->Insert(v)) continue;
      ids.push_back(v);
    }
    if (ids.empty()) continue;

    dists.resize(ids.size());
    if constexpr (requires {
                    distance.ComputeBatch(ids.data(), ids.size(),
                                          dists.data());
                  }) {
      distance.ComputeBatch(ids.data(), ids.size(), dists.data());
    } else {
      for (size_t i = 0; i < ids.size(); ++i) dists[i] = distance(ids[i]);
    }
    if (stats != nullptr) stats->distance_computations += ids.size();

    for (size_t i = 0; i < ids.size(); ++i) {
      const Neighbor cand(dists[i], ids[i]);
      on_scored(cand);
      if (top.size() < ef || cand.dist < top.top().dist) {
        frontier.push(cand);
        top.push(cand);
        if (top.size() > ef) top.pop();
      }
    }
  }

  std::vector<Neighbor> out(top.size());
  for (size_t i = top.size(); i-- > 0;) {
    out[i] = top.top();
    top.pop();
  }
  return out;
}

/// BestFirstSearch on `graph` for `query` from `entry`, exploring with a
/// frontier of width `ef` (the paper's "priority queue size", clamped up to
/// k) and returning the `k` closest visited vertices, ascending by distance.
///
/// `visited` must outlive the call and is reset internally; passing it in
/// lets callers reuse the buffer across queries.
std::vector<Neighbor> GraphSearch(const Dataset& data, Metric metric,
                                  const FixedDegreeGraph& graph, idx_t entry,
                                  const float* query, size_t ef, size_t k,
                                  EpochVisitedSet* visited,
                                  GraphSearchStats* stats = nullptr);

}  // namespace song

#endif  // SONG_GRAPH_GRAPH_SEARCH_H_
