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
#include <span>
#include <vector>

#include "core/candidate_pool.h"
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

/// Storage BestFirstSearch reuses across calls: the visited set, the
/// frontier and the gathered-row buffers. Warm scratch makes a search
/// allocation-free apart from its result vector.
struct BestFirstScratch {
  EpochVisitedSet visited;
  BestFirstCandidatePool pool;
  std::vector<idx_t> ids;
  std::vector<float> dists;
};

/// BestFirstSearch's `distance` hook over a BatchDistance: per-id scores
/// and one fused ComputeBatch call per gathered row, bit-equal to each
/// other and to the pairwise kernel.
struct BatchQueryDistance {
  const BatchDistance& batch;
  const float* query;
  float query_norm_sqr;

  float operator()(idx_t v) const {
    return batch.Compute(query, query_norm_sqr, v);
  }
  void ComputeBatch(const idx_t* ids, size_t n, float* out) const {
    batch.ComputeBatch(query, query_norm_sqr, ids, n, out);
  }
};

/// Best-first search with a frontier of width `ef` (clamped up to 1) from
/// the already-scored `entries`; returns the (at most) `ef` closest
/// admitted vertices, ascending by (distance, id).
///
/// The textbook loop keeps two heaps: an unbounded candidate min-heap and a
/// max-heap of the best `ef`. A scored vertex enters both while fewer than
/// `ef` are held or when it is strictly closer than the worst of them; the
/// loop pops the closest candidate and stops once it is strictly worse
/// than the worst of a full top list. Here one sorted
/// BestFirstCandidatePool (core/candidate_pool.h, FrontierRule::kTextbook)
/// plays both heaps and expands exactly the same vertices in the same
/// order (docs/algorithms.md). Entries are admitted through the visited
/// set's test-and-set. Each expansion gathers the row's unvisited,
/// traversable neighbours in row order, scores them, then admits them —
/// the same search as the one-at-a-time textbook loop, since a distance
/// never depends on the frontier.
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
/// `stats->hops` counts expansions; `stats->iterations` counts the
/// two-heap loop's pops: the hops, plus the one terminating pop when a
/// candidate was left unexpanded.
template <typename RowFn, typename DistanceFn,
          typename MayTraverseFn = TraverseAll,
          typename OnScoredFn = IgnoreScored>
std::vector<Neighbor> BestFirstSearch(RowFn&& row_of, DistanceFn&& distance,
                                      std::span<const Neighbor> entries,
                                      size_t ef, size_t num_points,
                                      BestFirstScratch* scratch,
                                      GraphSearchStats* stats = nullptr,
                                      MayTraverseFn&& may_traverse = {},
                                      OnScoredFn&& on_scored = {}) {
  EpochVisitedSet& visited = scratch->visited;
  BestFirstCandidatePool& pool = scratch->pool;
  std::vector<idx_t>& ids = scratch->ids;
  std::vector<float>& dists = scratch->dists;
  visited.Reset(num_points);
  pool.Reset(ef);
  for (const Neighbor& ep : entries) {
    if (!visited.Insert(ep.id)) continue;
    on_scored(ep);
    pool.Seed(ep);
  }

  size_t hops = 0;
  size_t scored = 0;
  while (pool.HasUnexpanded()) {
    const Neighbor now = pool.ExpandNext();
    ++hops;

    ids.clear();
    for (const idx_t v : row_of(now.id)) {
      if (v == kInvalidIdx) break;
      if (!may_traverse(v) || !visited.Insert(v)) continue;
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
    scored += ids.size();

    // Every scored vertex funnels through this loop; kept free of heap
    // allocation and logging (song_lint.py rule `hot-path`).
    // song-lint: begin-hot-path(best-first-admit)
    size_t evicted = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const Neighbor cand(dists[i], ids[i]);
      on_scored(cand);
      pool.Insert(cand, &evicted);
    }
    // song-lint: end-hot-path
  }

  if (stats != nullptr) {
    stats->distance_computations += scored;
    stats->hops += hops;
    stats->iterations += hops + (pool.dropped_unexpanded() ? 1 : 0);
  }
  std::vector<Neighbor> out;
  out.reserve(std::min(pool.capacity(), pool.size()));
  pool.CopyBest(pool.capacity(), &out);
  return out;
}

/// BestFirstSearch on `graph` for `query` from `entry`, exploring with a
/// frontier of width `ef` (the paper's "priority queue size", clamped up to
/// k) and returning the `k` closest visited vertices, ascending by distance.
///
/// `scratch` must outlive the call; passing it in lets callers reuse its
/// storage across queries.
std::vector<Neighbor> GraphSearch(const Dataset& data, Metric metric,
                                  const FixedDegreeGraph& graph, idx_t entry,
                                  const float* query, size_t ef, size_t k,
                                  BestFirstScratch* scratch,
                                  GraphSearchStats* stats = nullptr);

}  // namespace song

#endif  // SONG_GRAPH_GRAPH_SEARCH_H_
