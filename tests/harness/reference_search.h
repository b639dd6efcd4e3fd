// Copyright 2026 The SONG-Repro Authors.
//
// Oracle-backed reference implementation of the SONG 3-stage search
// (src/song/search_core.h), built on the std:: oracles in oracles.h instead
// of the production candidate pool and visited structures. It
// mirrors the paper's semantics statement-for-statement — bounded queue
// (§IV-C), selected insertion (§IV-D), visited deletion (§IV-E), multi-step
// probing (§V), the strict-termination tie rule — and records the exact
// sequence of distance computations, so SongSearchCore can be required to
// visit the *same vertices in the same order* and return the *same
// neighbors*, the paper's core GPU-equals-CPU claim.

#ifndef SONG_TESTS_HARNESS_REFERENCE_SEARCH_H_
#define SONG_TESTS_HARNESS_REFERENCE_SEARCH_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "song/search_options.h"

namespace song::harness {

struct ReferenceSearchResult {
  std::vector<Neighbor> results;    ///< final top-k, ascending
  std::vector<idx_t> visit_order;   ///< every distance computation, in order
  size_t iterations = 0;            ///< main-loop rounds (round 0 excluded)
  size_t expansion_rounds = 0;      ///< rounds that expanded a vertex: all
                                    ///< but a final round that terminates
  size_t visited_insert_failures = 0;
};

/// Runs the reference search from `seeds` (round 0: each seed scored once,
/// in order, then admitted under the queue rules like a later round's
/// candidates). `visited_capacity` = 0 models an unbounded exact visited
/// set; pass internal::AutoHashCapacity(...) to model the saturation
/// behaviour of the bounded GPU hash table exactly.
ReferenceSearchResult ReferenceSongSearch(
    const FixedDegreeGraph& graph, std::span<const idx_t> seeds, size_t k,
    const SongSearchOptions& options, size_t visited_capacity,
    const std::function<float(idx_t)>& distance);

/// Textbook paper Algorithm 1 (the best-first search of NSW / HNSW / NSG),
/// one neighbour at a time: test-and-mark visited, score, accept. Frontier,
/// top list and visited set are std::set / std::unordered_set, so it shares
/// no code with graph/graph_search.h's BestFirstSearch, which must match it
/// on every recorded sequence.
struct ReferenceBestFirstResult {
  std::vector<Neighbor> results;   ///< the best min(ef, admitted), ascending
  std::vector<idx_t> visit_order;  ///< every distance computation, in order
  std::vector<Neighbor> scored;    ///< admitted entries, then every scored
                                   ///< vertex, in order
  size_t iterations = 0;           ///< frontier pops
  size_t hops = 0;                 ///< pops that expanded their row
};

/// `entries` are pre-scored and admitted unless already seen; vertices with
/// !may_traverse(v) are neither scored nor marked. ef is clamped up to 1.
ReferenceBestFirstResult ReferenceBestFirstSearch(
    const FixedDegreeGraph& graph, const std::vector<Neighbor>& entries,
    size_t ef, const std::function<float(idx_t)>& distance,
    const std::function<bool(idx_t)>& may_traverse);

/// Exact top-k by exhaustive scan over [0, num_points) — the ground truth
/// for recall-based metamorphic properties.
std::vector<Neighbor> BruteForceTopK(
    size_t num_points, size_t k, const std::function<float(idx_t)>& distance);

}  // namespace song::harness

#endif  // SONG_TESTS_HARNESS_REFERENCE_SEARCH_H_
