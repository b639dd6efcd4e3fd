// Copyright 2026 The SONG-Repro Authors.
//
// Locality-aware graph reordering. Graph search spends its Stage 2 time
// gathering candidate vectors from effectively random rows; relabeling the
// vertices so that topological neighbors get nearby ids turns those gathers
// into near-sequential reads of hot pages (the CPU analogue of coalesced
// global-memory segments, paper §II/§IV-A).
//
// The transform is purely a relabeling: the permuted index is isomorphic to
// the original, so recall and result sets are bit-identical once ids are
// mapped back (SongSearcher::SetResultIdMap). The relabeling is
// breadth-first from the search entry point, so each vertex lands near the
// frontier it is expanded with.

#ifndef SONG_GRAPH_REORDER_H_
#define SONG_GRAPH_REORDER_H_

#include <vector>

#include "core/dataset.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"

namespace song {

/// A vertex relabeling: old_to_new[old] == new and new_to_old[new] == old,
/// each a permutation of [0, n).
struct GraphPermutation {
  std::vector<idx_t> old_to_new;
  std::vector<idx_t> new_to_old;

  size_t size() const { return old_to_new.size(); }
};

/// Computes the BFS relabeling from `entry`; vertices unreachable from it
/// are appended in old-id order, so the result is deterministic.
GraphPermutation ComputeReorder(const FixedDegreeGraph& graph, idx_t entry = 0);

/// Relabels both endpoints: row perm.old_to_new[v] of the result holds
/// {perm.old_to_new[u] : u in graph.Row(v)}, neighbor order preserved.
FixedDegreeGraph PermuteGraph(const FixedDegreeGraph& graph,
                              const GraphPermutation& perm);

/// Row perm.old_to_new[v] of the result is row v of `data`.
Dataset PermuteDataset(const Dataset& data, const GraphPermutation& perm);

/// A dataset + graph relabeled consistently, ready to search. `entry` is
/// the original entry vertex's new id; feed `perm.new_to_old` to
/// SongSearcher::SetResultIdMap so emitted ids are in the original space.
struct ReorderedIndex {
  Dataset data;
  FixedDegreeGraph graph;
  GraphPermutation perm;
  idx_t entry = 0;
};

/// One-call transform: permutes data + graph by BFS from `entry` and maps
/// the entry point. `data.num()` must equal `graph.num_vertices()`.
ReorderedIndex ReorderIndex(const Dataset& data, const FixedDegreeGraph& graph,
                            idx_t entry = 0);

}  // namespace song

#endif  // SONG_GRAPH_REORDER_H_
