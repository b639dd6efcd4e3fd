// Copyright 2026 The SONG-Repro Authors.
//
// SONG search over hashed (binary) data — the out-of-GPU-memory deployment
// of §VII: the proximity graph is built once on the host from the original
// float vectors (the graph is small: degree * n ids), while the card holds
// only the h-bit codes; the bulk-distance stage computes Hamming distances
// between the hashed query and candidate codes.

#ifndef SONG_HASHING_HASHED_INDEX_H_
#define SONG_HASHING_HASHED_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/bitvector.h"
#include "graph/fixed_degree_graph.h"
#include "hashing/random_projection.h"
#include "song/search_core.h"

namespace song {

class HashedSongIndex {
 public:
  /// `codes` and `graph` must outlive the index; `projection` hashes queries
  /// at search time. Searches start from SeedList(codes->num(),
  /// graph->degree(), entry), built once here.
  HashedSongIndex(const BinaryCodes* codes, const FixedDegreeGraph* graph,
                  const RandomProjection* projection, idx_t entry = 0);

  /// Hashes `query` (original float space) and runs the SONG pipeline on
  /// Hamming distance.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               const SongSearchOptions& options,
                               SongWorkspace* workspace,
                               SearchStats* stats = nullptr) const;

  std::vector<Neighbor> Search(const float* query, size_t k,
                               const SongSearchOptions& options,
                               SearchStats* stats = nullptr) const;

  /// Device-resident bytes: codes + graph (what must fit in GPU memory).
  size_t DeviceMemoryBytes() const {
    return codes_->PayloadBytes() + graph_->MemoryBytes();
  }

  const BinaryCodes& codes() const { return *codes_; }
  const FixedDegreeGraph& graph() const { return *graph_; }

 private:
  const BinaryCodes* codes_;
  const FixedDegreeGraph* graph_;
  const RandomProjection* projection_;
  std::vector<idx_t> seeds_;  ///< SeedList, scored as round 0
};

}  // namespace song

#endif  // SONG_HASHING_HASHED_INDEX_H_
