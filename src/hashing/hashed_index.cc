#include "hashing/hashed_index.h"

namespace song {

HashedSongIndex::HashedSongIndex(const BinaryCodes* codes,
                                 const FixedDegreeGraph* graph,
                                 const RandomProjection* projection,
                                 idx_t entry)
    : codes_(codes), graph_(graph), projection_(projection) {
  SONG_CHECK(codes != nullptr && graph != nullptr && projection != nullptr);
  SONG_CHECK_MSG(codes->num() == graph->num_vertices(),
                 "codes / graph size mismatch");
  SONG_CHECK(projection->bits() == codes->bits());
  SONG_CHECK(entry < codes->num());
  seeds_ = SeedList(codes->num(), graph->degree(), entry);
}

std::vector<Neighbor> HashedSongIndex::Search(const float* query, size_t k,
                                              const SongSearchOptions& options,
                                              SearchStats* stats) const {
  SongWorkspace workspace;
  return Search(query, k, options, &workspace, stats);
}

std::vector<Neighbor> HashedSongIndex::Search(const float* query, size_t k,
                                              const SongSearchOptions& options,
                                              SongWorkspace* workspace,
                                              SearchStats* stats) const {
  BinaryCodes query_code(1, codes_->bits());
  projection_->EncodeInto(query, &query_code, 0);
  const uint64_t* qc = query_code.Row(0);
  const size_t words = codes_->words();
  const size_t point_bytes = codes_->bits() / 8;
  const BinaryCodes& codes = *codes_;
  return SongSearchCore(
      *graph_, seeds_, codes.num(), point_bytes,
      [&](idx_t v) {
        return static_cast<float>(HammingDistance(qc, codes.Row(v), words));
      },
      k, options, workspace, stats);
}

}  // namespace song
