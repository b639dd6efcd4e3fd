#include "graph/graph_search.h"

namespace song {

std::vector<Neighbor> GraphSearch(const Dataset& data, Metric metric,
                                  const FixedDegreeGraph& graph, idx_t entry,
                                  const float* query, size_t ef, size_t k,
                                  BestFirstScratch* scratch,
                                  GraphSearchStats* stats) {
  SONG_DCHECK(scratch != nullptr);
  const DistanceFunc dist = GetDistanceFunc(metric);
  const size_t dim = data.dim();
  const auto distance = [&](idx_t v) { return dist(query, data.Row(v), dim); };
  const auto row_of = [&graph](idx_t v) {
    return std::span<const idx_t>(graph.Row(v), graph.degree());
  };

  const Neighbor start(distance(entry), entry);
  if (stats != nullptr) ++stats->distance_computations;
  std::vector<Neighbor> out =
      BestFirstSearch(row_of, distance, {&start, 1}, std::max(ef, k),
                      data.num(), scratch, stats);
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace song
