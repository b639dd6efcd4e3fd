#include "graph/knn_graph.h"

#include <algorithm>

#include "baselines/flat_index.h"
#include "core/thread_pool.h"
#include "graph/graph_search.h"
#include "graph/nsw_builder.h"

namespace song {

FixedDegreeGraph BuildExactKnnGraph(const Dataset& data, Metric metric,
                                    size_t k, size_t num_threads) {
  const size_t n = data.num();
  FixedDegreeGraph g(n, k);
  FlatIndex flat(&data, metric);
  ParallelFor(n, num_threads, [&](size_t v, size_t) {
    // k+1 then drop self (self distance is minimal for L2/cosine; for inner
    // product self is not guaranteed first, so filter by id).
    std::vector<Neighbor> nn =
        flat.Search(data.Row(static_cast<idx_t>(v)), k + 1);
    std::vector<idx_t> ids;
    ids.reserve(k);
    for (const Neighbor& nb : nn) {
      if (nb.id == static_cast<idx_t>(v)) continue;
      ids.push_back(nb.id);
      if (ids.size() == k) break;
    }
    g.SetNeighbors(static_cast<idx_t>(v), ids);
  });
  return g;
}

FixedDegreeGraph BuildApproxKnnGraph(const Dataset& data, Metric metric,
                                     size_t k, size_t ef,
                                     size_t num_threads) {
  NswBuildOptions nsw_opts;
  nsw_opts.degree = std::max<size_t>(16, k);
  nsw_opts.ef_construction = std::max<size_t>(ef, 2 * k);
  nsw_opts.num_threads = num_threads;
  const FixedDegreeGraph nsw = NswBuilder::Build(data, metric, nsw_opts);

  const size_t n = data.num();
  FixedDegreeGraph g(n, k);
  ParallelFor(n, num_threads, [&](size_t v, size_t) {
    thread_local BestFirstScratch scratch;
    std::vector<Neighbor> nn =
        GraphSearch(data, metric, nsw, /*entry=*/0,
                    data.Row(static_cast<idx_t>(v)),
                    std::max(ef, k + 1), k + 1, &scratch);
    std::vector<idx_t> ids;
    ids.reserve(k);
    for (const Neighbor& nb : nn) {
      if (nb.id == static_cast<idx_t>(v)) continue;
      ids.push_back(nb.id);
      if (ids.size() == k) break;
    }
    g.SetNeighbors(static_cast<idx_t>(v), ids);
  });
  return g;
}

}  // namespace song
