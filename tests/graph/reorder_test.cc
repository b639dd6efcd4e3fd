// Tests for the locality-aware reordering pass: permutation validity,
// structural isomorphism of the permuted graph/dataset, and the headline
// guarantee — search over a reordered index returns exactly the same
// result sets (ids and distances) once ids are mapped back.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "graph/reorder.h"
#include "song/song_searcher.h"

namespace song {
namespace {

FixedDegreeGraph MakeRingGraph(size_t n, size_t degree) {
  FixedDegreeGraph g(n, degree);
  for (size_t v = 0; v < n; ++v) {
    std::vector<idx_t> nbrs;
    for (size_t j = 1; j <= degree / 2 && j < n; ++j) {
      nbrs.push_back(static_cast<idx_t>((v + j) % n));
      nbrs.push_back(static_cast<idx_t>((v + n - j) % n));
    }
    if (nbrs.size() > degree) nbrs.resize(degree);
    g.SetNeighbors(static_cast<idx_t>(v), nbrs);
  }
  return g;
}

void ExpectValidPermutation(const GraphPermutation& perm, size_t n) {
  ASSERT_EQ(perm.old_to_new.size(), n);
  ASSERT_EQ(perm.new_to_old.size(), n);
  std::vector<bool> hit(n, false);
  for (size_t old_id = 0; old_id < n; ++old_id) {
    const idx_t new_id = perm.old_to_new[old_id];
    ASSERT_LT(new_id, n);
    EXPECT_FALSE(hit[new_id]) << "duplicate new id " << new_id;
    hit[new_id] = true;
    EXPECT_EQ(perm.new_to_old[new_id], old_id);
  }
}

TEST(ReorderTest, BfsIsValidAndEntryFirst) {
  const FixedDegreeGraph g = MakeRingGraph(50, 6);
  const GraphPermutation perm = ComputeReorder(g, 17);
  ExpectValidPermutation(perm, 50);
  EXPECT_EQ(perm.old_to_new[17], 0u);  // entry is relabeled to 0
  // Ring from 17: direct neighbors must land within the first BFS level.
  EXPECT_LE(perm.old_to_new[18], 6u);
  EXPECT_LE(perm.old_to_new[16], 6u);
}

TEST(ReorderTest, BfsCoversDisconnectedComponents) {
  // Two 5-cliques with no edges between them.
  std::vector<std::vector<idx_t>> adj(10);
  for (idx_t base : {idx_t{0}, idx_t{5}}) {
    for (idx_t v = base; v < base + 5; ++v) {
      for (idx_t u = base; u < base + 5; ++u) {
        if (u != v) adj[v].push_back(u);
      }
    }
  }
  const FixedDegreeGraph g = FixedDegreeGraph::FromAdjacency(adj, 4);
  const GraphPermutation perm = ComputeReorder(g, 0);
  ExpectValidPermutation(perm, 10);
  // The unreachable second clique keeps old-id order after the first.
  for (idx_t v = 5; v < 9; ++v) {
    EXPECT_LT(perm.old_to_new[v], perm.old_to_new[v + 1]);
  }
}

TEST(ReorderTest, PermuteGraphPreservesEdges) {
  const FixedDegreeGraph g = MakeRingGraph(30, 6);
  const GraphPermutation perm = ComputeReorder(g, 3);
  const FixedDegreeGraph pg = PermuteGraph(g, perm);
  ASSERT_EQ(pg.num_vertices(), g.num_vertices());
  ASSERT_EQ(pg.degree(), g.degree());
  for (idx_t old_v = 0; old_v < 30; ++old_v) {
    const std::vector<idx_t> old_nbrs = g.Neighbors(old_v);
    std::vector<idx_t> expect;
    for (const idx_t u : old_nbrs) expect.push_back(perm.old_to_new[u]);
    EXPECT_EQ(pg.Neighbors(perm.old_to_new[old_v]), expect)
        << "old vertex " << old_v;
  }
}

TEST(ReorderTest, PermuteDatasetMovesRows) {
  Dataset data(6, 5);
  std::vector<float> row(5);
  for (idx_t v = 0; v < 6; ++v) {
    std::fill(row.begin(), row.end(), static_cast<float>(v));
    data.SetRow(v, row.data());
  }
  const FixedDegreeGraph g = MakeRingGraph(6, 2);
  const GraphPermutation perm = ComputeReorder(g, 4);
  const Dataset pdata = PermuteDataset(data, perm);
  for (idx_t old_v = 0; old_v < 6; ++old_v) {
    EXPECT_EQ(pdata.Row(perm.old_to_new[old_v])[0], static_cast<float>(old_v));
  }
}

// The tentpole guarantee: searching the reordered index returns exactly
// the same (id, distance) result sets as the original once the id map is
// applied — across metrics and visited-structure configs.
TEST(ReorderTest, ReorderedSearchReturnsIdenticalResults) {
  SyntheticSpec spec;
  spec.dim = 24;
  spec.num_points = 600;
  spec.num_queries = 20;
  spec.num_clusters = 8;
  spec.seed = 321;
  const SyntheticData gen = GenerateSynthetic(spec);

  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    const FixedDegreeGraph graph = NswBuilder::Build(gen.points, metric, {});
    const SongSearcher base(&gen.points, &graph, metric);

    const ReorderedIndex ri = ReorderIndex(gen.points, graph);
    ExpectValidPermutation(ri.perm, gen.points.num());
    SongSearcher reordered(&ri.data, &ri.graph, metric, ri.entry);
    reordered.SetResultIdMap(ri.perm.new_to_old);

    for (const SongSearchOptions& options :
         {SongSearchOptions::HashTable(), SongSearchOptions::HashTableSelDel(),
          SongSearchOptions::CpuEngineered()}) {
      for (size_t q = 0; q < gen.queries.num(); ++q) {
        const float* query = gen.queries.Row(static_cast<idx_t>(q));
        const auto expect = base.Search(query, 10, options);
        const auto got = reordered.Search(query, 10, options);
        ASSERT_EQ(got.size(), expect.size())
            << MetricName(metric) << " " << options.Name() << " query " << q;
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i].id, expect[i].id)
              << MetricName(metric) << " " << options.Name() << " query "
              << q << " rank " << i;
          EXPECT_EQ(got[i].dist, expect[i].dist);
        }
      }
    }
  }
}

}  // namespace
}  // namespace song
