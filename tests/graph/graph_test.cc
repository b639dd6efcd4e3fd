// Tests for the graph substrate: fixed-degree storage + IO, the reference
// Algorithm-1 search, NSW construction, kNN graphs, NSG construction and
// graph statistics.

#include <algorithm>
#include <filesystem>
#include <set>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "graph/fixed_degree_graph.h"
#include "graph/graph_search.h"
#include "graph/graph_stats.h"
#include "graph/knn_graph.h"
#include "graph/nsg_builder.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"

namespace song {
namespace {

// ---- FixedDegreeGraph ----

TEST(FixedDegreeGraph, EmptyRowsArePadded) {
  FixedDegreeGraph g(4, 3);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.degree(), 3u);
  EXPECT_EQ(g.NeighborCount(0), 0u);
  EXPECT_EQ(g.Row(0)[0], kInvalidIdx);
}

TEST(FixedDegreeGraph, SetAndReadNeighbors) {
  FixedDegreeGraph g(4, 3);
  g.SetNeighbors(1, {2, 3});
  EXPECT_EQ(g.NeighborCount(1), 2u);
  EXPECT_EQ(g.Neighbors(1), (std::vector<idx_t>{2, 3}));
  EXPECT_EQ(g.Row(1)[2], kInvalidIdx);
}

TEST(FixedDegreeGraph, AddNeighborRespectsCapacityAndDuplicates) {
  FixedDegreeGraph g(4, 2);
  EXPECT_TRUE(g.AddNeighbor(0, 1));
  EXPECT_FALSE(g.AddNeighbor(0, 1));  // duplicate
  EXPECT_TRUE(g.AddNeighbor(0, 2));
  EXPECT_FALSE(g.AddNeighbor(0, 3));  // full
  EXPECT_EQ(g.NeighborCount(0), 2u);
}

TEST(FixedDegreeGraph, FromAdjacencyTruncates) {
  const std::vector<std::vector<idx_t>> adj = {{1, 2, 3, 0}, {0}, {}, {1, 2}};
  const FixedDegreeGraph g = FixedDegreeGraph::FromAdjacency(adj, 2);
  EXPECT_EQ(g.NeighborCount(0), 2u);
  EXPECT_EQ(g.Neighbors(0), (std::vector<idx_t>{1, 2}));
  EXPECT_EQ(g.NeighborCount(2), 0u);
}

TEST(FixedDegreeGraph, MemoryBytesIsSlotsTimesFour) {
  FixedDegreeGraph g(1000, 16);
  EXPECT_EQ(g.MemoryBytes(), 1000u * 16u * sizeof(idx_t));
}

TEST(FixedDegreeGraph, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "song_graph_test.bin")
          .string();
  FixedDegreeGraph g(5, 4);
  g.SetNeighbors(0, {1, 2});
  g.SetNeighbors(4, {0, 1, 2, 3});
  ASSERT_TRUE(g.Save(path).ok());
  auto loaded = FixedDegreeGraph::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), 5u);
  EXPECT_EQ(loaded->degree(), 4u);
  EXPECT_EQ(loaded->Neighbors(0), g.Neighbors(0));
  EXPECT_EQ(loaded->Neighbors(4), g.Neighbors(4));
  std::remove(path.c_str());
}

TEST(FixedDegreeGraph, LoadMissingFileFails) {
  EXPECT_FALSE(FixedDegreeGraph::Load("/nonexistent/graph.bin").ok());
}

// ---- Shared fixture ----

struct GraphFixture {
  Dataset data;
  Dataset queries;
  std::vector<std::vector<idx_t>> gt10;

  static const GraphFixture& Get() {
    static GraphFixture* f = [] {
      auto* fx = new GraphFixture();
      SyntheticSpec spec;
      spec.name = "graphtest";
      spec.dim = 16;
      spec.num_points = 2000;
      spec.num_queries = 30;
      spec.num_clusters = 8;
      spec.cluster_std = 0.5;
      spec.seed = 31;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      FlatIndex flat(&fx->data, Metric::kL2);
      fx->gt10 = FlatIndex::Ids(flat.BatchSearch(fx->queries, 10, 1));
      return fx;
    }();
    return *f;
  }
};

// ---- EpochVisitedSet ----

TEST(EpochVisitedSet, EpochSemantics) {
  EpochVisitedSet v;
  v.Reset(10);
  EXPECT_FALSE(v.Test(3));
  EXPECT_TRUE(v.Insert(3));
  EXPECT_TRUE(v.Test(3));
  v.Reset(10);
  EXPECT_FALSE(v.Test(3));
}

TEST(EpochVisitedSet, InsertIsTestAndSet) {
  EpochVisitedSet v;
  v.Reset(4);
  EXPECT_TRUE(v.Insert(2));
  EXPECT_FALSE(v.Insert(2));
}

TEST(EpochVisitedSet, OutOfRangeIdsAreRefusedNotIndexed) {
  EpochVisitedSet v;
  v.Reset(4);
  EXPECT_FALSE(v.Insert(4));
  EXPECT_FALSE(v.Insert(kInvalidIdx));
  EXPECT_FALSE(v.Test(4));
  v.Erase(4);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.MemoryBytes(), 4 * sizeof(uint32_t));
}

TEST(EpochVisitedSet, EraseAndSizeTrackMembers) {
  EpochVisitedSet v;
  v.Reset(8);
  EXPECT_TRUE(v.Insert(1));
  EXPECT_TRUE(v.Insert(5));
  EXPECT_FALSE(v.Insert(5));
  EXPECT_EQ(v.size(), 2u);
  v.Erase(5);
  EXPECT_FALSE(v.Test(5));
  EXPECT_EQ(v.size(), 1u);
  v.Erase(5);  // erasing an absent id is a no-op
  v.Erase(6);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(v.Insert(5));  // an erased id can be marked again
  EXPECT_EQ(v.size(), 2u);
  v.Reset(8);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.Test(1));
}

TEST(EpochVisitedSet, SmallerResetKeepsCoverage) {
  EpochVisitedSet v;
  v.Reset(16);
  v.Reset(4);
  EXPECT_TRUE(v.Insert(12));
  EXPECT_EQ(v.MemoryBytes(), 16 * sizeof(uint32_t));
}

TEST(EpochVisitedSet, EpochWrapAroundRezeroesStaleStamps) {
  // 8-bit stamps wrap after 255 resets. A stamp written at epoch 1 and left
  // untouched must not read as visited when the epoch comes back to 1.
  BasicEpochVisitedSet<uint8_t> v;
  v.Reset(4);
  ASSERT_TRUE(v.Insert(0));  // stamped with epoch 1
  for (int i = 0; i < 254; ++i) v.Reset(4);  // epochs 2 .. 255
  ASSERT_TRUE(v.Insert(1));  // stamped with epoch 255
  v.Reset(4);                // wraps to 0, re-zeroes, restarts at 1
  EXPECT_FALSE(v.Test(0));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.Insert(0));
  EXPECT_TRUE(v.Test(0));
  v.Reset(4);
  EXPECT_FALSE(v.Test(0));
}

// ---- NSW builder ----

TEST(NswBuilder, ProducesConnectedSearchableGraph) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.degree = 16;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  EXPECT_EQ(g.num_vertices(), fx.data.num());
  const GraphStats stats = ComputeGraphStats(g, 0);
  EXPECT_EQ(stats.reachable, fx.data.num());
  EXPECT_GT(stats.avg_degree, 2.0);
  EXPECT_LE(stats.max_degree, 16u);
}

TEST(NswBuilder, ParallelBuildIsAlsoSearchable) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.degree = 16;
  opts.num_threads = 4;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  EXPECT_EQ(CountReachable(g, 0), fx.data.num());
  BestFirstScratch scratch;
  std::vector<std::vector<idx_t>> results(fx.queries.num());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const auto found =
        GraphSearch(fx.data, Metric::kL2, g, 0,
                    fx.queries.Row(static_cast<idx_t>(q)), 64, 10, &scratch);
    for (const Neighbor& n : found) results[q].push_back(n.id);
  }
  EXPECT_GE(MeanRecallAtK(results, fx.gt10, 10), 0.8);
}

TEST(NswBuilder, RespectsDegreeCap) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.degree = 8;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(g.NeighborCount(static_cast<idx_t>(v)), 8u);
  }
}

TEST(NswBuilder, NoSelfEdges) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.degree = 16;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (const idx_t u : g.Neighbors(static_cast<idx_t>(v))) {
      EXPECT_NE(u, static_cast<idx_t>(v));
    }
  }
}

// ---- Reference GraphSearch ----

TEST(GraphSearch, FindsExactNeighborsOnGoodGraph) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.degree = 16;
  opts.ef_construction = 200;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  BestFirstScratch scratch;
  std::vector<std::vector<idx_t>> results(fx.queries.num());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const auto found =
        GraphSearch(fx.data, Metric::kL2, g, 0,
                    fx.queries.Row(static_cast<idx_t>(q)), 128, 10,
                    &scratch);
    for (const Neighbor& n : found) results[q].push_back(n.id);
  }
  EXPECT_GE(MeanRecallAtK(results, fx.gt10, 10), 0.9);
}

TEST(GraphSearch, StatsAreCollected) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  BestFirstScratch scratch;
  GraphSearchStats stats;
  GraphSearch(fx.data, Metric::kL2, g, 0, fx.queries.Row(0), 32, 10,
              &scratch, &stats);
  EXPECT_GT(stats.distance_computations, 10u);
  EXPECT_GT(stats.hops, 0u);
  EXPECT_GE(stats.iterations, stats.hops);
}

TEST(GraphSearch, EfOneStillReturnsResults) {
  const GraphFixture& fx = GraphFixture::Get();
  NswBuildOptions opts;
  opts.num_threads = 1;
  const FixedDegreeGraph g = NswBuilder::Build(fx.data, Metric::kL2, opts);
  BestFirstScratch scratch;
  const auto found = GraphSearch(fx.data, Metric::kL2, g, 0,
                                 fx.queries.Row(0), 1, 1, &scratch);
  ASSERT_EQ(found.size(), 1u);
}

// ---- kNN graphs ----

TEST(KnnGraph, ExactGraphHasTrueNeighbors) {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.dim = 8;
  spec.num_points = 200;
  spec.num_queries = 1;
  spec.seed = 5;
  const SyntheticData gen = GenerateSynthetic(spec);
  const FixedDegreeGraph g = BuildExactKnnGraph(gen.points, Metric::kL2, 5, 1);
  FlatIndex flat(&gen.points, Metric::kL2);
  for (idx_t v = 0; v < 20; ++v) {
    const auto exact = flat.Search(gen.points.Row(v), 6);
    std::set<idx_t> expect;
    for (const Neighbor& n : exact) {
      if (n.id != v && expect.size() < 5) expect.insert(n.id);
    }
    const auto got = g.Neighbors(v);
    EXPECT_EQ(std::set<idx_t>(got.begin(), got.end()), expect) << "v=" << v;
  }
}

TEST(KnnGraph, ApproxGraphIsCloseToExact) {
  const GraphFixture& fx = GraphFixture::Get();
  const FixedDegreeGraph approx =
      BuildApproxKnnGraph(fx.data, Metric::kL2, 10, 128, 2);
  const FixedDegreeGraph exact =
      BuildExactKnnGraph(fx.data, Metric::kL2, 10, 2);
  double overlap = 0.0;
  const size_t sample = 200;
  for (idx_t v = 0; v < sample; ++v) {
    const auto a = approx.Neighbors(v);
    const auto e = exact.Neighbors(v);
    const std::set<idx_t> es(e.begin(), e.end());
    size_t hits = 0;
    for (const idx_t u : a) hits += es.count(u);
    overlap += static_cast<double>(hits) / static_cast<double>(e.size());
  }
  EXPECT_GE(overlap / sample, 0.8);
}

TEST(KnnGraph, NoSelfEdges) {
  const GraphFixture& fx = GraphFixture::Get();
  const FixedDegreeGraph g = BuildApproxKnnGraph(fx.data, Metric::kL2, 8, 64,
                                                 2);
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    for (const idx_t u : g.Neighbors(static_cast<idx_t>(v))) {
      EXPECT_NE(u, static_cast<idx_t>(v));
    }
  }
}

// ---- NSG ----

TEST(NsgBuilder, BuildsConnectedGraphWithNavigatingNode) {
  const GraphFixture& fx = GraphFixture::Get();
  NsgBuildOptions opts;
  opts.degree = 16;
  opts.num_threads = 2;
  const NsgIndex nsg = NsgBuilder::Build(fx.data, Metric::kL2, opts);
  EXPECT_LT(nsg.navigating_node, fx.data.num());
  EXPECT_EQ(CountReachable(nsg.graph, nsg.navigating_node), fx.data.num());
}

TEST(NsgBuilder, SearchFromNavigatingNodeHasGoodRecall) {
  const GraphFixture& fx = GraphFixture::Get();
  NsgBuildOptions opts;
  opts.degree = 16;
  opts.num_threads = 2;
  const NsgIndex nsg = NsgBuilder::Build(fx.data, Metric::kL2, opts);
  BestFirstScratch scratch;
  std::vector<std::vector<idx_t>> results(fx.queries.num());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    const auto found = GraphSearch(fx.data, Metric::kL2, nsg.graph,
                                   nsg.navigating_node,
                                   fx.queries.Row(static_cast<idx_t>(q)), 96,
                                   10, &scratch);
    for (const Neighbor& n : found) results[q].push_back(n.id);
  }
  EXPECT_GE(MeanRecallAtK(results, fx.gt10, 10), 0.85);
}

TEST(NsgBuilder, RespectsDegreeCap) {
  const GraphFixture& fx = GraphFixture::Get();
  NsgBuildOptions opts;
  opts.degree = 12;
  opts.num_threads = 2;
  const NsgIndex nsg = NsgBuilder::Build(fx.data, Metric::kL2, opts);
  EXPECT_EQ(nsg.graph.degree(), 12u);
}

// ---- GraphStats ----

TEST(GraphStats, CountReachableOnChain) {
  FixedDegreeGraph g(4, 2);
  g.SetNeighbors(0, {1});
  g.SetNeighbors(1, {2});
  // 3 is isolated.
  EXPECT_EQ(CountReachable(g, 0), 3u);
  EXPECT_EQ(CountReachable(g, 3), 1u);
}

TEST(GraphStats, ComputesDegreeDistribution) {
  FixedDegreeGraph g(3, 4);
  g.SetNeighbors(0, {1, 2});
  g.SetNeighbors(1, {0});
  const GraphStats stats = ComputeGraphStats(g, 0);
  EXPECT_EQ(stats.min_degree, 0u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_NEAR(stats.avg_degree, 1.0, 1e-9);
  EXPECT_EQ(stats.memory_bytes, 3u * 4u * sizeof(idx_t));
}

}  // namespace
}  // namespace song
