// Pins the deterministic link-time pruning policy shared by offline
// construction and online insertion (NswBuilder::SelectDiverse): occlusion
// is strict (a candidate survives when its distance to every kept neighbor
// EQUALS its distance to the center), discarded candidates backfill in pool
// order, and the policy is a pure function of the sorted pool — so the
// degree-overflow re-selection MutableIndex runs when a reverse edge lands
// on a full row resolves identically every time. The overflow case was the
// degree edge found while wiring Insert into FixedDegreeGraph: AddNeighbor
// on a full row returns false and must trigger re-selection, never a silent
// drop or an out-of-bounds write.

#include <cstddef>
#include <set>
#include <vector>

#include "core/dataset.h"
#include "core/random.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "song/mutable_index.h"

namespace song {
namespace {

/// 2-D points at y = 0 unless stated; L2 here is squared Euclidean.
Dataset MakePoints(const std::vector<std::pair<float, float>>& xy) {
  Dataset data(xy.size(), 2);
  for (size_t i = 0; i < xy.size(); ++i) {
    const float row[2] = {xy[i].first, xy[i].second};
    data.SetRow(static_cast<idx_t>(i), row);
  }
  return data;
}

BatchDistance L2(const Dataset& data) {
  return BatchDistance(Metric::kL2, &data);
}

TEST(PruneOrder, OcclusionKeepsDiverseDropsShadowed) {
  // center 0 at x=0; 1 at x=1 (d=1); 3 at x=-1.5 (d=2.25); 2 at x=2 (d=4,
  // shadowed by 1: dist(1,2)=1 < 4); 4 at x=10 (d=100, shadowed by 1).
  const Dataset data =
      MakePoints({{0, 0}, {1, 0}, {2, 0}, {-1.5f, 0}, {10, 0}});
  const std::vector<Neighbor> pool = {
      {1.0f, 1}, {2.25f, 3}, {4.0f, 2}, {100.0f, 4}};

  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 2),
            (std::vector<idx_t>{1, 3}));
  // m=3: backfill pulls the first discarded candidate (2), in pool order.
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 3),
            (std::vector<idx_t>{1, 3, 2}));
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 4),
            (std::vector<idx_t>{1, 3, 2, 4}));
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 1),
            (std::vector<idx_t>{1}));
}

TEST(PruneOrder, EqualDistanceDoesNotOcclude) {
  // 2 = (1, 2) sits on the perpendicular bisector of center..1, so
  // dist(1, 2) == dist(center, 2) == 5 bit-for-bit — the strict `<` in the
  // occlusion rule must keep it.
  const Dataset data = MakePoints({{0, 0}, {2, 0}, {1, 2}});
  const std::vector<Neighbor> pool = {{4.0f, 1}, {5.0f, 2}};
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 2),
            (std::vector<idx_t>{1, 2}));
}

TEST(PruneOrder, EqualCenterDistanceTieBreaksByPoolOrder) {
  // 1 and 2 are both at distance 1 from the center and far from each other:
  // the sorted pool orders the tie by id (Neighbor ordering), and both
  // survive occlusion.
  const Dataset data = MakePoints({{0, 0}, {1, 0}, {-1, 0}});
  const std::vector<Neighbor> pool = {{1.0f, 1}, {1.0f, 2}};
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 2),
            (std::vector<idx_t>{1, 2}));
}

TEST(PruneOrder, CenterAndDuplicateIdsAreSkipped) {
  const Dataset data = MakePoints({{0, 0}, {1, 0}, {3, 0}});
  // A pool polluted with the center itself and a duplicate id: the center
  // never links to itself, the duplicate is occluded (distance 0 to its
  // kept twin) and backfill refuses to re-add a selected id.
  const std::vector<Neighbor> pool = {
      {0.0f, 0}, {1.0f, 1}, {1.0f, 1}, {9.0f, 2}};
  EXPECT_EQ(NswBuilder::SelectDiverse(L2(data), 0, pool, 3),
            (std::vector<idx_t>{1, 2}));
}

TEST(PruneOrder, RepairConnectivityNeverDuplicatesAnExistingEdge) {
  // Regression for the duplicate-edge bug found wiring online Insert into
  // FixedDegreeGraph: AddNeighbor returns false both for "row full" and
  // "edge already exists", and RepairConnectivity's evict branch assumed
  // the former — force-writing v into a row that already held it.
  // Construction: 1-D points; BFS from 0 reaches {0, 1, 4}. Orphan 2 gets
  // attached to vertex 0 by evicting the far neighbor 4. Orphan 3 then
  // picks the freshly-attached 2 as its anchor — whose full row [3, 5]
  // ALREADY contains 3 — and the evict branch used to produce [3, 3].
  Dataset data(6, 2);
  const float xs[6] = {0.0f, 1.0f, 2.0f, 3.0f, 100.0f, 50.0f};
  for (idx_t v = 0; v < 6; ++v) {
    const float row[2] = {xs[v], 0.0f};
    data.SetRow(v, row);
  }
  FixedDegreeGraph graph = FixedDegreeGraph::FromAdjacency(
      {{1, 4}, {}, {3, 5}, {2}, {}, {}}, /*degree=*/2);

  NswBuilder::RepairConnectivity(data, Metric::kL2, &graph);

  std::vector<bool> seen(6, false);
  std::vector<idx_t> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const idx_t v = stack.back();
    stack.pop_back();
    for (const idx_t u : graph.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  for (idx_t v = 0; v < 6; ++v) {
    EXPECT_TRUE(seen[v]) << "vertex " << v << " unreachable after repair";
    const std::vector<idx_t> row = graph.Neighbors(v);
    const std::set<idx_t> uniq(row.begin(), row.end());
    EXPECT_EQ(uniq.size(), row.size())
        << "duplicate neighbor in row of vertex " << v;
  }
  // The already-present edge 2 -> 3 satisfied orphan 3's attachment, so the
  // row must be untouched, not rewritten.
  EXPECT_EQ(graph.Neighbors(2), (std::vector<idx_t>{3, 5}));
}

TEST(PruneOrder, OverflowReselectionIsDeterministicAndBounded) {
  // Drive the reverse-edge overflow path hard: degree 3, many inserts in a
  // tight cluster so nearly every insert lands reverse edges on full rows.
  // Two identical runs must produce edge-for-edge identical graphs (the
  // re-selection is deterministic), and no row may ever exceed its degree.
  constexpr size_t kDim = 4;
  constexpr size_t kInserts = 120;
  auto run = [] {
    MutableIndex index(
        Metric::kL2, kDim,
        MutableIndexOptions{.degree = 3, .ef_construction = 24});
    RandomEngine rng(60221023);
    std::vector<float> p(kDim);
    for (size_t i = 0; i < kInserts; ++i) {
      for (size_t d = 0; d < kDim; ++d) {
        p[d] = static_cast<float>(rng.NextGaussian() * 0.1);
      }
      EXPECT_TRUE(index.Insert(p.data()).ok());
    }
    return index.Acquire();
  };
  const std::shared_ptr<const IndexSnapshot> a = run();
  const std::shared_ptr<const IndexSnapshot> b = run();

  ASSERT_EQ(a->num_points(), kInserts);
  ASSERT_EQ(b->num_points(), kInserts);
  for (idx_t v = 0; v < kInserts; ++v) {
    const std::vector<idx_t> row_a = a->graph().Neighbors(v);
    ASSERT_LE(row_a.size(), a->graph().degree());
    ASSERT_EQ(std::set<idx_t>(row_a.begin(), row_a.end()).size(),
              row_a.size())
        << "duplicate neighbor in row of vertex " << v;
    for (const idx_t u : row_a) {
      ASSERT_LT(u, kInserts);
      ASSERT_NE(u, v);
    }
    EXPECT_EQ(row_a, b->graph().Neighbors(v))
        << "overflow re-selection diverged at vertex " << v;
  }
}

}  // namespace
}  // namespace song
