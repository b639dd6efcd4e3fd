// Tests for the NN-Descent kNN-graph builder.

#include <set>

#include "graph/knn_graph.h"
#include "graph/nn_descent.h"

#include "data/synthetic.h"
#include "gtest/gtest.h"

namespace song {
namespace {

// ---- NN-Descent ----

struct NnDescentFixture {
  Dataset data;
  FixedDegreeGraph exact;

  static const NnDescentFixture& Get() {
    static NnDescentFixture* f = [] {
      auto* fx = new NnDescentFixture();
      SyntheticSpec spec;
      spec.dim = 12;
      spec.num_points = 1200;
      spec.num_queries = 1;
      spec.num_clusters = 6;
      spec.cluster_std = 0.5;
      spec.seed = 404;
      fx->data = GenerateSynthetic(spec).points;
      fx->exact = BuildExactKnnGraph(fx->data, Metric::kL2, 10, 1);
      return fx;
    }();
    return *f;
  }
};

TEST(NnDescent, HighOverlapWithExactKnnGraph) {
  const NnDescentFixture& fx = NnDescentFixture::Get();
  NnDescentOptions options;
  options.k = 10;
  options.num_threads = 1;
  const FixedDegreeGraph approx =
      BuildNnDescentKnnGraph(fx.data, Metric::kL2, options);
  double overlap = 0.0;
  for (idx_t v = 0; v < fx.data.num(); ++v) {
    const auto a = approx.Neighbors(v);
    const auto e = fx.exact.Neighbors(v);
    const std::set<idx_t> es(e.begin(), e.end());
    size_t hits = 0;
    for (const idx_t u : a) hits += es.count(u);
    overlap += static_cast<double>(hits) / static_cast<double>(e.size());
  }
  EXPECT_GE(overlap / fx.data.num(), 0.85);
}

TEST(NnDescent, RowsSortedNoSelfEdgesCorrectDegree) {
  const NnDescentFixture& fx = NnDescentFixture::Get();
  NnDescentOptions options;
  options.k = 8;
  options.num_threads = 1;
  const FixedDegreeGraph g =
      BuildNnDescentKnnGraph(fx.data, Metric::kL2, options);
  EXPECT_EQ(g.degree(), 8u);
  for (idx_t v = 0; v < 100; ++v) {
    const auto row = g.Neighbors(v);
    EXPECT_EQ(row.size(), 8u);
    float prev = -1.0f;
    for (const idx_t u : row) {
      EXPECT_NE(u, v);
      const float d = L2Sqr(fx.data.Row(v), fx.data.Row(u), fx.data.dim());
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(NnDescent, MoreIterationsNeverWorse) {
  const NnDescentFixture& fx = NnDescentFixture::Get();
  auto overlap_at = [&](size_t iters) {
    NnDescentOptions options;
    options.k = 10;
    options.max_iterations = iters;
    options.termination_delta = 0.0;  // run all rounds
    options.num_threads = 1;
    const FixedDegreeGraph approx =
        BuildNnDescentKnnGraph(fx.data, Metric::kL2, options);
    double overlap = 0.0;
    for (idx_t v = 0; v < fx.data.num(); ++v) {
      const auto a = approx.Neighbors(v);
      const auto e = fx.exact.Neighbors(v);
      const std::set<idx_t> es(e.begin(), e.end());
      size_t hits = 0;
      for (const idx_t u : a) hits += es.count(u);
      overlap += static_cast<double>(hits) / static_cast<double>(e.size());
    }
    return overlap / fx.data.num();
  };
  EXPECT_GE(overlap_at(8) + 0.02, overlap_at(2));
  EXPECT_GT(overlap_at(8), overlap_at(1));
}

TEST(NnDescent, WorksWithTinyDataset) {
  Dataset data(5, 2);
  for (idx_t i = 0; i < 5; ++i) {
    const float row[2] = {static_cast<float>(i), 0.0f};
    data.SetRow(i, row);
  }
  NnDescentOptions options;
  options.k = 3;
  options.num_threads = 1;
  const FixedDegreeGraph g = BuildNnDescentKnnGraph(data, Metric::kL2,
                                                    options);
  // With n=5 and k=3 the exact 3-NN graph is recoverable.
  EXPECT_EQ(g.Neighbors(0), (std::vector<idx_t>{1, 2, 3}));
}

}  // namespace
}  // namespace song
