// Golden digests of one-thread graph builds. Every builder's construction
// search (NSW, the kNN graph behind NSG, HNSW's layer search, MutableIndex's
// link-time search) and the occlusion pruning behind it must keep producing
// exactly these bytes: a faster frontier or a batched distance path may not
// move a single edge. The digests were recorded from the two-heap
// best-first search and the pairwise-distance pruning that preceded the
// sorted-frontier search; they pin L2, inner product (negative distances)
// and cosine, each on small-integer coordinates, where exact distance ties
// are common, and on clustered Gaussian coordinates. HNSW query ids are
// pinned as well, since queries descend the upper layers too.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/hnsw.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "graph/fixed_degree_graph.h"
#include "graph/nsg_builder.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "harness/exact_data.h"
#include "song/mutable_index.h"

namespace song {
namespace {

using harness::Coords;
using harness::MakeExactData;

class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const FixedDegreeGraph& graph) {
    Add(graph.num_vertices());
    Add(graph.degree());
    for (idx_t v = 0; v < graph.num_vertices(); ++v) {
      const idx_t* row = graph.Row(v);
      for (size_t i = 0; i < graph.degree(); ++i) Add(row[i]);
    }
  }
  std::string Hex() const {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Case {
  Coords coords;
  Metric metric;
  const char* nsw;
  const char* nsg;
  const char* hnsw_graph;
  const char* hnsw_queries;
  const char* mutable_inserts;
};

std::string Name(const Case& c) {
  return std::string(c.coords == Coords::kTies ? "ties/" : "gauss/") +
         MetricName(c.metric);
}

const Case kCases[] = {
    {Coords::kTies, Metric::kL2, "f6e677931a2afdc2", "e3d7706a0648ca9b",
     "dd3044aa56f7e512", "1324b035ffce6930", "7e7318cffc30a5f9"},
    {Coords::kTies, Metric::kInnerProduct, "8f96d8b88eb13488", "4a64cb31de87d6d5",
     "56bb38eba460e7fe", "a0cf0c3e1b2be096", "8b8efdba03bcfc42"},
    {Coords::kTies, Metric::kCosine, "5aef7dfcbe28a354", "8e1d14b5dce25510",
     "7e5cfecc4d90abec", "3306c85509481447", "f639d611f2295ce3"},
    {Coords::kGauss, Metric::kL2, "f52aa2245dc79eb9", "dc4b499eb275a362",
     "a0259bdd1172da7b", "c9aa604ffa87b70d", "bcbf2669f0ec25a3"},
    {Coords::kGauss, Metric::kInnerProduct, "2e99675db88568dd", "41514c5f314786ef",
     "8b6842f80e3d7f21", "9c177bf21c567ef4", "4a60c0fe22cbc9c1"},
    {Coords::kGauss, Metric::kCosine, "0bd402e944715deb", "78c06943b72f88eb",
     "e100d099bac85148", "14bd929678be2f2f", "cc4d32e43441a6d9"},
};

TEST(BuildDigest, OneThreadNswBuildsAreByteIdentical) {
  for (const Case& c : kCases) {
    const Dataset data = MakeExactData(c.coords, c.metric, 600, 0x5EED1);
    NswBuildOptions options;
    options.degree = 12;
    options.ef_construction = 40;
    options.num_threads = 1;
    Fnv1a h;
    h.Add(NswBuilder::Build(data, c.metric, options));
    EXPECT_EQ(h.Hex(), c.nsw) << Name(c);
  }
}

TEST(BuildDigest, OneThreadNsgBuildsAreByteIdentical) {
  for (const Case& c : kCases) {
    const Dataset data = MakeExactData(c.coords, c.metric, 400, 0x5EED2);
    NsgBuildOptions options;
    options.degree = 12;
    options.search_l = 32;
    options.knn_k = 16;
    options.num_threads = 1;
    const NsgIndex index = NsgBuilder::Build(data, c.metric, options);
    Fnv1a h;
    h.Add(index.graph);
    h.Add(index.navigating_node);
    EXPECT_EQ(h.Hex(), c.nsg) << Name(c);
  }
}

TEST(BuildDigest, OneThreadHnswBuildsAndQueriesAreByteIdentical) {
  for (const Case& c : kCases) {
    const Dataset data = MakeExactData(c.coords, c.metric, 600, 0x5EED3);
    const Dataset queries = MakeExactData(c.coords, c.metric, 6, 0x5EED4);
    HnswBuildOptions options;
    options.m = 6;
    options.ef_construction = 40;
    options.num_threads = 1;
    const Hnsw hnsw(&data, c.metric, options);
    Fnv1a graph;
    graph.Add(hnsw.ExportBaseLayer());
    EXPECT_EQ(graph.Hex(), c.hnsw_graph) << Name(c);
    Fnv1a ids;
    for (idx_t q = 0; q < queries.num(); ++q) {
      for (const Neighbor& nb : hnsw.Search(queries.Row(q), 5, 16)) {
        ids.Add(nb.id);
      }
    }
    EXPECT_EQ(ids.Hex(), c.hnsw_queries) << Name(c);
  }
}

TEST(BuildDigest, OnlineInsertLinksAreByteIdentical) {
  for (const Case& c : kCases) {
    const Dataset data = MakeExactData(c.coords, c.metric, 360, 0x5EED5);
    const size_t adopted = 300;
    Dataset head(adopted, data.dim());
    for (idx_t v = 0; v < adopted; ++v) head.SetRow(v, data.Row(v));
    NswBuildOptions build;
    build.degree = 8;
    build.ef_construction = 32;
    build.num_threads = 1;
    FixedDegreeGraph graph = NswBuilder::Build(head, c.metric, build);
    MutableIndexOptions options;
    options.degree = 8;
    options.ef_construction = 32;
    MutableIndex index(c.metric, data.dim(), options);
    ASSERT_TRUE(index.AdoptFrozen(std::move(head), std::move(graph)).ok());
    for (idx_t v = adopted; v < data.num(); ++v) {
      ASSERT_TRUE(index.Insert(data.Row(v)).ok());
    }
    Fnv1a h;
    h.Add(index.Acquire()->graph());
    EXPECT_EQ(h.Hex(), c.mutable_inserts) << Name(c);
  }
}

}  // namespace
}  // namespace song
