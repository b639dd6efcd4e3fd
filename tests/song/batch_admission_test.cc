// Input-validation tests for the checked batch path: NaN/Inf query
// rejection, dim-mismatch, bad-k and bad-option refusal, and the
// capacity-checked TryPush/TryReset admission on the bounded per-query
// structures.

#include <cmath>
#include <limits>
#include <vector>

#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "song/batch_engine.h"
#include "song/bounded_heap.h"
#include "song/open_addressing_set.h"
#include "song/song_searcher.h"
#include "song/visited_table.h"

namespace song {
namespace {

struct AdmissionFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;

  static const AdmissionFixture& Get() {
    static AdmissionFixture* f = [] {
      auto* fx = new AdmissionFixture();
      SyntheticSpec spec;
      spec.name = "admission";
      spec.dim = 16;
      spec.num_points = 2000;
      spec.num_queries = 16;
      spec.seed = 777;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.degree = 8;
      nsw.num_threads = 1;
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      return fx;
    }();
    return *f;
  }
};

TEST(BatchAdmission, DimMismatchIsInvalidArgument) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);
  Dataset wrong(4, fx.data.dim() + 1);
  const auto result = engine.TrySearch(wrong, 10, SongSearchOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchAdmission, BadKAndOversizedQueueRefused) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);
  EXPECT_EQ(engine.TrySearch(fx.queries, 0, SongSearchOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  SongSearchOptions huge;
  huge.queue_size = SongSearcher::kMaxQueueSize + 1;
  EXPECT_EQ(engine.TrySearch(fx.queries, 10, huge).status().code(),
            StatusCode::kResourceExhausted);
}

// The engine runs SongSearcher's own shape check, so a batch is refused
// with the same status a single checked query gets, never an abort.
TEST(BatchAdmission, PqWithoutCodebookIsFailedPrecondition) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);
  SongSearchOptions pq;
  pq.quant = QuantizationMode::kPq;
  const auto batch = engine.TrySearch(fx.queries, 10, pq);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
  SongWorkspace ws;
  const auto single = searcher.TrySearch(fx.queries.Row(0), 10, pq, &ws);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(batch.status().message(), single.status().message());
}

TEST(BatchAdmission, ZeroMultiStepProbeIsInvalidArgument) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);
  SongSearchOptions options;
  options.multi_step_probe = 0;
  EXPECT_EQ(engine.TrySearch(fx.queries, 10, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchAdmission, NanAndInfQueriesAreRejectedNotSearched) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);

  Dataset mixed(3, fx.data.dim());
  std::vector<float> row(fx.data.dim());
  for (size_t d = 0; d < row.size(); ++d) row[d] = fx.queries.Row(0)[d];
  mixed.SetRow(0, row.data());  // valid
  row[2] = std::numeric_limits<float>::quiet_NaN();
  mixed.SetRow(1, row.data());  // NaN
  row[2] = std::numeric_limits<float>::infinity();
  mixed.SetRow(2, row.data());  // Inf

  obs::MetricsRegistry registry;
  BatchTelemetry telemetry;
  telemetry.registry = &registry;
  const auto result = engine.TrySearch(mixed, 5, SongSearchOptions{},
                                       telemetry);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->queries_rejected, 2u);
  EXPECT_EQ(result->rejected[0], 0);
  EXPECT_EQ(result->rejected[1], 1);
  EXPECT_EQ(result->rejected[2], 1);
  EXPECT_EQ(result->results[0].size(), 5u);   // valid query served normally
  EXPECT_TRUE(result->results[1].empty());
  EXPECT_TRUE(result->results[2].empty());
  EXPECT_EQ(registry.GetCounter("song.batch.rejected_queries").Value(), 2u);
}

TEST(BatchAdmission, ValidateQueryCatchesNanInfAndNull) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  EXPECT_TRUE(searcher.ValidateQuery(fx.queries.Row(0)).ok());
  EXPECT_EQ(searcher.ValidateQuery(nullptr).code(),
            StatusCode::kInvalidArgument);
  std::vector<float> bad(fx.data.dim(), 1.0f);
  bad.back() = std::nanf("");
  EXPECT_EQ(searcher.ValidateQuery(bad.data()).code(),
            StatusCode::kInvalidArgument);
  bad.back() = -std::numeric_limits<float>::infinity();
  EXPECT_EQ(searcher.ValidateQuery(bad.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchAdmission, TrySearchMatchesSearchForValidInput) {
  const AdmissionFixture& fx = AdmissionFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 48;
  SongWorkspace ws;
  const auto plain = searcher.Search(fx.queries.Row(0), 10, options, &ws);
  const auto checked = searcher.TrySearch(fx.queries.Row(0), 10, options,
                                          &ws);
  ASSERT_TRUE(checked.ok());
  ASSERT_EQ(checked->size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ((*checked)[i].id, plain[i].id);
    EXPECT_EQ((*checked)[i].dist, plain[i].dist);
  }
}

TEST(BoundedStructures, TryPushReportsCapacityExhaustion) {
  SymmetricMinMaxHeap q(2);
  EXPECT_TRUE(q.TryPush(Neighbor{1.0f, 1}).ok());
  EXPECT_TRUE(q.TryPush(Neighbor{2.0f, 2}).ok());
  const Status full = q.TryPush(Neighbor{3.0f, 3});
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(q.size(), 2u);

  BoundedMaxHeap topk(2);
  EXPECT_TRUE(topk.TryPush(Neighbor{1.0f, 1}).ok());
  EXPECT_TRUE(topk.TryPush(Neighbor{2.0f, 2}).ok());
  EXPECT_EQ(topk.TryPush(Neighbor{3.0f, 3}).code(),
            StatusCode::kResourceExhausted);
}

TEST(BoundedStructures, TryResetRejectsAbsurdCapacities) {
  OpenAddressingSet set;
  EXPECT_TRUE(set.TryReset(1024).ok());
  EXPECT_EQ(set.TryReset(OpenAddressingSet::kMaxCapacity + 1).code(),
            StatusCode::kResourceExhausted);

  VisitedTable table;
  EXPECT_TRUE(table.TryReset(VisitedStructure::kHashTable, 4096).ok());
  EXPECT_EQ(table
                .TryReset(VisitedStructure::kHashTable,
                          OpenAddressingSet::kMaxCapacity + 1)
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(table
                .TryReset(VisitedStructure::kBloomFilter, 128,
                          /*bloom_bits=*/~size_t{0})
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace song
