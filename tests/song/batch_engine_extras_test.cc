// Tests for batch-engine latency and start-offset accounting and the
// hashed-batch simulator wrapper.

#include "data/synthetic.h"
#include "gpusim/simulator.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "hashing/hashed_index.h"
#include "song/batch_engine.h"

namespace song {
namespace {

struct EngineFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;

  static const EngineFixture& Get() {
    static EngineFixture* f = [] {
      auto* fx = new EngineFixture();
      SyntheticSpec spec;
      spec.dim = 16;
      spec.num_points = 1500;
      spec.num_queries = 40;
      spec.num_clusters = 6;
      spec.seed = 61;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.num_threads = 1;
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      return fx;
    }();
    return *f;
  }
};

TEST(BatchEngineLatency, RecordsPerQueryLatencies) {
  const EngineFixture& fx = EngineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 2);
  const BatchResult batch = engine.Search(fx.queries, 10, {});
  ASSERT_EQ(batch.latencies_us.size(), fx.queries.num());
  for (const float lat : batch.latencies_us) EXPECT_GT(lat, 0.0f);
}

TEST(BatchEngineLatency, PercentilesAreMonotone) {
  const EngineFixture& fx = EngineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 2);
  const BatchResult batch = engine.Search(fx.queries, 10, {});
  const double p50 = batch.LatencyPercentileUs(50);
  const double p90 = batch.LatencyPercentileUs(90);
  const double p99 = batch.LatencyPercentileUs(99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_DOUBLE_EQ(batch.LatencyPercentileUs(0),
                   *std::min_element(batch.latencies_us.begin(),
                                     batch.latencies_us.end()));
  EXPECT_DOUBLE_EQ(batch.LatencyPercentileUs(100),
                   *std::max_element(batch.latencies_us.begin(),
                                     batch.latencies_us.end()));
}

TEST(BatchEngineLatency, StartOffsetsPlaceEachQueryBehindItsBatchmates) {
  const EngineFixture& fx = EngineFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);
  const BatchResult batch = engine.Search(fx.queries, 10, {});
  ASSERT_EQ(batch.start_offsets_us.size(), fx.queries.num());
  EXPECT_GE(batch.start_offsets_us[0], 0.0f);
  // One engine thread runs the queries in order, so query q starts no
  // earlier than query q-1 finished: its offset holds the wait behind
  // every batchmate before it. The slack covers float rounding.
  for (size_t q = 1; q < fx.queries.num(); ++q) {
    const float prev_end =
        batch.start_offsets_us[q - 1] + batch.latencies_us[q - 1];
    EXPECT_GE(batch.start_offsets_us[q], prev_end * (1.0f - 1e-5f))
        << "query " << q;
  }
  const float last_end = batch.start_offsets_us.back() +
                         batch.latencies_us.back();
  EXPECT_LE(last_end, batch.wall_seconds * 1e6 * (1.0 + 1e-5));
}

TEST(BatchEngineLatency, EmptyBatchPercentileIsZero) {
  BatchResult empty;
  EXPECT_DOUBLE_EQ(empty.LatencyPercentileUs(50), 0.0);
}

TEST(SimulateHashedBatch, ProducesResultsAndGpuProfile) {
  const EngineFixture& fx = EngineFixture::Get();
  RandomProjection proj(fx.data.dim(), 64, ProjectionKind::kNormal, 5);
  const BinaryCodes codes = proj.EncodeDataset(fx.data, 1);
  HashedSongIndex index(&codes, &fx.graph, &proj);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 48;
  const SimulatedRun run =
      SimulateHashedBatch(index, fx.queries, 5, options, GpuSpec::TitanX(),
                          1);
  EXPECT_EQ(run.batch.results.size(), fx.queries.num());
  EXPECT_GT(run.SimQps(), 0.0);
  EXPECT_GT(run.gpu.kernel_seconds, 0.0);
  // Hashed bytes per candidate: 64 bits = 8 bytes.
  EXPECT_EQ(run.batch.stats.data_bytes_loaded,
            run.batch.stats.distance_computations * 8);
}

TEST(SimulateBatch, DenseVsHashedGpuCostOrdering) {
  // Hashed candidates stream 8 bytes rather than dim*4, so the PER-CANDIDATE
  // distance price must drop (total stage time can still grow because
  // Hamming plateaus make the search explore more candidates).
  const EngineFixture& fx = EngineFixture::Get();
  SongSearcher dense(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = 64;
  const SimulatedRun dense_run =
      SimulateBatch(dense, fx.queries, 5, options, GpuSpec::TitanX(), 1);

  RandomProjection proj(fx.data.dim(), 64, ProjectionKind::kNormal, 5);
  const BinaryCodes codes = proj.EncodeDataset(fx.data, 1);
  HashedSongIndex hashed(&codes, &fx.graph, &proj);
  const SimulatedRun hashed_run =
      SimulateHashedBatch(hashed, fx.queries, 5, options, GpuSpec::TitanX(),
                          1);
  const double dense_per_cand =
      dense_run.gpu.distance_seconds /
      static_cast<double>(dense_run.batch.stats.distance_computations);
  const double hashed_per_cand =
      hashed_run.gpu.distance_seconds /
      static_cast<double>(hashed_run.batch.stats.distance_computations);
  EXPECT_LT(hashed_per_cand, dense_per_cand);
}

}  // namespace
}  // namespace song
