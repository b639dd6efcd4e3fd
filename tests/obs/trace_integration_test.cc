// Integration tests for the telemetry wiring: tracing must be a pure
// observer (identical results and work counters with and without it), the
// batch metrics must mirror the aggregate SearchStats exactly, and traced
// stage spans priced through StageUnitCosts must agree with the cost
// model's kernel-time attribution — the invariant the Chrome-trace
// validator (tools/validate_telemetry.py) checks on exported files.

#include <cmath>
#include <string>
#include <vector>

#include "baselines/flat_index.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "gpusim/simulator.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/exporters.h"
#include "song/batch_engine.h"

namespace song {
namespace {

struct Fixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;
  std::vector<std::vector<idx_t>> ground_truth;

  static const Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      SyntheticSpec spec;
      spec.name = "obs-test";
      spec.dim = 20;
      spec.num_points = 2000;
      spec.num_queries = 32;
      spec.num_clusters = 8;
      spec.cluster_std = 0.4;
      spec.seed = 4242;
      SyntheticData gen = GenerateSynthetic(spec);
      fx->data = std::move(gen.points);
      fx->queries = std::move(gen.queries);
      NswBuildOptions nsw;
      nsw.degree = 16;
      nsw.num_threads = 1;  // deterministic graph
      fx->graph = NswBuilder::Build(fx->data, Metric::kL2, nsw);
      FlatIndex flat(&fx->data, Metric::kL2);
      fx->ground_truth = FlatIndex::Ids(flat.BatchSearch(fx->queries, 10, 1));
      return fx;
    }();
    return *f;
  }
};

TEST(TraceIntegration, TracingIsAPureObserver) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, /*num_threads=*/2);
  // One preset per frontier: the SONG queue and the CPU preset's pool.
  for (SongSearchOptions options : {SongSearchOptions::HashTableSelDel(),
                                    SongSearchOptions::CpuEngineered()}) {
    SCOPED_TRACE(options.Name());
    options.queue_size = 48;

    const BatchResult plain = engine.Search(fx.queries, 10, options);

    obs::MetricsRegistry registry;
    BatchTelemetry telemetry;
    telemetry.registry = &registry;
    telemetry.trace_sample_period = 1;  // trace every query
    const BatchResult traced = engine.Search(fx.queries, 10, options,
                                             telemetry);

    // Same neighbors, same recall.
    ASSERT_EQ(traced.results.size(), plain.results.size());
    for (size_t q = 0; q < plain.results.size(); ++q) {
      ASSERT_EQ(traced.results[q].size(), plain.results[q].size()) << q;
      for (size_t i = 0; i < plain.results[q].size(); ++i) {
        EXPECT_EQ(traced.results[q][i].id, plain.results[q][i].id);
      }
    }
    EXPECT_DOUBLE_EQ(MeanRecallAtK(traced.Ids(), fx.ground_truth, 10),
                     MeanRecallAtK(plain.Ids(), fx.ground_truth, 10));

    // Same visited-vertex and work counters: tracing observed, not
    // perturbed.
    EXPECT_EQ(traced.stats.iterations, plain.stats.iterations);
    EXPECT_EQ(traced.stats.vertices_expanded, plain.stats.vertices_expanded);
    EXPECT_EQ(traced.stats.distance_computations,
              plain.stats.distance_computations);
    EXPECT_EQ(traced.stats.visited_insertions,
              plain.stats.visited_insertions);
    EXPECT_EQ(traced.stats.visited_deletions, plain.stats.visited_deletions);
    EXPECT_EQ(traced.stats.q_pushes, plain.stats.q_pushes);
    EXPECT_EQ(traced.stats.q_evictions, plain.stats.q_evictions);
    EXPECT_EQ(traced.stats.q_rejections, plain.stats.q_rejections);
    EXPECT_EQ(traced.stats.topk_pushes, plain.stats.topk_pushes);

    // Period 1 traces every query, ordered by query id, one row per round
    // plus the entry row.
    ASSERT_EQ(traced.traces.size(), fx.queries.num());
    EXPECT_EQ(traced.traces_dropped, 0u);
    size_t rows = 0;
    for (size_t q = 0; q < traced.traces.size(); ++q) {
      EXPECT_EQ(traced.traces[q].query_id, q);
      EXPECT_EQ(traced.traces[q].config, options.Name());
      rows += traced.traces[q].rows.size();
    }
    EXPECT_EQ(rows, plain.stats.iterations + fx.queries.num());

    // Untraced runs carry no traces.
    EXPECT_TRUE(plain.traces.empty());
  }
}

TEST(TraceIntegration, RegistryMirrorsAggregateStats) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, /*num_threads=*/2);
  const SongSearchOptions options = SongSearchOptions::HashTable();

  obs::MetricsRegistry registry;
  BatchTelemetry telemetry;
  telemetry.registry = &registry;
  telemetry.trace_sample_period = 4;
  const BatchResult batch = engine.Search(fx.queries, 10, options, telemetry);

  EXPECT_EQ(registry.GetCounter("song.batch.queries").Value(),
            batch.num_queries);
  EXPECT_EQ(registry.GetCounter("song.search.iterations").Value(),
            batch.stats.iterations);
  EXPECT_EQ(registry.GetCounter("song.search.distance_computations").Value(),
            batch.stats.distance_computations);
  EXPECT_EQ(registry.GetCounter("song.search.visited_tests").Value(),
            batch.stats.visited_tests);
  EXPECT_EQ(registry.GetCounter("song.trace.sampled").Value(),
            batch.traces.size());
  EXPECT_EQ(registry.GetHistogram("song.query.latency_us").Count(),
            batch.num_queries);

  // Deterministic sampler: the same batch re-run samples the same queries.
  const BatchResult again = engine.Search(fx.queries, 10, options, telemetry);
  ASSERT_EQ(again.traces.size(), batch.traces.size());
  for (size_t i = 0; i < batch.traces.size(); ++i) {
    EXPECT_EQ(again.traces[i].query_id, batch.traces[i].query_id);
    EXPECT_EQ(again.traces[i].rows.size(), batch.traces[i].rows.size());
  }
}

// With every query traced, the per-query stage spans priced through
// StageUnitCosts must sum to the same stage attribution the analytic model
// reports for the batch — the Chrome-trace acceptance invariant (<1%).
TEST(TraceIntegration, TraceSpansMatchCostModelAttribution) {
  const Fixture& fx = Fixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  const GpuSpec spec = GpuSpec::V100();

  for (const SongSearchOptions& options :
       {SongSearchOptions::HashTable(), SongSearchOptions::HashTableSelDel(),
        SongSearchOptions::Cuckoo()}) {
    obs::MetricsRegistry registry;
    BatchTelemetry telemetry;
    telemetry.registry = &registry;
    telemetry.trace_sample_period = 1;
    const SimulatedRun run = SimulateBatch(searcher, fx.queries, 10, options,
                                           spec, /*num_threads=*/2,
                                           telemetry);
    ASSERT_EQ(run.batch.traces.size(), fx.queries.num());

    const CostModel model(spec);
    const StageUnitCosts unit =
        model.UnitCosts(run.shape, run.gpu.visited_in_shared);
    TraceStageCycles total;
    for (const obs::SearchTrace& t : run.batch.traces) {
      const TraceStageCycles c = model.PriceTrace(t, unit);
      total.locate += c.locate;
      total.distance += c.distance;
      total.maintain += c.maintain;
    }
    ASSERT_GT(total.Total(), 0.0);
    ASSERT_GT(run.gpu.kernel_seconds, 0.0);

    // Stage shares of the traced spans vs the model's attribution.
    const double span_locate = total.locate / total.Total();
    const double span_distance = total.distance / total.Total();
    const double span_maintain = total.maintain / total.Total();
    EXPECT_NEAR(span_locate, run.gpu.locate_seconds / run.gpu.kernel_seconds,
                0.01)
        << options.Name();
    EXPECT_NEAR(span_distance,
                run.gpu.distance_seconds / run.gpu.kernel_seconds, 0.01)
        << options.Name();
    EXPECT_NEAR(span_maintain,
                run.gpu.maintain_seconds / run.gpu.kernel_seconds, 0.01)
        << options.Name();

    // The stage seconds themselves partition the kernel time.
    EXPECT_NEAR(run.gpu.locate_seconds + run.gpu.distance_seconds +
                    run.gpu.maintain_seconds,
                run.gpu.kernel_seconds, 0.01 * run.gpu.kernel_seconds);

    // The exporters accept the run end-to-end (format sanity; full schema
    // validation lives in tools/validate_telemetry.py).
    obs::ChromeTraceContext context;
    context.model = &model;
    context.shape = run.shape;
    context.breakdown = run.gpu;
    context.num_queries = run.batch.num_queries;
    const std::string chrome =
        obs::TracesToChromeJson(run.batch.traces, context);
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("\"otherData\""), std::string::npos);
    const std::string prom = obs::MetricsToPrometheusText(registry);
    EXPECT_NE(prom.find("song_search_distance_computations"),
              std::string::npos);
    const std::string json = obs::MetricsToJson(registry);
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  }
}

}  // namespace
}  // namespace song
