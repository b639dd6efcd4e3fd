// Request-lifecycle observability tests: RequestTimeline stage clamping and
// the telescoping total, RequestRecord::Make, the song.req.* metric family,
// bit-identity of the checked paths with telemetry off, lifecycle records
// emitted through BatchEngine / SongSearcher / IndexSnapshot (with the MVCC
// snapshot version stamped in), and budget terminations surfacing in
// SearchTrace and the trace exporters.

#include "obs/request_timeline.h"

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "gtest/gtest.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "song/batch_engine.h"
#include "song/mutable_index.h"
#include "song/song_searcher.h"

namespace song {
namespace {

struct LifecycleFixture {
  Dataset data;
  Dataset queries;
  FixedDegreeGraph graph;

  static const LifecycleFixture& Get() {
    static LifecycleFixture* f = [] {
      auto* fx = new LifecycleFixture();
      SyntheticSpec spec;
      spec.name = "lifecycle";
      spec.dim = 12;
      spec.num_points = 1500;
      spec.num_queries = 12;
      spec.seed = 4242;
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

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dist != b[i].dist) return false;
  }
  return true;
}

TEST(RequestTimeline, StagesClampToZeroAndTotalTelescopes) {
  obs::RequestTimeline tl;
  tl.enqueue_us = 0.0;
  tl.batched_us = 4.0;
  tl.search_begin_us = 5.5;
  tl.complete_us = 105.5;
  // Queue wait runs to the worker's claim, batch formation from the claim
  // to the search's start.
  EXPECT_FLOAT_EQ(tl.QueueUs(), 4.0f);
  EXPECT_FLOAT_EQ(tl.BatchFormUs(), 1.5f);
  EXPECT_FLOAT_EQ(tl.SearchUs(), 100.0f);
  // TotalUs is defined as the float sum of the stages, so the telescoping
  // identity the validator enforces holds exactly per record.
  EXPECT_FLOAT_EQ(tl.TotalUs(), tl.QueueUs() + tl.BatchFormUs() +
                                    tl.SearchUs());

  // A stage whose end stamp precedes its begin stamp (clock skew, or a
  // stamp left at its epoch default) clamps to zero instead of going
  // negative — histograms must never see a negative duration.
  obs::RequestTimeline skewed;
  skewed.enqueue_us = 10.0;
  skewed.batched_us = 12.0;
  skewed.search_begin_us = 11.0;  // before batched: clamps
  skewed.complete_us = 11.5;
  EXPECT_FLOAT_EQ(skewed.QueueUs(), 2.0f);
  EXPECT_FLOAT_EQ(skewed.BatchFormUs(), 0.0f);
  EXPECT_FLOAT_EQ(skewed.SearchUs(), 0.5f);
  EXPECT_FLOAT_EQ(skewed.TotalUs(), 2.5f);
}

TEST(RequestRecord, MakePopulatesEveryField) {
  obs::RequestTimeline tl;
  tl.batched_us = 1.0;
  tl.search_begin_us = 2.0;
  tl.complete_us = 5.0;
  const obs::RequestRecord r = obs::RequestRecord::Make(
      99, 0xdeadbeefull, tl, StatusCode::kResourceExhausted,
      /*degraded=*/true, /*rejected=*/false, /*snapshot_version=*/12);
  EXPECT_EQ(r.request_id, 99u);
  EXPECT_EQ(r.options_digest, 0xdeadbeefull);
  EXPECT_EQ(r.snapshot_version, 12u);
  EXPECT_FLOAT_EQ(r.queue_us, 1.0f);
  EXPECT_FLOAT_EQ(r.batch_form_us, 1.0f);
  EXPECT_FLOAT_EQ(r.search_us, 3.0f);
  EXPECT_FLOAT_EQ(r.total_us, 5.0f);
  EXPECT_EQ(r.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.degraded, 1u);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(RequestRecord, OptionsDigestIsPinned) {
  // Flight-recorder records identify a request's configuration by this
  // digest, so its value must not move when its implementation does.
  EXPECT_EQ(SongSearchOptions{}.Digest(10), 17442487790434987951ull);
  EXPECT_EQ(SongSearchOptions::CpuEngineered().Digest(10),
            4107961467957598668ull);
  EXPECT_NE(SongSearchOptions{}.Digest(10), SongSearchOptions{}.Digest(11));
}

TEST(RequestMetricsFamily, HistogramsTelescopeAndOutcomesCount) {
  obs::MetricsRegistry registry;
  const obs::RequestMetrics metrics(&registry);
  ASSERT_TRUE(metrics.enabled());

  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 500.0);
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    obs::RequestTimeline tl;
    tl.batched_us = dist(rng);
    tl.search_begin_us = tl.batched_us + dist(rng);
    tl.complete_us = tl.search_begin_us + dist(rng);
    const StatusCode code =
        (i % 5 == 0) ? StatusCode::kUnavailable : StatusCode::kOk;
    metrics.Record(obs::RequestRecord::Make(i, 0x1, tl, code,
                                            /*degraded=*/false,
                                            /*rejected=*/false));
  }

  auto& queue = registry.GetHistogram("song.req.queue_us");
  auto& batch_form = registry.GetHistogram("song.req.batch_form_us");
  auto& search = registry.GetHistogram("song.req.search_us");
  auto& total = registry.GetHistogram("song.req.total_us");
  EXPECT_EQ(queue.Count(), kRecords);
  EXPECT_EQ(batch_form.Count(), kRecords);
  EXPECT_EQ(search.Count(), kRecords);
  EXPECT_EQ(total.Count(), kRecords);
  // The invariant tools/validate_telemetry.py checks on every --statusz
  // dump: stage sums telescope to the total within float-rounding slack.
  EXPECT_NEAR(queue.Sum() + batch_form.Sum() + search.Sum(), total.Sum(),
              total.Sum() * 1e-3);

  EXPECT_EQ(registry.GetCounter("song.req.outcome.ok").Value(),
            static_cast<uint64_t>(kRecords - kRecords / 5));
  EXPECT_EQ(registry.GetCounter("song.req.outcome.unavailable").Value(),
            static_cast<uint64_t>(kRecords / 5));
}

TEST(RequestMetricsFamily, NullRegistryIsANoop) {
  const obs::RequestMetrics metrics(nullptr);
  EXPECT_FALSE(metrics.enabled());
  obs::RequestTimeline tl;
  tl.complete_us = 5.0;
  metrics.Record(obs::RequestRecord::Make(1, 0x1, tl, StatusCode::kOk,
                                          false, false));  // must not crash
}

TEST(BatchLifecycle, TelemetryOffIsBitIdenticalToPlainSearch) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 2);
  SongSearchOptions options;
  options.queue_size = 64;

  const BatchResult plain = engine.Search(fx.queries, 10, options);

  // Telemetry fully off (default BatchTelemetry{}).
  const auto off = engine.TrySearch(fx.queries, 10, options);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // Telemetry fully on: registry + flight recorder armed.
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(64);
  BatchTelemetry telemetry;
  telemetry.registry = &registry;
  telemetry.flight_recorder = &recorder;
  const auto on = engine.TrySearch(fx.queries, 10, options, telemetry);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  ASSERT_EQ(plain.results.size(), fx.queries.num());
  for (size_t q = 0; q < fx.queries.num(); ++q) {
    EXPECT_TRUE(SameNeighbors(plain.results[q], off->results[q]))
        << "telemetry-off TrySearch diverged at query " << q;
    EXPECT_TRUE(SameNeighbors(plain.results[q], on->results[q]))
        << "telemetry-on TrySearch diverged at query " << q;
  }

  // The armed run recorded one lifecycle record per query, all OK, with
  // the song.req.* histogram family populated to match.
  EXPECT_EQ(recorder.total_recorded(), fx.queries.num());
  EXPECT_EQ(registry.GetHistogram("song.req.total_us").Count(),
            fx.queries.num());
  EXPECT_EQ(registry.GetCounter("song.req.outcome.ok").Value(),
            fx.queries.num());
  for (const obs::RequestRecord& r : recorder.Snapshot()) {
    EXPECT_EQ(r.code(), StatusCode::kOk);
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_FLOAT_EQ(r.total_us,
                    r.queue_us + r.batch_form_us + r.search_us);
  }
}

TEST(BatchLifecycle, RejectedQueryLandsInRingAsInvalidArgument) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);

  Dataset mixed(2, fx.data.dim());
  std::vector<float> row(fx.data.dim());
  for (size_t d = 0; d < row.size(); ++d) row[d] = fx.queries.Row(0)[d];
  mixed.SetRow(0, row.data());
  row[1] = std::numeric_limits<float>::quiet_NaN();
  mixed.SetRow(1, row.data());

  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(16);
  BatchTelemetry telemetry;
  telemetry.registry = &registry;
  telemetry.flight_recorder = &recorder;
  const auto result = engine.TrySearch(mixed, 5, SongSearchOptions{},
                                       telemetry);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->queries_rejected, 1u);

  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  size_t rejected_seen = 0;
  for (const obs::RequestRecord& r : records) {
    if (r.rejected) {
      ++rejected_seen;
      EXPECT_EQ(r.code(), StatusCode::kInvalidArgument);
      EXPECT_FLOAT_EQ(r.search_us, 0.0f);  // never reached the searcher
    } else {
      EXPECT_EQ(r.code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(rejected_seen, 1u);
  EXPECT_EQ(registry.GetCounter("song.req.outcome.invalid_argument").Value(),
            1u);
}

TEST(BatchLifecycle, BatchRefusalEmitsOneTurnedAwayRecord) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  BatchEngine engine(&searcher, 1);

  obs::FlightRecorder recorder(16);
  BatchTelemetry telemetry;
  telemetry.flight_recorder = &recorder;
  const auto refused = engine.TrySearch(fx.queries, 0, SongSearchOptions{},
                                        telemetry);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(records[0].rejected, 1u);
}

TEST(SingleQueryLifecycle, ObserverEmitsRecordAndNullObserverIsIdentical) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 48;
  SongWorkspace ws;

  const std::vector<Neighbor> plain =
      searcher.Search(fx.queries.Row(0), 10, options, &ws);
  const auto unobserved =
      searcher.TrySearch(fx.queries.Row(0), 10, options, &ws);
  ASSERT_TRUE(unobserved.ok());
  EXPECT_TRUE(SameNeighbors(plain, *unobserved));

  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(8);
  const obs::RequestMetrics metrics(&registry);
  obs::RequestObserver observer;
  observer.metrics = &metrics;
  observer.recorder = &recorder;
  observer.request_id = 321;
  observer.queue_us = 7.5f;
  observer.batch_form_us = 1.5f;
  const auto observed = searcher.TrySearch(fx.queries.Row(0), 10, options,
                                           &ws, nullptr, nullptr, nullptr,
                                           &observer);
  ASSERT_TRUE(observed.ok());
  EXPECT_TRUE(SameNeighbors(plain, *observed));

  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].request_id, 321u);
  EXPECT_EQ(records[0].snapshot_version, 0u);  // frozen index
  EXPECT_FLOAT_EQ(records[0].queue_us, 7.5f);
  EXPECT_FLOAT_EQ(records[0].batch_form_us, 1.5f);
  EXPECT_EQ(records[0].code(), StatusCode::kOk);
  EXPECT_EQ(registry.GetHistogram("song.req.search_us").Count(), 1u);

  // A validation rejection still emits a record, with search_us = 0.
  std::vector<float> bad(fx.data.dim(), 1.0f);
  bad[0] = std::numeric_limits<float>::infinity();
  observer.request_id = 322;
  const auto rejected = searcher.TrySearch(bad.data(), 10, options, &ws,
                                           nullptr, nullptr, nullptr,
                                           &observer);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const std::vector<obs::RequestRecord> after = recorder.Snapshot();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].request_id, 322u);
  EXPECT_EQ(after[1].rejected, 1u);
  EXPECT_FLOAT_EQ(after[1].search_us, 0.0f);
}

TEST(SingleQueryLifecycle, SnapshotVersionIsStampedIntoRecords) {
  constexpr size_t kDim = 8;
  MutableIndex index(Metric::kL2, kDim);
  std::mt19937 rng(2026);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> point(kDim);
  for (size_t i = 0; i < 80; ++i) {
    for (float& v : point) v = dist(rng);
    ASSERT_TRUE(index.Insert(point.data()).ok());
  }
  ASSERT_TRUE(index.Delete(3).ok());

  const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
  ASSERT_GT(snapshot->version(), 0u);

  obs::FlightRecorder recorder(8);
  obs::RequestObserver observer;
  observer.recorder = &recorder;
  observer.request_id = 77;

  std::vector<float> query(kDim);
  for (float& v : query) v = dist(rng);
  SongWorkspace ws;
  SongSearchOptions options;
  options.queue_size = 32;
  const auto result = snapshot->TrySearch(query.data(), 5, options, &ws,
                                          nullptr, nullptr, &observer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].request_id, 77u);
  EXPECT_EQ(records[0].snapshot_version, snapshot->version());
  EXPECT_EQ(records[0].code(), StatusCode::kOk);
}

TEST(BudgetTermination, CostBudgetIsStampedIntoTraceAndExport) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 64;
  options.cost_budget = 1;  // deterministic: always terminates the loop
  SongWorkspace ws;
  bool degraded = false;
  obs::SearchTrace trace;
  searcher.Search(fx.queries.Row(0), 10, options, &ws, nullptr, &trace,
                  &degraded);
  EXPECT_TRUE(degraded);
  EXPECT_EQ(trace.termination, obs::TraceTermination::kCostBudget);

  const std::string json = obs::TracesToJson({trace});
  EXPECT_NE(json.find("\"termination\": \"cost_budget\""), std::string::npos)
      << json;
}

TEST(BudgetTermination, DeadlineTerminationIsConsistentWithDegraded) {
  const LifecycleFixture& fx = LifecycleFixture::Get();
  SongSearcher searcher(&fx.data, &fx.graph, Metric::kL2);
  SongSearchOptions options;
  options.queue_size = 4096;  // enough work that 1us cannot finish it
  options.deadline_us = 1;
  SongWorkspace ws;
  bool degraded = false;
  obs::SearchTrace trace;
  searcher.Search(fx.queries.Row(0), 10, options, &ws, nullptr, &trace,
                  &degraded);
  // A fast machine may finish an iteration before the first deadline
  // check; the trace termination must agree with the degraded flag.
  if (degraded) {
    EXPECT_EQ(trace.termination, obs::TraceTermination::kDeadline);
  } else {
    EXPECT_EQ(trace.termination, obs::TraceTermination::kConverged);
  }

  // A converged search never carries a budget termination.
  SongSearchOptions unbudgeted;
  unbudgeted.queue_size = 48;
  obs::SearchTrace converged;
  bool degraded2 = false;
  searcher.Search(fx.queries.Row(0), 10, unbudgeted, &ws, nullptr,
                  &converged, &degraded2);
  EXPECT_FALSE(degraded2);
  EXPECT_EQ(converged.termination, obs::TraceTermination::kConverged);
}

}  // namespace
}  // namespace song
