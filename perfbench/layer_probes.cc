// Per-layer numbers for traced runs: derivations from the spans and work
// counters a workload's own phases recorded, and short probes that drive
// the layers a workload's phases do not reach, on the workload's own index.

#include <algorithm>
#include <string>

#include "baselines/hnsw.h"
#include "core/random.h"
#include "core/simd.h"
#include "gpusim/cost_model.h"
#include "gpusim/gpu_spec.h"
#include "song/batch_engine.h"
#include "song/mutable_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

double PerQuery(size_t total, size_t queries) {
  return static_cast<double>(total) / static_cast<double>(queries);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

void ReportGraphLayer(const FixedDegreeGraph& graph, const Tracer& tracer,
                      Report* report) {
  const double build_s = Median(tracer.DurationsNs("NswBuilder::Build")) * 1e-9;
  size_t edges = 0;
  for (idx_t v = 0; v < graph.num_vertices(); ++v) {
    edges += graph.NeighborCount(v);
  }
  report->Set("graph.build_s", build_s);
  report->Set("graph.points_per_s",
              static_cast<double>(graph.num_vertices()) / build_s);
  report->Set("graph.mean_out_degree",
              PerQuery(edges, graph.num_vertices()));
}

void ProbeCore(const Dataset& points, Metric metric, Report* report,
               SpanLog* log) {
  constexpr size_t kQueryRows = 256;
  constexpr size_t kIds = 4096;
  constexpr size_t kBatch = 16;  ///< one adjacency row of candidates
  const song::BatchDistance distance(metric, &points);
  song::RandomEngine rng(0x636f7265);  // "core"
  std::vector<idx_t> ids(kIds);
  for (idx_t& id : ids) id = static_cast<idx_t>(rng.NextUint(points.num()));
  std::vector<float> out(kBatch);
  std::vector<double> ns_per_pair;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(log, "BatchDistance::ComputeBatch", "core");
    const int64_t start = NowNs();
    for (size_t q = 0; q < kQueryRows; ++q) {
      const float* query = points.Row(static_cast<idx_t>(q % points.num()));
      const float norm = distance.QueryNormSqr(query);
      for (size_t i = 0; i < kIds; i += kBatch) {
        distance.ComputeBatch(query, norm, ids.data() + i, kBatch, out.data());
      }
    }
    ns_per_pair.push_back(static_cast<double>(NowNs() - start) /
                          static_cast<double>(kQueryRows * kIds));
  }
  report->Set("core.distance_ns_per_pair", Median(ns_per_pair));
  report->Set("core.simd_tier", static_cast<double>(song::ActiveSimdTier()));
}

void ReportSearchLayer(const Sweep& sweep, const SweepPoint& point,
                       const Tracer& tracer, const char* span_name,
                       Report* report) {
  const std::vector<double> ns =
      tracer.DurationsNs(span_name, static_cast<int64_t>(point.ef));
  const size_t q = sweep.num_queries;
  const SearchStats& s = point.stats;
  report->Set("song.search.ns_p50", Percentile(ns, 50.0));
  report->Set("song.search.ns_p99", Percentile(ns, 99.0));
  report->Set("song.search.iterations", PerQuery(s.iterations, q));
  report->Set("song.search.distances", PerQuery(s.distance_computations, q));
  report->Set("song.search.visited_tests", PerQuery(s.visited_tests, q));
  report->Set("song.search.queue_pushes", PerQuery(s.q_pushes, q));
  report->Set("song.search.graph_bytes", PerQuery(s.graph_bytes_loaded, q));
  report->Set("song.search.data_bytes", PerQuery(s.data_bytes_loaded, q));
  report->Set("song.search.queue_admit_ratio",
              s.distance_computations > 0
                  ? static_cast<double>(s.q_pushes) /
                        static_cast<double>(s.distance_computations)
                  : 0.0);
  // An estimate: Stage-2 time as if every distance cost what the core
  // probe measured, over the measured time per query.
  report->Set("song.search.stage2_est_share",
              PerQuery(s.distance_computations, q) *
                  report->Get("core.distance_ns_per_pair") / Mean(ns));
}

void ReportGpusim(const Sweep& sweep, const SweepPoint& point,
                  const Inputs& inputs, size_t degree,
                  const SongSearchOptions& base, Report* report) {
  const song::CostModel model(song::GpuSpec::V100());
  const auto price = [&](const SweepPoint& p) {
    song::WorkloadShape shape;
    shape.num_queries = sweep.num_queries;
    shape.dim = inputs.points.dim();
    shape.point_bytes = inputs.points.dim() * sizeof(float);
    shape.k = kTopK;
    shape.queue_size = p.ef;
    shape.degree = degree;
    shape.multi_query = base.multi_query;
    shape.multi_step = base.multi_step_probe;
    // The CPU-only epoch array has no GPU form; price the paper's table.
    shape.structure = base.structure == song::VisitedStructure::kEpochArray
                          ? song::VisitedStructure::kHashTable
                          : base.structure;
    return model.Estimate(p.stats, shape);
  };
  report->Set("gpusim.v100_qps_at_recall_0.95",
              sweep.AtRecall(0.95, [&](const SweepPoint& p) {
                return price(p).Qps(sweep.num_queries);
              }));
  const song::KernelBreakdown stages = price(point);
  report->Set("gpusim.locate_share", stages.LocatePct() / 100.0);
  report->Set("gpusim.distance_share", stages.DistancePct() / 100.0);
  report->Set("gpusim.maintain_share", stages.MaintainPct() / 100.0);
}

void ReportEngineLayer(const EngineRun& engine, const SweepPoint& point,
                       size_t nproc, Report* report) {
  report->Set("song.engine.scaling_efficiency",
              engine.qps() / (static_cast<double>(nproc) * point.qps()));
  report->Set("song.engine.latency_p99_us", engine.p99_us());
}

void ProbeEngine(const song::SongSearcher& searcher, const Dataset& queries,
                 const SongSearchOptions& options, const SweepPoint& point,
                 size_t nproc, double budget_s, Report* report, SpanLog* log) {
  const song::BatchEngine batch_engine(&searcher, nproc);
  EngineRun engine;
  const int64_t start = NowNs();
  while (engine.passes < 3 || SecondsSince(start) < budget_s) {
    EnginePass(batch_engine, queries, options, point.ids, &engine, report,
               log);
  }
  ReportEngineLayer(engine, point, nproc, report);
}

void ProbeHnsw(const Inputs& inputs, const IdLists& truth, Report* report,
               SpanLog* log) {
  song::HnswBuildOptions options;
  options.num_threads = 1;
  std::unique_ptr<song::Hnsw> hnsw;
  {
    ScopedSpan span(log, "Hnsw::Hnsw", "baselines");
    hnsw = std::make_unique<song::Hnsw>(&inputs.points, inputs.metric,
                                        options);
  }
  Sweep sweep;
  sweep.num_queries = inputs.queries.num();
  for (const size_t ef : {10, 16, 24, 32, 48, 64, 96, 128, 192, 256}) {
    SweepPoint point;
    point.ef = ef;
    for (int pass = 0; pass < 3; ++pass) {
      IdLists ids(inputs.queries.num());
      std::vector<double> call_us(inputs.queries.num());
      for (size_t q = 0; q < inputs.queries.num(); ++q) {
        const int64_t t0 = NowNs();
        ScopedSpan span(log, "Hnsw::Search", "baselines", q);
        ids[q] = IdsOf(
            hnsw->Search(inputs.queries.Row(static_cast<idx_t>(q)), kTopK, ef));
        call_us[q] = static_cast<double>(NowNs() - t0) * 1e-3;
      }
      KeepBest(call_us, &point.best_us);
      point.recall = MeanRecall(ids, truth);
    }
    sweep.points.push_back(std::move(point));
    if (sweep.points.back().recall >= 0.95) break;
  }
  report->Set("baselines.hnsw_qps_at_recall_0.95", sweep.QpsAtRecall(0.95));
}

void ProbeIndex(const Inputs& inputs, const FixedDegreeGraph& graph,
                size_t ef, const Tracer& tracer, Report* report,
                SpanLog* log) {
  constexpr size_t kOps = 40;  ///< inserts, and as many deletes
  song::MutableIndex index(inputs.metric, inputs.points.dim());
  if (!index.AdoptFrozen(inputs.points.CopyGrown(inputs.points.num()), graph)
           .ok()) {
    report->Invalid("MutableIndex::AdoptFrozen failed");
    return;
  }
  SongSearchOptions options = SongSearchOptions::CpuEngineered();
  options.queue_size = ef;
  const auto distances = [&] {
    const std::shared_ptr<const song::IndexSnapshot> snapshot = index.Acquire();
    song::SongWorkspace workspace;
    SearchStats stats;
    for (size_t q = 0; q < inputs.queries.num(); ++q) {
      snapshot->Search(inputs.queries.Row(static_cast<idx_t>(q)), kTopK,
                       options, &workspace, &stats);
    }
    return static_cast<double>(stats.distance_computations);
  };
  const double fresh = distances();
  song::RandomEngine rng(0x696e646578);  // "index"
  size_t retired_max = 0;
  // A reader's pin held throughout, so retired versions are kept as they
  // would be beside a slow reader.
  const std::shared_ptr<const song::IndexSnapshot> pinned = index.Acquire();
  for (size_t i = 0; i < kOps; ++i) {
    const float* row =
        inputs.queries.Row(static_cast<idx_t>(i % inputs.queries.num()));
    song::StatusOr<idx_t> inserted = [&] {
      ScopedSpan span(log, "MutableIndex::Insert", "song.index", i);
      return index.Insert(row);
    }();
    if (!inserted.ok()) report->Failed("MutableIndex::Insert failed");
    report->Attempted();
    // Distinct victims: one per stride of the original ids.
    const idx_t victim = static_cast<idx_t>(
        1 + i * ((inputs.points.num() - 1) / kOps) +
        rng.NextUint((inputs.points.num() - 1) / kOps));
    song::Status deleted = [&] {
      ScopedSpan span(log, "MutableIndex::Delete", "song.index", i);
      return index.Delete(victim);
    }();
    if (!deleted.ok()) report->Failed("MutableIndex::Delete failed");
    report->Attempted();
    retired_max = std::max(retired_max, index.retired_versions());
  }
  for (size_t i = 0; i < 2000; ++i) {
    ScopedSpan span(log, "MutableIndex::Acquire", "song.index", i);
    std::shared_ptr<const song::IndexSnapshot> snapshot = index.Acquire();
  }
  const double churned = distances();
  report->Set("song.index.churn_distance_ratio", churned / fresh);
  report->Set("song.index.retired_versions_max",
              static_cast<double>(retired_max));
  ReportIndexSpans(tracer, report);
}

void ReportIndexSpans(const Tracer& tracer, Report* report) {
  const auto us = [&](const char* name, double p) {
    return Percentile(tracer.DurationsNs(name), p) * 1e-3;
  };
  report->Set("song.index.insert_us_p50", us("MutableIndex::Insert", 50.0));
  report->Set("song.index.insert_us_p99", us("MutableIndex::Insert", 99.0));
  report->Set("song.index.delete_us_p50", us("MutableIndex::Delete", 50.0));
  report->Set("song.index.acquire_ns_p99",
              us("MutableIndex::Acquire", 99.0) * 1e3);
}

void ProbeServe(const RunConfig& config, const Inputs& inputs,
                const FixedDegreeGraph& graph, const IdLists& truth,
                size_t ef, Report* report, SpanLog* log) {
  const std::string dir = config.work_dir + "/probe-serve";
  if (!SaveIndex(inputs, graph, dir)) {
    report->Invalid("cannot write the index files");
    return;
  }
  std::unique_ptr<ServerProcess> server = StartServer(config, inputs, dir);
  if (server == nullptr) {
    report->Invalid("song_server did not start");
    return;
  }
  const song::SongSearcher searcher(&inputs.points, &graph, inputs.metric);
  SongSearchOptions options = SongSearchOptions::HashTableSelDel();
  options.queue_size = ef;
  song::SongWorkspace workspace;
  IdLists expected(inputs.queries.num());
  for (size_t q = 0; q < inputs.queries.num(); ++q) {
    expected[q] = IdsOf(searcher.Search(
        inputs.queries.Row(static_cast<idx_t>(q)), kTopK, options, &workspace));
  }
  ServePlan plan;
  plan.closed1_s = 1.0;
  plan.open_rate = 200.0;
  plan.open_s = 1.0;
  plan.window = 16;
  plan.window_s = 1.0;
  RunServePlan(std::move(server), inputs, expected, truth,
               static_cast<uint32_t>(ef), plan, nullptr, report, log);
}

void ReportSelfTimes(const RunConfig& config, const Tracer& tracer,
                     Report* report) {
  const double wall = tracer.WallNs();
  for (const char* layer : {"graph", "song.search", "song.engine",
                            "song.index", "serve", "baselines"}) {
    report->Set(std::string(layer) + ".self_share",
                tracer.SelfNs(layer) / wall);
  }
  if (!config.trace_out.empty() && !tracer.WriteJson(config.trace_out)) {
    report->Invalid("cannot write " + config.trace_out);
  }
}

void ReportTraceOverhead(const SearchFn& search, const Dataset& queries,
                         const SongSearchOptions& options,
                         const char* span_name, const char* layer,
                         Report* report) {
  Tracer spans(true);
  SpanLog* log = spans.NewLog();
  std::vector<double> traced;
  std::vector<double> untraced;
  for (int rep = 0; rep < 5; ++rep) {
    for (SpanLog* pass_log : {static_cast<SpanLog*>(nullptr), log}) {
      const int64_t start = NowNs();
      for (size_t q = 0; q < queries.num(); ++q) {
        ScopedSpan span(pass_log, span_name, layer, q);
        search(queries.Row(static_cast<idx_t>(q)), kTopK, options, nullptr);
      }
      (pass_log == nullptr ? untraced : traced).push_back(SecondsSince(start));
    }
  }
  report->Set("trace.overhead_ratio", Median(traced) / Median(untraced));
}

}  // namespace perfbench
