// batch-clustered: nytimes-like vectors (256-d, cosine, clustered and
// Zipf-skewed) whose 16 MB exceed one core's 2 MiB L2. An in-process ef
// sweep at one search thread, then BatchEngine at every core, on a graph
// built with one build thread. No serving or mutation code runs.

#include <memory>

#include "song/batch_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kPoints = 16000;
constexpr size_t kQueries = 2000;
constexpr size_t kSetups = 3;
constexpr size_t kRateRows = 2000;  ///< of the BuildRate build, every round
constexpr double kRecallFloor = 0.95;  ///< the top ef must reach it
const std::vector<size_t> kEfs = {64, 96, 128, 160, 192, 256};
/// The swept ef whose recall is nearest above 0.95 on this corpus: the
/// latency and all-core phases run at it.
constexpr size_t kEf95 = 192;

}  // namespace

SearchFn SearcherFn(const song::SongSearcher* searcher) {
  auto workspace = std::make_shared<song::SongWorkspace>();
  return [searcher, workspace](const float* query, size_t k,
                               const SongSearchOptions& options,
                               SearchStats* stats) {
    return searcher->Search(query, k, options, workspace.get(), stats);
  };
}

void EnginePass(const song::BatchEngine& engine, const Dataset& queries,
                const SongSearchOptions& options, const IdLists& expected,
                EngineRun* run, Report* report, SpanLog* log) {
  song::BatchResult result;
  {
    ScopedSpan span(log, "BatchEngine::Search", "song.engine");
    result = engine.Search(queries, kTopK, options);
  }
  report->Attempted(result.num_queries);
  run->threads = engine.num_threads();
  ++run->passes;
  KeepBest(std::vector<double>(result.latencies_us.begin(),
                               result.latencies_us.end()),
           &run->best_us);
  for (size_t q = 0; q < result.results.size(); ++q) {
    if (IdsOf(result.results[q]) != expected[q]) {
      report->Failed("BatchEngine ids differ from one-thread "
                     "SongSearcher::Search for query " + std::to_string(q));
    }
  }
}

void RunBatchClustered(const RunConfig& config, Tracer* tracer,
                       Report* report) {
  SpanLog* log = tracer->NewLog();
  SetupLog setups;
  const auto set_up = [&](Inputs* inputs, FixedDegreeGraph* graph) {
    const int64_t t0 = NowNs();
    *inputs = Generate("nytimes", kPoints, kQueries, config.seed);
    *graph = BuildGraph(inputs->points, inputs->metric, log);
    setups.Add(SecondsSince(t0), *graph, report);
  };
  Inputs inputs;
  FixedDegreeGraph graph;
  set_up(&inputs, &graph);

  // Exact answers before any clock starts.
  const IdLists truth =
      ExactTopK(inputs.points, inputs.queries, inputs.metric, config.nproc);

  // Rounds of ~0.4 s of engine passes (all cores), one sweep pass (one
  // thread) and one kRateRows build in turn, with a repeated set-up every
  // fourth round, so every metric samples the same stretch of the host's
  // load.
  const song::SongSearcher searcher(&inputs.points, &graph, inputs.metric);
  const SongSearchOptions base = SongSearchOptions::CpuEngineered();
  const SearchFn search = SearcherFn(&searcher);
  Sweep sweep = RunSweep(search, inputs.queries, truth, kEfs, base, report, log,
                          "SongSearcher::Search", "song.search");
  const SweepPoint& at95 = sweep.At(kEf95);
  SongSearchOptions options = base;
  options.queue_size = kEf95;
  const song::BatchEngine batch_engine(&searcher, config.nproc);
  EngineRun engine;
  BuildRate build_rate(inputs.points, inputs.metric, kRateRows);
  double peak_rss_mb = 0.0;
  const int64_t start = NowNs();
  while (sweep.passes < 3 || setups.seconds.size() < kSetups ||
         SecondsSince(start) < 0.8 * config.seconds) {
    const int64_t round = NowNs();
    do {
      EnginePass(batch_engine, inputs.queries, options, at95.ids, &engine,
                 report, log);
    } while (SecondsSince(round) < 0.4);
    SweepPass(search, inputs.queries, truth, base, &sweep, report, log,
              "SongSearcher::Search", "song.search");
    build_rate.Sample();
    // The steady state, before a repeated set-up holds a second index.
    if (peak_rss_mb == 0.0) peak_rss_mb = ResidentMb("VmHWM:");
    if (setups.seconds.size() < kSetups && sweep.passes % 4 == 0) {
      Inputs again;
      FixedDegreeGraph rebuilt;
      set_up(&again, &rebuilt);
    }
  }
  report->Set("setup_s", Median(setups.seconds));
  report->Set("insert_per_s", build_rate.PointsPerSecond());
  report->Set("recall_at_10", sweep.points.back().recall);
  if (sweep.points.back().recall < kRecallFloor) {
    report->Invalid("recall at the top ef is below the floor");
  }
  report->Set("qps_at_recall_0.90", sweep.QpsAtRecall(0.90));
  report->Set("qps_at_recall_0.95", sweep.QpsAtRecall(0.95));
  report->Set("closed1_p50_us", at95.p50_us());
  report->Set("closed1_p90_us", at95.p90_us());
  report->Set("saturated_qps", engine.qps());
  report->Set("loaded_p50_us", engine.p50_us());
  report->Set("peak_rss_mb", peak_rss_mb);

  if (!config.trace) return;
  ReportGraphLayer(graph, *tracer, report);
  ProbeCore(inputs.points, inputs.metric, report, log);
  ReportSearchLayer(sweep, at95, *tracer, "SongSearcher::Search", report);
  ReportGpusim(sweep, at95, inputs, graph.degree(), base, report);
  ReportEngineLayer(engine, at95, config.nproc, report);
  ProbeHnsw(inputs, truth, report, log);
  ProbeIndex(inputs, graph, at95.ef, *tracer, report, log);
  ProbeServe(config, inputs, graph, truth, at95.ef, report, log);
  ReportTraceOverhead(search, inputs.queries, options,
                      "SongSearcher::Search", "song.search", report);
  ReportSelfTimes(config, *tracer, report);
}

}  // namespace perfbench
