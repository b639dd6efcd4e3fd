// The three workloads and the per-layer probes their traced runs share.
// Each workload sets every end-to-end metric; with tracing on it also sets
// every per-layer metric, driving the layers its own phases do not reach
// through short probes on the workload's own index (README.md).

#ifndef SONG_PERFBENCH_WORKLOADS_H_
#define SONG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve_client.h"
#include "song/batch_engine.h"
#include "song/song_searcher.h"
#include "trace.h"

namespace perfbench {

void RunBatchClustered(const RunConfig& config, Tracer* tracer,
                       Report* report);
void RunServeHighdim(const RunConfig& config, Tracer* tracer, Report* report);
void RunChurn(const RunConfig& config, Tracer* tracer, Report* report);

// --- Pieces shared between workloads and probes. ---------------------------

/// A SearchFn over a SongSearcher with a private workspace.
SearchFn SearcherFn(const song::SongSearcher* searcher);

/// BatchEngine::Search passes over the same queries: per query, its best
/// service time (us) at all engine threads (KeepBest). `qps()` is the rate of
/// every thread serving at those times, each on a core of its own, which the
/// wall clock of a shared host's few cores does not give (README.md).
struct EngineRun {
  size_t threads = 1;
  size_t passes = 0;
  std::vector<double> best_us;
  double qps() const { return static_cast<double>(threads) * RateOf(best_us); }
  double p50_us() const { return Percentile(best_us, 50.0); }
  double p99_us() const { return Percentile(best_us, 99.0); }
};
/// One pass over `queries`, appended to `run`; every answer must equal the
/// one-thread ids in `expected`.
void EnginePass(const song::BatchEngine& engine, const Dataset& queries,
                const SongSearchOptions& options, const IdLists& expected,
                EngineRun* run, Report* report, SpanLog* log);

/// The song_server phases (README.md, serve-highdim), run `rounds` times
/// in turn; each latency is the best quartile over rounds, saturated_qps
/// the top decile of the window loop's short slices.
struct ServePlan {
  size_t rounds = 1;
  double closed1_s = 0.0;  ///< per round, like the other durations
  double open_rate = 0.0;
  double open_s = 0.0;
  size_t window = 0;
  double window_s = 0.0;
};
struct ServeOutcome {
  double closed1_p50_us = 0.0;
  double closed1_p90_us = 0.0;
  double open_p50_us = 0.0;
  double saturated_qps = 0.0;
  double recall = 0.0;
  double peak_rss_mb = 0.0;
};

/// Writes the index files the server loads.
bool SaveIndex(const Inputs& inputs, const FixedDegreeGraph& graph,
               const std::string& dir);
/// Starts song_server on the files SaveIndex wrote.
std::unique_ptr<ServerProcess> StartServer(const RunConfig& config,
                                           const Inputs& inputs,
                                           const std::string& dir);
/// Runs `plan` against a started server, then stops it and checks the
/// DRAINED line. `expected` holds in-process ids at `ef` (HashTableSelDel,
/// the server's configuration). `between_rounds`, when set, runs before
/// each round with the round's index. With tracing, sets the serve.*
/// metrics.
ServeOutcome RunServePlan(std::unique_ptr<ServerProcess> server,
                          const Inputs& inputs, const IdLists& expected,
                          const IdLists& truth, uint32_t ef,
                          const ServePlan& plan,
                          const std::function<void(size_t)>& between_rounds,
                          Report* report, SpanLog* log);

// --- Per-layer probes and derivations (layer_probes.cc). -------------------

/// graph.* from the NswBuilder::Build spans of the setups.
void ReportGraphLayer(const FixedDegreeGraph& graph, const Tracer& tracer,
                      Report* report);
/// core.* : BatchDistance over the workload's own rows.
void ProbeCore(const Dataset& points, Metric metric, Report* report,
               SpanLog* log);
/// song.search.* from one swept point (the workload's ef95) and its spans.
void ReportSearchLayer(const Sweep& sweep, const SweepPoint& point,
                       const Tracer& tracer, const char* span_name,
                       Report* report);
/// gpusim.* : the V100 cost model priced from the sweep's counters; the
/// stage shares at `point`.
void ReportGpusim(const Sweep& sweep, const SweepPoint& point,
                  const Inputs& inputs, size_t degree,
                  const SongSearchOptions& base, Report* report);
/// song.engine.* from an engine run at the ef of `point`.
void ReportEngineLayer(const EngineRun& engine, const SweepPoint& point,
                       size_t nproc, Report* report);
/// Runs the engine for `budget_s` at the ef of `point`, then
/// ReportEngineLayer.
void ProbeEngine(const song::SongSearcher& searcher, const Dataset& queries,
                 const SongSearchOptions& options, const SweepPoint& point,
                 size_t nproc, double budget_s, Report* report, SpanLog* log);
/// baselines.* : single-thread HNSW swept to recall 0.95.
void ProbeHnsw(const Inputs& inputs, const IdLists& truth, Report* report,
               SpanLog* log);
/// song.index.* : a short insert/delete run on a MutableIndex adopting the
/// workload's index, with one snapshot pinned throughout.
void ProbeIndex(const Inputs& inputs, const FixedDegreeGraph& graph,
                size_t ef, const Tracer& tracer, Report* report,
                SpanLog* log);
/// song.index.{insert,delete,acquire} percentiles from their spans.
void ReportIndexSpans(const Tracer& tracer, Report* report);
/// serve.* : a short song_server run on the workload's index.
void ProbeServe(const RunConfig& config, const Inputs& inputs,
                const FixedDegreeGraph& graph, const IdLists& truth,
                size_t ef, Report* report, SpanLog* log);
/// <layer>.self_share for every measured layer, and the span dump.
void ReportSelfTimes(const RunConfig& config, const Tracer& tracer,
                     Report* report);
/// trace.overhead_ratio: traced / untraced wall time of the same passes.
void ReportTraceOverhead(const SearchFn& search, const Dataset& queries,
                         const SongSearchOptions& options,
                         const char* span_name, const char* layer,
                         Report* report);

}  // namespace perfbench

#endif  // SONG_PERFBENCH_WORKLOADS_H_
