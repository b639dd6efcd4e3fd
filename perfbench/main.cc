// song_perfbench — the repository benchmark program (README.md).
//
//   song_perfbench --workload batch-clustered|serve-highdim|churn
//                  --seed N --seconds S --trace 0|1
//                  --server-bin path/to/song_server --work-dir dir
//                  [--trace-out spans.json]
//
// Prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 on any wrong answer, recall floor miss, outcome
// conservation violation or determinism violation; 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;
using perfbench::Tracer;
using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"recall_at_10", "ratio"},
    {"qps_at_recall_0.90", "1/s"},
    {"qps_at_recall_0.95", "1/s"},
    {"saturated_qps", "1/s"},
    {"closed1_p50_us", "us"},
    {"closed1_p90_us", "us"},
    {"loaded_p50_us", "us"},
    {"insert_per_s", "1/s"},
};

const MetricList kPerLayer = {
    {"graph.build_s", "s"},
    {"graph.points_per_s", "1/s"},
    {"graph.mean_out_degree", "count"},
    {"core.distance_ns_per_pair", "ns"},
    {"core.simd_tier", "tier"},
    {"song.search.ns_p50", "ns"},
    {"song.search.ns_p99", "ns"},
    {"song.search.iterations", "count"},
    {"song.search.distances", "count"},
    {"song.search.visited_tests", "count"},
    {"song.search.queue_pushes", "count"},
    {"song.search.graph_bytes", "B"},
    {"song.search.data_bytes", "B"},
    {"song.search.queue_admit_ratio", "ratio"},
    {"song.search.stage2_est_share", "ratio"},
    {"song.engine.scaling_efficiency", "ratio"},
    {"song.engine.latency_p99_us", "us"},
    {"serve.closed1_p99_us", "us"},
    {"serve.open_p99_us", "us"},
    {"serve.search_us_p50", "us"},
    {"serve.search_us_p99", "us"},
    {"serve.queue_us_p50", "us"},
    {"serve.unattributed_us_p50", "us"},
    {"serve.batch_form_us_p50", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.shed_share", "ratio"},
    {"serve.generator_late_us_p99", "us"},
    {"song.index.insert_us_p50", "us"},
    {"song.index.insert_us_p99", "us"},
    {"song.index.delete_us_p50", "us"},
    {"song.index.acquire_ns_p99", "ns"},
    {"song.index.churn_distance_ratio", "ratio"},
    {"song.index.retired_versions_max", "count"},
    {"baselines.hnsw_qps_at_recall_0.95", "1/s"},
    {"gpusim.v100_qps_at_recall_0.95", "1/s"},
    {"gpusim.locate_share", "ratio"},
    {"gpusim.distance_share", "ratio"},
    {"gpusim.maintain_share", "ratio"},
    {"graph.self_share", "ratio"},
    {"song.search.self_share", "ratio"},
    {"song.engine.self_share", "ratio"},
    {"song.index.self_share", "ratio"},
    {"serve.self_share", "ratio"},
    {"baselines.self_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "song_perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--server-bin") {
      config.server_bin = value;
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) Usage("flags come in --name value pairs");
  if (config.seconds <= 0.0) Usage("--seconds must be positive");
  if (config.server_bin.empty() || config.work_dir.empty()) {
    Usage("--server-bin and --work-dir are required");
  }
  config.nproc = std::max(1u, std::thread::hardware_concurrency());

  Tracer tracer(config.trace);
  Report report;
  if (config.workload == "batch-clustered") {
    perfbench::RunBatchClustered(config, &tracer, &report);
  } else if (config.workload == "serve-highdim") {
    perfbench::RunServeHighdim(config, &tracer, &report);
  } else if (config.workload == "churn") {
    perfbench::RunChurn(config, &tracer, &report);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  const MetricList& names = config.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : names) {
    if (!report.Has(name)) report.Invalid("metric " + name + " not measured");
  }
  std::printf("%s\n", report.Json(names).c_str());
  return report.correct() ? 0 : 1;
}
