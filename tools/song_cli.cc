// song_cli — command-line front end for the library.
//
//   song_cli gen      --preset sift --scale 0.5 --out data.sngd
//                     [--queries queries.sngd]
//   song_cli build    --data data.sngd --out graph.sngg [--degree 16]
//                     [--metric l2|ip|cosine] [--ef 100]
//   song_cli stats    --graph graph.sngg
//   song_cli gt       --data data.sngd --queries queries.sngd --k 100
//                     --out gt.sngd   (ids stored as float rows)
//   song_cli search   --data data.sngd --graph graph.sngg
//                     --queries queries.sngd [--k 10] [--queue 64]
//                     [--config hashtable|sel|seldel|bloom|cuckoo]
//                     [--reorder none|bfs]
//                     [--gt gt.sngd] [--gpu v100|p40|titanx]
//                     [--metrics out.prom] [--metrics-json out.json]
//                     [--trace out.trace.json] [--trace-sample 100]
//                     [--deadline-us N] [--cost-budget N]
//                     [--max-inflight N]  (with --mutate-spec only)
//                     [--fault-spec spec] [--fault-seed N]
//                     [--mutate-spec rounds=R,inserts=I,deletes=D[,seed=S]]
//                     [--pq m=<M>[,rerank=<R>][,save=<path>][,load=<path>]]
//                     [--statusz out.json] [--flight-recorder out.json]
//   song_cli version  (build info: SIMD tiers detected/compiled/active)
//
// Quantized traversal (docs/performance.md): --pq trains (or load=s) a
// product-quantizer codebook, runs Stage 2 over m-byte codes via a per-query
// ADC table, and reranks the final pool with exact distances (rerank= sets
// the pool size, 0 = auto). save= writes the trained codebook as a .sngq
// file for later load=. Incompatible with --mutate-spec.
//
// Online mutation (docs/testing.md): --mutate-spec adopts the loaded
// data/graph into a MutableIndex, applies R rounds of I inserts (noisy
// copies of random live points) and D tombstone deletes, then serves the
// queries from the final snapshot and reports recall against an exact scan
// of the live set. Incompatible with --reorder and --gt (both refer to the
// frozen point set, which mutation invalidates).
//
// Robustness (docs/robustness.md): --deadline-us / --cost-budget cap each
// query's work, returning best-so-far results tagged degraded;
// --fault-spec arms the deterministic fault registry (site=prob[@max],...
// — see core/fault_injection.h). Errors never raise exceptions: malformed
// flags exit 2, corrupt or missing inputs exit 1 with a Status diagnostic.
//
// Telemetry: --metrics / --metrics-json dump the batch's MetricsRegistry in
// Prometheus text / JSON. --trace writes sampled per-query Chrome trace_event
// JSON (open in chrome://tracing or ui.perfetto.dev); --trace-sample M keeps
// one query in M (default 1 = every query once --trace is given).
//
// Observability (docs/observability.md): --statusz writes a one-shot serving
// state dump (build info, SIMD tiers, fault registry, metrics, flight
// recorder) on success AND on failure; --flight-recorder dumps the ring of
// the last completed request records as JSON. Either flag arms the
// request-lifecycle pipeline (song.req.* histograms + flight recorder). When
// a fault-injection site fires during the run, the ring is also dumped to
// stderr as a post-mortem breadcrumb.
//
// Everything uses the library's binary formats (SNGD datasets, SNGG graphs).

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "baselines/flat_index.h"
#include "core/fault_injection.h"
#include "core/random.h"
#include "core/recall.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "core/timer.h"
#include "data/synthetic.h"
#include "gpusim/simulator.h"
#include "graph/graph_stats.h"
#include "graph/nsw_builder.h"
#include "graph/reorder.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "song/index_snapshot.h"
#include "song/mutable_index.h"
#include "song/song_searcher.h"

#ifndef SONG_GIT_DESCRIBE
#define SONG_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace song;  // NOLINT: CLI main file

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "1";
    }
  }
  return flags;
}

/// Rejects flags a command does not understand — a typo'd flag silently
/// falling back to a default is how bad benchmarks get published.
void CheckFlags(const Flags& flags, const char* cmd,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : flags) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s for command %s\n", key.c_str(),
                   cmd);
      std::exit(2);
    }
  }
}

std::string Require(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::string Optional(const Flags& flags, const std::string& key,
                     const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Strict non-negative integer flag parse; a trailing junk suffix or an
/// out-of-range value is a usage error (exit 2), not a silent zero.
uint64_t ParseUint(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const std::string value = Optional(flags, key, fallback);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || end == value.c_str() ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "flag --%s expects a non-negative integer, got \"%s\"\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  return v;
}

Metric ParseMetric(const std::string& name) {
  if (name == "l2") return Metric::kL2;
  if (name == "ip") return Metric::kInnerProduct;
  if (name == "cosine") return Metric::kCosine;
  std::fprintf(stderr, "unknown metric: %s\n", name.c_str());
  std::exit(2);
}

GpuSpec ParseGpu(const std::string& name) {
  if (name == "v100") return GpuSpec::V100();
  if (name == "p40") return GpuSpec::P40();
  if (name == "titanx") return GpuSpec::TitanX();
  std::fprintf(stderr, "unknown gpu: %s\n", name.c_str());
  std::exit(2);
}

SongSearchOptions ParseConfig(const std::string& name) {
  if (name == "hashtable") return SongSearchOptions::HashTable();
  if (name == "sel") return SongSearchOptions::HashTableSel();
  if (name == "seldel") return SongSearchOptions::HashTableSelDel();
  if (name == "bloom") return SongSearchOptions::Bloom();
  if (name == "cuckoo") return SongSearchOptions::Cuckoo();
  std::fprintf(stderr, "unknown config: %s\n", name.c_str());
  std::exit(2);
}

Dataset LoadDatasetOrDie(const std::string& path) {
  auto loaded = Dataset::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    std::exit(loaded.status().ExitCode());
  }
  return std::move(loaded.value());
}

int CmdGen(const Flags& flags) {
  CheckFlags(flags, "gen", {"preset", "scale", "out", "queries"});
  const std::string preset = Require(flags, "preset");
  const double scale = std::atof(Optional(flags, "scale", "1.0").c_str());
  SyntheticSpec spec = PresetSpec(preset, scale > 0 ? scale : 1.0);
  const SyntheticData gen = GenerateSynthetic(spec);
  const std::string out = Require(flags, "out");
  Status s = gen.points.Save(out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu x %zu points to %s\n", gen.points.num(),
              gen.points.dim(), out.c_str());
  const auto q = flags.find("queries");
  if (q != flags.end()) {
    s = gen.queries.Save(q->second);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu queries to %s\n", gen.queries.num(),
                q->second.c_str());
  }
  return 0;
}

int CmdBuild(const Flags& flags) {
  CheckFlags(flags, "build", {"data", "out", "degree", "ef", "metric"});
  const Dataset data = LoadDatasetOrDie(Require(flags, "data"));
  NswBuildOptions options;
  options.degree = ParseUint(flags, "degree", "16");
  options.ef_construction = ParseUint(flags, "ef", "100");
  if (options.degree == 0) {
    std::fprintf(stderr, "flag --degree must be >= 1\n");
    return 2;
  }
  const Metric metric = ParseMetric(Optional(flags, "metric", "l2"));
  Timer timer;
  const FixedDegreeGraph graph = NswBuilder::Build(data, metric, options);
  std::printf("built NSW graph (degree %zu) over %zu points in %.2fs\n",
              graph.degree(), graph.num_vertices(), timer.ElapsedSeconds());
  const Status s = graph.Save(Require(flags, "out"));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  CheckFlags(flags, "stats", {"graph"});
  auto loaded = FixedDegreeGraph::Load(Require(flags, "graph"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return loaded.status().ExitCode();
  }
  const GraphStats stats = ComputeGraphStats(loaded.value());
  std::printf("vertices:        %zu\n", stats.num_vertices);
  std::printf("degree capacity: %zu\n", stats.degree_capacity);
  std::printf("degree min/avg/max: %zu / %.2f / %zu\n", stats.min_degree,
              stats.avg_degree, stats.max_degree);
  std::printf("reachable from 0: %zu (%.2f%%)\n", stats.reachable,
              100.0 * stats.reachable / stats.num_vertices);
  std::printf("memory: %.2f MB\n", stats.memory_bytes / (1024.0 * 1024.0));
  return 0;
}

int CmdGroundTruth(const Flags& flags) {
  CheckFlags(flags, "gt", {"data", "queries", "k", "metric", "out"});
  const Dataset data = LoadDatasetOrDie(Require(flags, "data"));
  const Dataset queries = LoadDatasetOrDie(Require(flags, "queries"));
  const size_t k = ParseUint(flags, "k", "100");
  if (k == 0 || k > data.num()) {
    std::fprintf(stderr, "flag --k must be in [1, %zu]\n", data.num());
    return 2;
  }
  const Metric metric = ParseMetric(Optional(flags, "metric", "l2"));
  FlatIndex flat(&data, metric);
  const auto results = flat.BatchSearch(queries, k);
  // Store as a float matrix of ids (reuses the SNGD container).
  Dataset gt(queries.num(), k);
  std::vector<float> row(k, -1.0f);
  for (size_t q = 0; q < queries.num(); ++q) {
    std::fill(row.begin(), row.end(), -1.0f);
    for (size_t i = 0; i < results[q].size(); ++i) {
      row[i] = static_cast<float>(results[q][i].id);
    }
    gt.SetRow(static_cast<idx_t>(q), row.data());
  }
  const Status s = gt.Save(Require(flags, "out"));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote exact top-%zu for %zu queries\n", k, queries.num());
  return 0;
}

/// --reorder none|bfs: true when the index is to be BFS-relabeled.
bool ParseReorder(const std::string& name) {
  if (name == "none") return false;
  if (name == "bfs") return true;
  std::fprintf(stderr, "unknown reorder strategy: %s\n", name.c_str());
  std::exit(2);
}

struct MutateSpec {
  uint64_t rounds = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t seed = 42;
};

/// Parses "rounds=R,inserts=I,deletes=D[,seed=S]"; exits 2 on malformed
/// input, matching the strictness of the other flag parsers.
MutateSpec ParseMutateSpec(const std::string& spec) {
  MutateSpec out;
  bool have_rounds = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const size_t eq = part.find('=');
    char* end = nullptr;
    errno = 0;
    const unsigned long long v =
        eq == std::string::npos
            ? 0
            : std::strtoull(part.c_str() + eq + 1, &end, 10);
    const bool bad = eq == std::string::npos || end == part.c_str() + eq + 1 ||
                     *end != '\0' || errno == ERANGE;
    const std::string key = part.substr(0, eq);
    if (!bad && key == "rounds") {
      out.rounds = v;
      have_rounds = true;
    } else if (!bad && key == "inserts") {
      out.inserts = v;
    } else if (!bad && key == "deletes") {
      out.deletes = v;
    } else if (!bad && key == "seed") {
      out.seed = v;
    } else {
      std::fprintf(stderr,
                   "malformed --mutate-spec component \"%s\" (expected "
                   "rounds=R,inserts=I,deletes=D[,seed=S])\n",
                   part.c_str());
      std::exit(2);
    }
    pos = comma + 1;
  }
  if (!have_rounds || out.rounds == 0) {
    std::fprintf(stderr, "--mutate-spec requires rounds >= 1\n");
    std::exit(2);
  }
  return out;
}

struct PqSpec {
  uint64_t m = 0;       ///< subquantizers; 0 with load= means "from codebook"
  uint64_t rerank = 0;  ///< rerank_depth (0 = auto)
  std::string save;     ///< write the trained codebook here (.sngq)
  std::string load;     ///< adopt a pre-trained codebook instead of training
};

/// Parses "m=<M>[,rerank=<R>][,save=<path>][,load=<path>]"; exits 2 on
/// malformed input, matching ParseMutateSpec's strictness.
PqSpec ParsePqSpec(const std::string& spec) {
  PqSpec out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const size_t eq = part.find('=');
    const std::string key =
        eq == std::string::npos ? part : part.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : part.substr(eq + 1);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    const bool bad_uint = value.empty() || end != value.c_str() + value.size() ||
                          errno == ERANGE;
    if (key == "m" && !bad_uint) {
      out.m = v;
    } else if (key == "rerank" && !bad_uint) {
      out.rerank = v;
    } else if (key == "save" && !value.empty()) {
      out.save = value;
    } else if (key == "load" && !value.empty()) {
      out.load = value;
    } else {
      std::fprintf(stderr,
                   "malformed --pq component \"%s\" (expected "
                   "m=<M>[,rerank=<R>][,save=<path>][,load=<path>])\n",
                   part.c_str());
      std::exit(2);
    }
    pos = comma + 1;
  }
  if (out.m == 0 && out.load.empty()) {
    std::fprintf(stderr, "--pq requires m=<M> >= 1 (or load=<path>)\n");
    std::exit(2);
  }
  return out;
}

/// Writes the --statusz one-shot dump; returns 0/1 like the other writers.
/// Called on both the success and the failure path, so a crashed-run dump
/// still carries the error Status plus everything recorded up to it.
int WriteStatusz(const std::string& path, const std::string& command,
                 const Status& status, const obs::MetricsRegistry* registry,
                 const obs::FlightRecorder* recorder) {
  obs::StatuszContext ctx;
  ctx.registry = registry;
  ctx.flight_recorder = recorder;
  ctx.build_describe = SONG_GIT_DESCRIBE;
  ctx.command = command;
  ctx.status_code = static_cast<int>(status.code());
  ctx.status_message = status.message();
  if (!obs::WriteStringToFile(path, obs::StatuszToJson(ctx))) return 1;
  std::printf("wrote statusz to %s\n", path.c_str());
  return 0;
}

/// Clears the global fault-injection listener on scope exit: the listener
/// lambda captures stack locals, so it must never outlive the frame that
/// armed it.
struct FaultListenerGuard {
  bool armed = false;
  ~FaultListenerGuard() {
    if (armed) fault::FaultRegistry::Global().SetInjectionListener(nullptr);
  }
};

/// Post-mortem ring dump to stderr (non-OK run status, or a fault site
/// fired mid-run).
void DumpFlightRecorderToStderr(const obs::FlightRecorder& recorder,
                                const char* why) {
  std::fprintf(stderr, "flight recorder (%s):\n", why);
  std::fputs(recorder.ToJson().c_str(), stderr);
}

/// The --mutate-spec leg of CmdSearch: churn the adopted index, then serve
/// the queries from the final snapshot with recall against an exact scan of
/// the live set.
int RunMutateSearch(const Flags& flags, Dataset data, FixedDegreeGraph graph,
                    const Dataset& queries, Metric metric, size_t k,
                    const SongSearchOptions& options,
                    const MutateSpec& spec) {
  obs::MetricsRegistry registry;
  MutableIndexOptions mopts;
  mopts.degree = graph.degree();
  MutableIndex index(metric, data.dim(), mopts, &registry);
  {
    // AdoptFrozen consumes its arguments; the oracle scan below reads rows
    // back through the snapshot, so no second copy is needed.
    const Status adopted = index.AdoptFrozen(std::move(data), std::move(graph));
    if (!adopted.ok()) {
      std::fprintf(stderr, "adopt failed: %s\n", adopted.ToString().c_str());
      return adopted.ExitCode();
    }
  }

  RandomEngine rng(spec.seed);
  const size_t dim = index.dim();
  std::vector<float> point(dim);
  Timer mutate_timer;
  uint64_t inserts_done = 0;
  uint64_t deletes_done = 0;
  for (uint64_t round = 0; round < spec.rounds; ++round) {
    for (uint64_t i = 0; i < spec.inserts; ++i) {
      // A noisy copy of a random live point keeps inserts on-distribution
      // without assuming anything about the dataset.
      const std::shared_ptr<const IndexSnapshot> cur = index.Acquire();
      idx_t base = static_cast<idx_t>(rng.NextUint(cur->num_points()));
      while (!cur->IsLive(base)) {
        base = static_cast<idx_t>(rng.NextUint(cur->num_points()));
      }
      const float* row = cur->data().Row(base);
      for (size_t d = 0; d < dim; ++d) {
        point[d] = row[d] + static_cast<float>(rng.NextGaussian() * 0.05);
      }
      const StatusOr<idx_t> id = index.Insert(point.data());
      if (!id.ok()) {
        std::fprintf(stderr, "insert failed: %s\n",
                     id.status().ToString().c_str());
        return id.status().ExitCode();
      }
      ++inserts_done;
    }
    for (uint64_t i = 0; i < spec.deletes && index.live_points() > 1; ++i) {
      const std::shared_ptr<const IndexSnapshot> cur = index.Acquire();
      idx_t victim = static_cast<idx_t>(rng.NextUint(cur->num_points()));
      while (!cur->IsLive(victim)) {
        victim = static_cast<idx_t>(rng.NextUint(cur->num_points()));
      }
      const Status s = index.Delete(victim);
      if (!s.ok()) {
        std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
        return s.ExitCode();
      }
      ++deletes_done;
    }
  }
  index.ReclaimRetired();
  const std::shared_ptr<const IndexSnapshot> snapshot = index.Acquire();
  std::printf(
      "mutated index: %llu inserts, %llu deletes in %.2fs "
      "(%zu points, %zu live, version %llu, %zu retired snapshots)\n",
      static_cast<unsigned long long>(inserts_done),
      static_cast<unsigned long long>(deletes_done),
      mutate_timer.ElapsedSeconds(), snapshot->num_points(),
      snapshot->live_points(), static_cast<unsigned long long>(index.version()),
      index.retired_versions());

  // Serve the queries from the final snapshot; exact live-set scan for
  // recall (the frozen --gt file is meaningless after mutation). Serving is
  // concurrent: --max-inflight bounds the worker count (there is no batch
  // admission queue in this leg — each query is an independent request), so
  // a request's queue stage is the time it waited for a worker slot.
  const std::string metrics_path = Optional(flags, "metrics", "");
  const std::string metrics_json_path = Optional(flags, "metrics-json", "");
  const std::string statusz_path = Optional(flags, "statusz", "");
  const std::string flight_path = Optional(flags, "flight-recorder", "");
  const bool observe = !metrics_path.empty() || !metrics_json_path.empty() ||
                       !statusz_path.empty() || !flight_path.empty();
  obs::FlightRecorder recorder;
  obs::FlightRecorder* recorder_ptr =
      !statusz_path.empty() || !flight_path.empty() ? &recorder : nullptr;
  const obs::RequestMetrics req_metrics(observe ? &registry : nullptr);

  std::atomic<uint64_t> faults_fired{0};
  FaultListenerGuard listener_guard;
  if (recorder_ptr != nullptr && fault::FaultRegistry::Global().enabled()) {
    fault::FaultRegistry::Global().SetInjectionListener(
        [&faults_fired](std::string_view) {
          faults_fired.fetch_add(1, std::memory_order_relaxed);
        });
    listener_guard.armed = true;
  }

  const size_t workers = std::max<size_t>(
      1, static_cast<size_t>(ParseUint(flags, "max-inflight", "0")));
  std::vector<SongWorkspace> workspaces(workers);
  std::vector<std::vector<Neighbor>> results(queries.num());
  std::vector<Status> errors(queries.num());
  Timer search_timer;
  ParallelFor(
      queries.num(), workers,
      [&](size_t q, size_t t) {
        obs::RequestObserver observer;
        observer.metrics = &req_metrics;
        observer.recorder = recorder_ptr;
        observer.request_id = q;
        // The queue stage ends when this worker claims the query; the
        // snapshot search path has no batch formation.
        observer.queue_us = static_cast<float>(search_timer.ElapsedMicros());
        StatusOr<std::vector<Neighbor>> got = snapshot->TrySearch(
            queries.Row(static_cast<idx_t>(q)), k, options, &workspaces[t],
            /*stats=*/nullptr, /*degraded=*/nullptr,
            observe ? &observer : nullptr);
        if (got.ok()) {
          results[q] = std::move(got).value();
        } else {
          errors[q] = got.status();
        }
      },
      /*chunk=*/1);
  const double search_s = search_timer.ElapsedSeconds();

  // Deterministic error reporting: the lowest failed query wins, regardless
  // of which worker hit it first.
  for (size_t q = 0; q < queries.num(); ++q) {
    if (errors[q].ok()) continue;
    std::fprintf(stderr, "query %zu failed: %s\n", q,
                 errors[q].ToString().c_str());
    if (recorder_ptr != nullptr) {
      DumpFlightRecorderToStderr(recorder, "non-OK run status");
    }
    if (!statusz_path.empty()) {
      WriteStatusz(statusz_path, "search --mutate-spec", errors[q], &registry,
                   recorder_ptr);
    }
    return errors[q].ExitCode();
  }

  // Recall oracle, outside the search clock: an exact scan of the live set
  // per query, timed on its own line.
  std::vector<size_t> hits_per(workers, 0);
  std::vector<size_t> denom_per(workers, 0);
  const DistanceFunc dist = GetDistanceFunc(metric);
  Timer oracle_timer;
  ParallelFor(
      queries.num(), workers,
      [&](size_t q, size_t t) {
        const float* query = queries.Row(static_cast<idx_t>(q));
        std::vector<Neighbor> truth;
        for (size_t id = 0; id < snapshot->num_points(); ++id) {
          if (!snapshot->IsLive(static_cast<idx_t>(id))) continue;
          truth.emplace_back(
              dist(query, snapshot->data().Row(static_cast<idx_t>(id)), dim),
              static_cast<idx_t>(id));
        }
        std::sort(truth.begin(), truth.end());
        if (truth.size() > k) truth.resize(k);
        denom_per[t] += truth.size();
        for (const Neighbor& n : results[q]) {
          for (const Neighbor& tr : truth) {
            if (n.id == tr.id) {
              ++hits_per[t];
              break;
            }
          }
        }
      },
      /*chunk=*/1);
  const double oracle_s = oracle_timer.ElapsedSeconds();
  size_t hits = 0;
  size_t denom = 0;
  for (size_t t = 0; t < workers; ++t) {
    hits += hits_per[t];
    denom += denom_per[t];
  }
  std::printf("queries: %zu, k=%zu, queue=%zu, config=%s, workers=%zu\n",
              queries.num(), k, options.queue_size, options.Name().c_str(),
              workers);
  std::printf("search wall: %.3fs (%.0f QPS)\n", search_s,
              queries.num() / std::max(1e-9, search_s));
  std::printf("oracle scan: %.3fs (exact live-set scan for recall)\n",
              oracle_s);
  std::printf("recall@%zu vs live set: %.4f\n", k,
              denom == 0 ? 0.0 : static_cast<double>(hits) / denom);

  int status = 0;
  if (faults_fired.load(std::memory_order_relaxed) > 0) {
    DumpFlightRecorderToStderr(recorder, "fault site fired");
  }
  if (!metrics_path.empty()) {
    if (obs::WriteStringToFile(metrics_path,
                               obs::MetricsToPrometheusText(registry))) {
      std::printf("wrote Prometheus metrics to %s\n", metrics_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!metrics_json_path.empty()) {
    if (obs::WriteStringToFile(metrics_json_path,
                               obs::MetricsToJson(registry))) {
      std::printf("wrote JSON metrics to %s\n", metrics_json_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!flight_path.empty()) {
    if (obs::WriteStringToFile(flight_path, recorder.ToJson())) {
      std::printf("wrote flight recorder to %s\n", flight_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!statusz_path.empty()) {
    status |= WriteStatusz(statusz_path, "search --mutate-spec", Status::OK(),
                           &registry, recorder_ptr);
  }
  return status;
}

int CmdSearch(const Flags& flags) {
  CheckFlags(flags, "search",
             {"data", "graph", "queries", "metric", "k", "queue", "config",
              "reorder", "gt", "gpu", "metrics", "metrics-json", "trace",
              "trace-sample", "deadline-us", "cost-budget", "max-inflight",
              "fault-spec", "fault-seed", "mutate-spec", "statusz",
              "flight-recorder", "pq"});

  const std::string fault_spec = Optional(flags, "fault-spec", "");
  if (!fault_spec.empty()) {
    const uint64_t fault_seed = ParseUint(flags, "fault-seed", "42");
    const Status fs =
        fault::FaultRegistry::Global().Configure(fault_spec, fault_seed);
    if (!fs.ok()) {
      std::fprintf(stderr, "invalid --fault-spec: %s\n",
                   fs.ToString().c_str());
      return fs.ExitCode();
    }
  } else if (flags.count("fault-seed") != 0) {
    std::fprintf(stderr, "--fault-seed requires --fault-spec\n");
    return 2;
  }
  if (flags.count("max-inflight") != 0 && flags.count("mutate-spec") == 0) {
    std::fprintf(stderr,
                 "--max-inflight requires --mutate-spec (it bounds the "
                 "mutate leg's concurrent requests)\n");
    return 2;
  }

  Dataset data = LoadDatasetOrDie(Require(flags, "data"));
  const Dataset queries = LoadDatasetOrDie(Require(flags, "queries"));
  auto graph_loaded = FixedDegreeGraph::Load(Require(flags, "graph"));
  if (!graph_loaded.ok()) {
    std::fprintf(stderr, "%s\n", graph_loaded.status().ToString().c_str());
    return graph_loaded.status().ExitCode();
  }
  FixedDegreeGraph graph = std::move(graph_loaded.value());
  const Metric metric = ParseMetric(Optional(flags, "metric", "l2"));
  const size_t k = ParseUint(flags, "k", "10");
  SongSearchOptions options =
      ParseConfig(Optional(flags, "config", "seldel"));
  options.queue_size = ParseUint(flags, "queue", "64");
  const bool reorder = ParseReorder(Optional(flags, "reorder", "none"));
  options.deadline_us = ParseUint(flags, "deadline-us", "0");
  options.cost_budget = ParseUint(flags, "cost-budget", "0");

  const std::string mutate_spec = Optional(flags, "mutate-spec", "");
  if (!mutate_spec.empty()) {
    if (flags.count("pq") != 0) {
      std::fprintf(stderr,
                   "--mutate-spec is incompatible with --pq (snapshots of a "
                   "mutable index serve exact search only)\n");
      return 2;
    }
    if (reorder) {
      std::fprintf(stderr,
                   "--mutate-spec is incompatible with --reorder (the "
                   "reordered id space is frozen)\n");
      return 2;
    }
    if (flags.count("gt") != 0) {
      std::fprintf(stderr,
                   "--mutate-spec is incompatible with --gt (ground truth "
                   "refers to the pre-mutation point set); recall is "
                   "computed against an exact scan of the live set\n");
      return 2;
    }
    return RunMutateSearch(flags, std::move(data), std::move(graph), queries,
                           metric, k, options, ParseMutateSpec(mutate_spec));
  }

  idx_t entry = 0;
  std::vector<idx_t> result_id_map;
  if (reorder) {
    Timer reorder_timer;
    ReorderedIndex reordered = ReorderIndex(data, graph, entry);
    data = std::move(reordered.data);
    graph = std::move(reordered.graph);
    entry = reordered.entry;
    result_id_map = std::move(reordered.perm.new_to_old);
    std::printf("reordered index (bfs) in %.2fs\n",
                reorder_timer.ElapsedSeconds());
  }

  SongSearcher searcher(&data, &graph, metric, entry);
  searcher.SetResultIdMap(std::move(result_id_map));
  std::printf("simd tier: %s\n", SimdTierName(ActiveSimdTier()));

  const std::string pq_flag = Optional(flags, "pq", "");
  if (!pq_flag.empty()) {
    const PqSpec pq_spec = ParsePqSpec(pq_flag);
    Status enabled;
    if (!pq_spec.load.empty()) {
      StatusOr<ProductQuantizer> loaded = ProductQuantizer::Load(pq_spec.load);
      if (!loaded.ok()) {
        std::fprintf(stderr, "pq codebook load failed: %s\n",
                     loaded.status().ToString().c_str());
        return loaded.status().ExitCode();
      }
      enabled = searcher.EnablePq(std::move(loaded).value());
    } else {
      PqOptions popts;
      popts.num_subquantizers = static_cast<size_t>(pq_spec.m);
      Timer train_timer;
      enabled = searcher.EnablePq(popts);
      if (enabled.ok()) {
        std::printf("pq: trained codebook in %.2fs\n",
                    train_timer.ElapsedSeconds());
      }
    }
    if (!enabled.ok()) {
      std::fprintf(stderr, "pq enable failed: %s\n",
                   enabled.ToString().c_str());
      return enabled.ExitCode();
    }
    const ProductQuantizer& trained = searcher.pq_distance()->pq();
    if (!pq_spec.save.empty()) {
      const Status saved = trained.Save(pq_spec.save);
      if (!saved.ok()) {
        std::fprintf(stderr, "pq codebook save failed: %s\n",
                     saved.ToString().c_str());
        return saved.ExitCode();
      }
      std::printf("wrote PQ codebook to %s\n", pq_spec.save.c_str());
    }
    options.quant = QuantizationMode::kPq;
    options.rerank_depth = static_cast<size_t>(pq_spec.rerank);
    std::printf("pq: m=%zu (%zu B/code vs %zu B/vector), rerank pool %zu\n",
                trained.code_bytes(), trained.code_bytes(),
                data.dim() * sizeof(float),
                SongSearcher::RerankPoolSize(k, options));
  }
  const GpuSpec gpu = ParseGpu(Optional(flags, "gpu", "v100"));

  const std::string metrics_path = Optional(flags, "metrics", "");
  const std::string metrics_json_path = Optional(flags, "metrics-json", "");
  const std::string trace_path = Optional(flags, "trace", "");
  const std::string statusz_path = Optional(flags, "statusz", "");
  const std::string flight_path = Optional(flags, "flight-recorder", "");
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  BatchTelemetry telemetry;
  if (!metrics_path.empty() || !metrics_json_path.empty() ||
      !trace_path.empty() || !statusz_path.empty()) {
    telemetry.registry = &registry;
  }
  if (!statusz_path.empty() || !flight_path.empty()) {
    telemetry.flight_recorder = &recorder;
  }
  if (!trace_path.empty()) {
    telemetry.trace_sample_period = static_cast<uint32_t>(std::strtoul(
        Optional(flags, "trace-sample", "1").c_str(), nullptr, 10));
  }

  std::atomic<uint64_t> faults_fired{0};
  FaultListenerGuard listener_guard;
  if (telemetry.flight_recorder != nullptr &&
      fault::FaultRegistry::Global().enabled()) {
    fault::FaultRegistry::Global().SetInjectionListener(
        [&faults_fired](std::string_view) {
          faults_fired.fetch_add(1, std::memory_order_relaxed);
        });
    listener_guard.armed = true;
  }

  StatusOr<SimulatedRun> run_or =
      TrySimulateBatch(searcher, queries, k, options, gpu, /*num_threads=*/0,
                       telemetry);
  if (!run_or.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 run_or.status().ToString().c_str());
    if (telemetry.flight_recorder != nullptr) {
      DumpFlightRecorderToStderr(recorder, "non-OK run status");
    }
    if (!statusz_path.empty()) {
      WriteStatusz(statusz_path, "search", run_or.status(), &registry,
                   telemetry.flight_recorder);
    }
    return run_or.status().ExitCode();
  }
  const SimulatedRun run = std::move(run_or).value();

  std::printf("queries: %zu, k=%zu, queue=%zu, config=%s\n", queries.num(),
              k, options.queue_size, options.Name().c_str());
  std::printf("CPU wall: %.3fs (%.0f QPS)\n", run.batch.wall_seconds,
              run.batch.Qps());
  if (options.deadline_us > 0 || options.cost_budget > 0 ||
      run.batch.queries_degraded > 0) {
    std::printf("degraded queries: %zu / %zu (budget-terminated)\n",
                run.batch.queries_degraded, run.batch.num_queries);
  }
  if (run.batch.queries_rejected > 0) {
    std::printf("rejected queries: %zu / %zu (failed validation)\n",
                run.batch.queries_rejected, run.batch.num_queries);
  }
  std::printf("simulated %s: %.0f QPS (locate %.1f%% / distance %.1f%% / "
              "maintain %.1f%%)\n",
              gpu.name.c_str(), run.SimQps(), run.gpu.LocatePct(),
              run.gpu.DistancePct(), run.gpu.MaintainPct());

  const auto gt_flag = flags.find("gt");
  if (gt_flag != flags.end()) {
    const Dataset gt = LoadDatasetOrDie(gt_flag->second);
    std::vector<std::vector<idx_t>> truth(gt.num());
    for (size_t q = 0; q < gt.num(); ++q) {
      for (size_t i = 0; i < gt.dim(); ++i) {
        const float v = gt.Row(static_cast<idx_t>(q))[i];
        if (v >= 0.0f) truth[q].push_back(static_cast<idx_t>(v));
      }
    }
    std::printf("recall@%zu: %.4f\n", k,
                MeanRecallAtK(run.batch.Ids(), truth, k));
  } else {
    const auto& first = run.batch.results.empty() ? std::vector<Neighbor>{}
                                                  : run.batch.results[0];
    std::printf("query 0 top-%zu:", k);
    for (const Neighbor& n : first) std::printf(" %u(%.3f)", n.id, n.dist);
    std::printf("\n");
  }

  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  if (faults.enabled()) {
    registry.GetCounter("song.faults.injected")
        .Increment(faults.injected_total());
    std::printf("faults injected: %llu (spec \"%s\", seed %llu)\n",
                static_cast<unsigned long long>(faults.injected_total()),
                faults.spec().c_str(),
                static_cast<unsigned long long>(faults.seed()));
  }

  int status = 0;
  if (faults_fired.load(std::memory_order_relaxed) > 0) {
    DumpFlightRecorderToStderr(recorder, "fault site fired");
  }
  if (!metrics_path.empty()) {
    if (obs::WriteStringToFile(metrics_path,
                               obs::MetricsToPrometheusText(registry))) {
      std::printf("wrote Prometheus metrics to %s\n", metrics_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!metrics_json_path.empty()) {
    if (obs::WriteStringToFile(metrics_json_path,
                               obs::MetricsToJson(registry))) {
      std::printf("wrote JSON metrics to %s\n", metrics_json_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!flight_path.empty()) {
    if (obs::WriteStringToFile(flight_path, recorder.ToJson())) {
      std::printf("wrote flight recorder to %s\n", flight_path.c_str());
    } else {
      status = 1;
    }
  }
  if (!statusz_path.empty()) {
    status |= WriteStatusz(statusz_path, "search", Status::OK(), &registry,
                           telemetry.flight_recorder);
  }
  if (!trace_path.empty()) {
    CostModel model(gpu);
    obs::ChromeTraceContext context;
    context.model = &model;
    context.shape = run.shape;
    context.breakdown = run.gpu;
    context.num_queries = run.batch.num_queries;
    if (obs::WriteStringToFile(
            trace_path, obs::TracesToChromeJson(run.batch.traces, context))) {
      std::printf("wrote %zu sampled traces to %s (%zu dropped)\n",
                  run.batch.traces.size(), trace_path.c_str(),
                  run.batch.traces_dropped);
    } else {
      status = 1;
    }
  }
  return status;
}

int CmdVersion() {
  std::printf("song_cli (SONG reproduction)\n");
  std::printf("cpu simd:      %s\n", SimdTierName(CpuSimdTier()));
  std::printf("compiled tiers:");
  for (const SimdTier tier :
       {SimdTier::kScalar, SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierCompiled(tier)) std::printf(" %s", SimdTierName(tier));
  }
  std::printf("\n");
  std::printf("active tier:   %s", SimdTierName(ActiveSimdTier()));
  const char* env = std::getenv("SONG_SIMD");
  if (env != nullptr) std::printf(" (SONG_SIMD=%s)", env);
  std::printf("\n");
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: song_cli <gen|build|stats|gt|search|version> [--flags]\n"
               "see the header comment of tools/song_cli.cc\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  // Library errors surface as Status; anything thrown past this point is a
  // bug, but the CLI still exits with a diagnostic instead of aborting.
  try {
    const std::string cmd = argv[1];
    const Flags flags = ParseFlags(argc, argv, 2);
    if (cmd == "gen") return CmdGen(flags);
    if (cmd == "build") return CmdBuild(flags);
    if (cmd == "stats") return CmdStats(flags);
    if (cmd == "gt") return CmdGroundTruth(flags);
    if (cmd == "search") return CmdSearch(flags);
    if (cmd == "version") {
      CheckFlags(flags, "version", {});
      return CmdVersion();
    }
    Usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "song_cli: fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "song_cli: fatal: unknown exception\n");
    return 1;
  }
}
