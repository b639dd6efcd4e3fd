// Shared pieces of the benchmark program: run configuration, the result
// report, statistics, seeded inputs, exact ground truth, and the ef sweep
// every workload scores recall and throughput with.

#ifndef SONG_PERFBENCH_COMMON_H_
#define SONG_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "song/search_options.h"
#include "trace.h"

namespace perfbench {

using song::Dataset;
using song::FixedDegreeGraph;
using song::idx_t;
using song::Metric;
using song::Neighbor;
using song::SearchStats;
using song::SongSearchOptions;

using IdLists = std::vector<std::vector<idx_t>>;

inline constexpr size_t kTopK = 10;

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;  ///< song_server built beside this program
  std::string work_dir;    ///< per-run scratch directory (deleted after)
  std::string trace_out;   ///< span dump written at the end of a trace run
  size_t nproc = 4;        ///< busy-thread budget for the whole load
};

/// The benchmark's verdict: named metrics, attempted/failed operation
/// counts, and correctness violations that are not single operations
/// (recall floor, outcome conservation, determinism).
class Report {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;

  void Attempted(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations; the first few reasons go to stderr.
  void Failed(const std::string& why, uint64_t n = 1);
  /// A violated whole-run check; makes the run incorrect.
  void Invalid(const std::string& why);

  bool correct() const { return correct_ && failed_ == 0; }

  /// The final JSON line over the metrics named in `names` (name -> unit).
  /// Every name must have been set.
  std::string Json(const std::vector<std::pair<std::string, std::string>>&
                       names) const;

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reasons_logged_ = 0;
  bool correct_ = true;
};

// --- Statistics. -----------------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
/// The better quartile of repeated samples of one quantity: the 75th
/// percentile of a rate, the 25th of a time. Passes slowed by other tenants
/// of a shared host land in the other three quarters.
inline double BestQuartile(std::vector<double> samples, bool higher_is_better) {
  return Percentile(std::move(samples), higher_is_better ? 75.0 : 25.0);
}

/// Per-item best times over repeated passes of the same items: `best` takes
/// `pass` on the first pass and the element-wise minimum after. The shared
/// host slows whole stretches of a run, pass after pass; every item still
/// meets a fast moment in some pass, so its best time is the program's.
void KeepBest(const std::vector<double>& pass, std::vector<double>* best);

/// Items per second when each item takes the time (us) given in `us`.
double RateOf(const std::vector<double>& us);

// --- Inputs. ---------------------------------------------------------------

struct Inputs {
  Metric metric = Metric::kL2;
  Dataset points;
  Dataset queries;
};

/// Synthetic inputs from a repository preset: a corpus of `num_points` rows
/// that depends only on the preset and its size, plus `num_queries` rows of
/// the same distribution drawn from `seed`.
Inputs Generate(const std::string& preset, size_t num_points,
                size_t num_queries, uint64_t seed);

/// Repeated set-ups of one workload. Later set-ups run between measurement
/// rounds, so their times sample the whole run, and each must rebuild the
/// first one's graph exactly.
struct SetupLog {
  std::vector<double> seconds;
  uint64_t digest = 0;

  void Add(double setup_s, const FixedDegreeGraph& graph, Report* report);
};

/// NswBuilder::Build with one build thread (the deterministic setting).
FixedDegreeGraph BuildGraph(const Dataset& points, Metric metric,
                            SpanLog* log);

/// insert_per_s of the set-up workloads: NswBuilder::Build (one thread) of
/// the corpus's first `rows` points, timed once per Sample(), at its best
/// time. Short builds repeated through the run catch the shared host's fast
/// stretches, which a few 2 s set-up builds do not.
class BuildRate {
 public:
  BuildRate(const Dataset& points, Metric metric, size_t rows);
  void Sample();
  double PointsPerSecond() const;

 private:
  Dataset head_;
  Metric metric_;
  double best_s_ = 0.0;
};

/// Order-sensitive digest of every adjacency row.
uint64_t GraphDigest(const FixedDegreeGraph& graph);

/// Exact top-k ids by flat scan, parallel over queries.
IdLists ExactTopK(const Dataset& points, const Dataset& queries,
                  Metric metric, size_t threads);

double MeanRecall(const IdLists& results, const IdLists& truth);

/// Ids of a result list.
std::vector<idx_t> IdsOf(const std::vector<Neighbor>& results);

/// A resident-set field of /proc/<pid>/status ("VmHWM:" is the high-water
/// mark, "VmRSS:" the current size) in MB; pid 0 = this process.
double ResidentMb(const char* field, pid_t pid = 0);

// --- The ef sweep. ---------------------------------------------------------

/// One search call: (query, k, options, stats out) -> results. The callee
/// owns its workspace.
using SearchFn = std::function<std::vector<Neighbor>(
    const float*, size_t, const SongSearchOptions&, SearchStats*)>;

struct SweepPoint {
  size_t ef = 0;
  double recall = 0.0;
  std::vector<double> best_us;  ///< per query, best call time (KeepBest)
  SearchStats stats;            ///< counters of one pass (all queries)
  IdLists ids;                  ///< results of one pass
  double qps() const { return RateOf(best_us); }
  double p50_us() const { return Percentile(best_us, 50.0); }
  double p90_us() const { return Percentile(best_us, 90.0); }
};

struct Sweep {
  std::vector<SweepPoint> points;  ///< ascending ef
  size_t passes = 0;
  size_t num_queries = 0;

  /// QPS interpolated linearly in recall at `target`; when the smallest
  /// ef already meets it, that point's QPS. 0 when no ef reaches it.
  double QpsAtRecall(double target) const;
  /// Same interpolation over an arbitrary per-point value.
  double AtRecall(double target,
                  const std::function<double(const SweepPoint&)>& value) const;
  /// The point swept at `ef` (which must be one of the swept values).
  const SweepPoint& At(size_t ef) const;
};

/// A sweep over `efs` with its first timed pass over `queries` run. With a
/// span log, every call is wrapped in a span named `span_name` whose
/// request id is (ef << 32) | query.
Sweep RunSweep(const SearchFn& search, const Dataset& queries,
               const IdLists& truth, const std::vector<size_t>& efs,
               const SongSearchOptions& base, Report* report, SpanLog* log,
               const char* span_name, const char* layer);

/// One more timed pass at every ef of `sweep`, appended to it. The first
/// pass records ids, counters and recall; later ones must repeat them
/// exactly, or the run is marked incorrect.
void SweepPass(const SearchFn& search, const Dataset& queries,
               const IdLists& truth, const SongSearchOptions& base,
               Sweep* sweep, Report* report, SpanLog* log,
               const char* span_name, const char* layer);

/// True when the work counters two runs of the same queries produced agree.
bool SameCounters(const SearchStats& a, const SearchStats& b);

}  // namespace perfbench

#endif  // SONG_PERFBENCH_COMMON_H_
