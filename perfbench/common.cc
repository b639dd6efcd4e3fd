#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "baselines/flat_index.h"
#include "core/random.h"
#include "core/recall.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"

namespace perfbench {

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Failed(const std::string& why, uint64_t n) {
  failed_ += n;
  if (reasons_logged_ < 8) {
    ++reasons_logged_;
    std::fprintf(stderr, "perfbench: failed (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
}

void Report::Invalid(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Report::Json(
    const std::vector<std::pair<std::string, std::string>>& names) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = values_.find(name);
    const double value = it == values_.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void KeepBest(const std::vector<double>& pass, std::vector<double>* best) {
  if (best->empty()) {
    *best = pass;
    return;
  }
  for (size_t i = 0; i < pass.size(); ++i) {
    (*best)[i] = std::min((*best)[i], pass[i]);
  }
}

double RateOf(const std::vector<double>& us) {
  double total_us = 0.0;
  for (const double t : us) total_us += t;
  return total_us > 0.0 ? static_cast<double>(us.size()) / (total_us * 1e-6)
                        : 0.0;
}

Inputs Generate(const std::string& preset, size_t num_points,
                size_t num_queries, uint64_t seed) {
  // The preset's Gaussian mixture (data/synthetic.h). The corpus depends
  // only on the preset and its size, so the recall curve, and with it every
  // fixed-recall throughput, is the same for every run seed; the seed draws
  // the queries.
  const song::SyntheticSpec spec = song::PresetSpec(preset);
  uint64_t corpus_state = spec.seed ^ num_points;
  song::RandomEngine corpus(song::SplitMix64(corpus_state));
  uint64_t query_state = spec.seed ^ (seed * 0x9e3779b97f4a7c15ull);
  song::RandomEngine sample(song::SplitMix64(query_state));
  const size_t dim = spec.dim;
  const size_t clusters = std::max<size_t>(1, spec.num_clusters);
  std::vector<float> centers(clusters * dim, 0.0f);
  if (spec.num_clusters > 0) {
    for (float& c : centers) c = static_cast<float>(corpus.NextGaussian());
  }
  std::vector<double> cdf(clusters);
  double total = 0.0;
  for (size_t c = 0; c < clusters; ++c) {
    total += 1.0 / std::pow(static_cast<double>(c + 1), spec.skew);
    cdf[c] = total;
  }
  const double sigma = spec.num_clusters > 0 ? spec.cluster_std : 1.0;
  std::vector<float> row(dim);
  const auto fill = [&](song::RandomEngine& rng, Dataset* out) {
    for (size_t i = 0; i < out->num(); ++i) {
      const double u = rng.NextUniform() * total;
      const size_t c = std::min<size_t>(
          static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin()),
          clusters - 1);
      for (size_t d = 0; d < dim; ++d) {
        row[d] = centers[c * dim + d] +
                 static_cast<float>(rng.NextGaussian() * sigma);
      }
      out->SetRow(static_cast<idx_t>(i), row.data());
    }
    if (spec.normalize) out->NormalizeRows();
  };
  Inputs inputs;
  inputs.metric = spec.normalize ? Metric::kCosine : spec.metric;
  inputs.points = Dataset(num_points, dim);
  inputs.queries = Dataset(num_queries, dim);
  fill(corpus, &inputs.points);
  fill(sample, &inputs.queries);
  return inputs;
}

FixedDegreeGraph BuildGraph(const Dataset& points, Metric metric,
                            SpanLog* log) {
  song::NswBuildOptions options;
  options.num_threads = 1;
  ScopedSpan span(log, "NswBuilder::Build", "graph");
  return song::NswBuilder::Build(points, metric, options);
}

void SetupLog::Add(double setup_s, const FixedDegreeGraph& graph,
                   Report* report) {
  const uint64_t d = GraphDigest(graph);
  if (!seconds.empty() && d != digest) {
    report->Invalid("one-thread NSW builds of the same input differ");
  }
  digest = d;
  seconds.push_back(setup_s);
}

BuildRate::BuildRate(const Dataset& points, Metric metric, size_t rows)
    : head_(rows, points.dim()), metric_(metric) {
  for (size_t i = 0; i < rows; ++i) {
    head_.SetRow(static_cast<idx_t>(i), points.Row(static_cast<idx_t>(i)));
  }
}

void BuildRate::Sample() {
  const int64_t start = NowNs();
  BuildGraph(head_, metric_, nullptr);
  const double seconds = SecondsSince(start);
  if (best_s_ == 0.0 || seconds < best_s_) best_s_ = seconds;
}

double BuildRate::PointsPerSecond() const {
  return best_s_ > 0.0 ? static_cast<double>(head_.num()) / best_s_ : 0.0;
}

uint64_t GraphDigest(const FixedDegreeGraph& graph) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (idx_t v = 0; v < graph.num_vertices(); ++v) {
    const idx_t* row = graph.Row(v);
    for (size_t i = 0; i < graph.degree(); ++i) {
      h ^= row[i];
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

IdLists ExactTopK(const Dataset& points, const Dataset& queries,
                  Metric metric, size_t threads) {
  const song::FlatIndex flat(&points, metric);
  return song::FlatIndex::Ids(flat.BatchSearch(queries, kTopK, threads));
}

double MeanRecall(const IdLists& results, const IdLists& truth) {
  return song::MeanRecallAtK(results, truth, kTopK);
}

std::vector<idx_t> IdsOf(const std::vector<Neighbor>& results) {
  std::vector<idx_t> ids;
  ids.reserve(results.size());
  for (const Neighbor& n : results) ids.push_back(n.id);
  return ids;
}

double ResidentMb(const char* field, pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(static_cast<long>(pid)) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) * 1024.0 *
             1e-6;  // kB
    }
  }
  return 0.0;
}

bool SameCounters(const SearchStats& a, const SearchStats& b) {
  return a.iterations == b.iterations &&
         a.vertices_expanded == b.vertices_expanded &&
         a.graph_rows_loaded == b.graph_rows_loaded &&
         a.graph_bytes_loaded == b.graph_bytes_loaded &&
         a.distance_computations == b.distance_computations &&
         a.data_bytes_loaded == b.data_bytes_loaded &&
         a.q_pushes == b.q_pushes && a.q_evictions == b.q_evictions &&
         a.topk_pushes == b.topk_pushes && a.visited_tests == b.visited_tests &&
         a.visited_insertions == b.visited_insertions &&
         a.visited_deletions == b.visited_deletions;
}

double Sweep::AtRecall(
    double target,
    const std::function<double(const SweepPoint&)>& value) const {
  if (points.empty()) return 0.0;
  if (points.front().recall >= target) return value(points.front());
  for (size_t i = 1; i < points.size(); ++i) {
    const SweepPoint& hi = points[i];
    if (hi.recall < target) continue;
    const SweepPoint& lo = points[i - 1];
    const double span = hi.recall - lo.recall;
    const double t = span > 0.0 ? (target - lo.recall) / span : 1.0;
    return value(lo) + t * (value(hi) - value(lo));
  }
  return 0.0;
}

double Sweep::QpsAtRecall(double target) const {
  return AtRecall(target, [](const SweepPoint& p) { return p.qps(); });
}

const SweepPoint& Sweep::At(size_t ef) const {
  for (const SweepPoint& p : points) {
    if (p.ef == ef) return p;
  }
  std::fprintf(stderr, "perfbench: ef %zu was not swept\n", ef);
  std::abort();
}

Sweep RunSweep(const SearchFn& search, const Dataset& queries,
               const IdLists& truth, const std::vector<size_t>& efs,
               const SongSearchOptions& base, Report* report, SpanLog* log,
               const char* span_name, const char* layer) {
  Sweep sweep;
  sweep.num_queries = queries.num();
  sweep.points.resize(efs.size());
  for (size_t i = 0; i < efs.size(); ++i) sweep.points[i].ef = efs[i];
  SweepPass(search, queries, truth, base, &sweep, report, log, span_name,
            layer);
  return sweep;
}

void SweepPass(const SearchFn& search, const Dataset& queries,
               const IdLists& truth, const SongSearchOptions& base,
               Sweep* sweep, Report* report, SpanLog* log,
               const char* span_name, const char* layer) {
  IdLists ids(queries.num());
  for (SweepPoint& point : sweep->points) {
    SongSearchOptions options = base;
    options.queue_size = point.ef;
    SearchStats stats;
    std::vector<double> call_us(queries.num());
    for (size_t q = 0; q < queries.num(); ++q) {
      const int64_t t0 = NowNs();
      std::vector<Neighbor> results;
      {
        ScopedSpan span(log, span_name, layer,
                        (static_cast<uint64_t>(point.ef) << 32) | q);
        results = search(queries.Row(static_cast<idx_t>(q)), kTopK, options,
                         &stats);
      }
      call_us[q] = static_cast<double>(NowNs() - t0) * 1e-3;
      ids[q] = IdsOf(results);
    }
    KeepBest(call_us, &point.best_us);
    report->Attempted(queries.num());
    if (sweep->passes == 0) {
      point.stats = stats;
      point.ids = ids;
      point.recall = MeanRecall(ids, truth);
    } else if (ids != point.ids || !SameCounters(stats, point.stats)) {
      report->Invalid("ef " + std::to_string(point.ef) +
                      ": a repeated pass returned different ids or counters");
    }
  }
  ++sweep->passes;
}

}  // namespace perfbench
