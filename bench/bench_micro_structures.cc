// Micro ablations (google-benchmark) for the data-structure choices
// DESIGN.md calls out:
//  * SONG's bounded queue and top-K (§IV-C) as the two partitions of one
//    sorted pool — the GPU-priced presets' frontier — and the CPU preset's
//    CandidatePool, against an unbounded std::priority_queue;
//  * the CandidatePool vs hnswlib's two heaps on a recorded best-first op
//    stream (expansions interleaved with admissions, as a search issues
//    them);
//  * Bloom vs Cuckoo filter ops — the §IV-B/E probabilistic alternatives.
//
// Before the google-benchmark suite runs, main() executes a structure sweep
// (best-of-reps, mirroring bench_micro_distance.cc) and, with
// SONG_BENCH_JSON_DIR set, writes BENCH_micro_structures.json —
// bench/baselines/ holds the committed reference tools/bench_gate.py
// compares against. SONG_BENCH_SMOKE=1 shrinks the rep count for CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/candidate_pool.h"
#include "core/distance.h"
#include "core/epoch_visited_set.h"
#include "core/simd.h"
#include "data/synthetic.h"
#include "graph/nsw_builder.h"
#include "obs/exporters.h"
#include "song/bloom_filter.h"
#include "song/cuckoo_filter.h"

namespace song {
namespace {

std::vector<Neighbor> MakeStream(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  std::vector<Neighbor> stream;
  stream.reserve(n);
  for (idx_t i = 0; i < n; ++i) stream.emplace_back(dist(rng), i);
  return stream;
}

// SONG's bounded queue q and top-K as the unexpanded and expanded
// partitions of one sorted pool (the GPU-priced presets' frontier): every
// candidate is a q.PushBounded, and a pop moves the queue minimum into
// topk (or ends the search, leaving the pool as it is).
void SongPartitionsStreamPass(PartitionedCandidatePool& pool,
                              const std::vector<Neighbor>& stream) {
  pool.Reset(pool.capacity());
  idx_t evicted = 0;
  Neighbor now;
  for (const Neighbor& n : stream) {
    pool.PushUnexpanded(n, &evicted);
    if (pool.unexpanded() > pool.capacity() / 2 && (n.id & 7) == 0) {
      benchmark::DoNotOptimize(pool.ExpandBounded(&now, &evicted));
    }
  }
  benchmark::DoNotOptimize(pool.size() + evicted);
}

void BM_SongPartitionsBoundedStream(benchmark::State& state) {
  const auto stream = MakeStream(4096, 42);
  PartitionedCandidatePool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) SongPartitionsStreamPass(pool, stream);
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SongPartitionsBoundedStream)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

// The CPU preset's frontier: one sorted pool whose cursor expansion stands
// in for the queue's pop-min (expanded entries stay, as top-K results).
void CandidatePoolStreamPass(CandidatePool& pool,
                             const std::vector<Neighbor>& stream) {
  pool.Reset(pool.capacity());
  size_t evicted = 0;
  for (const Neighbor& n : stream) {
    pool.Insert(n, &evicted);
    if (pool.size() > pool.capacity() / 2 && (n.id & 7) == 0 &&
        pool.HasUnexpanded()) {
      benchmark::DoNotOptimize(pool.ExpandNext());
    }
  }
  benchmark::DoNotOptimize(pool.size() + evicted);
}

void BM_CandidatePoolBoundedStream(benchmark::State& state) {
  const auto stream = MakeStream(4096, 42);
  CandidatePool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) CandidatePoolStreamPass(pool, stream);
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_CandidatePoolBoundedStream)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

// A recorded best-first op stream: for each query a reset, then the
// frontier operations the CPU preset's search issued, in order — an
// expansion of the best unexpanded entry, or the admission of one scored
// candidate. Unlike the bounded stream above, whose candidates are mostly
// rejected by a full pool, about half of these enter the frontier.
struct SearchStream {
  enum class Op : uint8_t { kReset, kExpand, kAdmit };
  size_t ef = 0;
  std::vector<Op> ops;
  std::vector<Neighbor> admitted;  ///< kAdmit payloads, in op order
  size_t queries = 0;
  size_t admits = 0;  ///< candidates the recording pool accepted
};

// Records the stream of best-first searches (CandidatePool, epoch visited
// set, one entry at vertex 0) on a nytimes-like preset: 4000 × 256-d
// cosine, an NSW graph of degree 16, 32 queries.
SearchStream RecordSearchStream(size_t ef) {
  static const SyntheticData data =
      GenerateSynthetic(PresetSpec("nytimes", 0.5));
  static const FixedDegreeGraph graph = [] {
    NswBuildOptions options;
    options.num_threads = 1;
    return NswBuilder::Build(data.points, Metric::kCosine, options);
  }();
  const BatchDistance batch(Metric::kCosine, &data.points);
  SearchStream s;
  s.ef = ef;
  CandidatePool pool;
  EpochVisitedSet visited;
  const size_t num_queries = std::min<size_t>(32, data.queries.num());
  for (idx_t q = 0; q < num_queries; ++q) {
    const float* query = data.queries.Row(q);
    const float qn = batch.QueryNormSqr(query);
    size_t evicted = 0;
    const auto admit = [&](idx_t v) {
      const Neighbor n(batch.Compute(query, qn, v), v);
      s.ops.push_back(SearchStream::Op::kAdmit);
      s.admitted.push_back(n);
      s.admits += pool.Insert(n, &evicted) ? 1 : 0;
    };
    s.ops.push_back(SearchStream::Op::kReset);
    pool.Reset(ef);
    visited.Reset(data.points.num());
    visited.Insert(0);
    admit(0);
    while (pool.HasUnexpanded()) {
      s.ops.push_back(SearchStream::Op::kExpand);
      const idx_t u = pool.ExpandNext().id;
      for (const idx_t v : graph.Neighbors(u)) {
        if (visited.Insert(v)) admit(v);
      }
    }
    ++s.queries;
  }
  return s;
}

const SearchStream& RecordedStream(size_t ef) {
  static const SearchStream s64 = RecordSearchStream(64);
  static const SearchStream s192 = RecordSearchStream(192);
  return ef == 64 ? s64 : s192;
}

void CandidatePoolSearchPass(CandidatePool& pool, const SearchStream& s) {
  size_t evicted = 0;
  size_t next = 0;
  for (const SearchStream::Op op : s.ops) {
    switch (op) {
      case SearchStream::Op::kReset:
        pool.Reset(s.ef);
        break;
      case SearchStream::Op::kExpand:
        benchmark::DoNotOptimize(pool.ExpandNext());
        break;
      case SearchStream::Op::kAdmit:
        pool.Insert(s.admitted[next++], &evicted);
        break;
    }
  }
  benchmark::DoNotOptimize(pool.size() + evicted);
}

// hnswlib's searchBaseLayer frontier on the same stream: an unbounded
// candidate min-heap plus an ef-bounded result max-heap, O(log ef) per
// admission. Heaps are vectors so storage is reused across passes.
void TwoHeapSearchPass(std::vector<Neighbor>& candidates,
                       std::vector<Neighbor>& top, const SearchStream& s) {
  size_t next = 0;
  for (const SearchStream::Op op : s.ops) {
    switch (op) {
      case SearchStream::Op::kReset:
        candidates.clear();
        top.clear();
        break;
      case SearchStream::Op::kExpand:
        if (!candidates.empty()) {
          std::pop_heap(candidates.begin(), candidates.end(),
                        std::greater<>());
          benchmark::DoNotOptimize(candidates.back());
          candidates.pop_back();
        }
        break;
      case SearchStream::Op::kAdmit: {
        const Neighbor& n = s.admitted[next++];
        if (top.size() < s.ef || n.dist < top.front().dist) {
          candidates.push_back(n);
          std::push_heap(candidates.begin(), candidates.end(),
                         std::greater<>());
          top.push_back(n);
          std::push_heap(top.begin(), top.end());
          if (top.size() > s.ef) {
            std::pop_heap(top.begin(), top.end());
            top.pop_back();
          }
        }
        break;
      }
    }
  }
  benchmark::DoNotOptimize(candidates.size() + top.size());
}

void BM_CandidatePoolSearchStream(benchmark::State& state) {
  const SearchStream& s = RecordedStream(static_cast<size_t>(state.range(0)));
  CandidatePool pool(s.ef);
  for (auto _ : state) CandidatePoolSearchPass(pool, s);
  state.SetItemsProcessed(state.iterations() * s.admitted.size());
}
BENCHMARK(BM_CandidatePoolSearchStream)->Arg(64)->Arg(192);

void BM_TwoHeapSearchStream(benchmark::State& state) {
  const SearchStream& s = RecordedStream(static_cast<size_t>(state.range(0)));
  std::vector<Neighbor> candidates;
  std::vector<Neighbor> top;
  for (auto _ : state) TwoHeapSearchPass(candidates, top, s);
  state.SetItemsProcessed(state.iterations() * s.admitted.size());
}
BENCHMARK(BM_TwoHeapSearchStream)->Arg(64)->Arg(192);

// Naive alternative: unbounded binary heap + lazy truncation (what a direct
// CPU->GPU port would do; unbounded growth is the §IV-C motivation).
void BM_StdPriorityQueueStream(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  const auto stream = MakeStream(4096, 42);
  for (auto _ : state) {
    std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>> q;
    size_t popped = 0;
    for (const Neighbor& n : stream) {
      q.push(n);
      if (q.size() > capacity / 2 && (n.id & 7) == 0) {
        benchmark::DoNotOptimize(q.top());
        q.pop();
        ++popped;
      }
    }
    benchmark::DoNotOptimize(popped + q.size());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_StdPriorityQueueStream)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_BloomInsertContains(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BloomFilter bloom(10 * n);
  for (auto _ : state) {
    bloom.Clear();
    for (idx_t i = 0; i < n; ++i) bloom.Insert(i * 2654435761u);
    size_t hits = 0;
    for (idx_t i = 0; i < n; ++i) hits += bloom.Contains(i * 2654435761u);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_BloomInsertContains)->Arg(128)->Arg(1024)->Arg(8192);

void BM_CuckooInsertEraseCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  CuckooFilter filter(n);
  for (auto _ : state) {
    filter.Clear();
    for (idx_t i = 0; i < n; ++i) filter.Insert(i * 2654435761u);
    for (idx_t i = 0; i < n; i += 2) filter.Erase(i * 2654435761u);
    size_t hits = 0;
    for (idx_t i = 0; i < n; ++i) hits += filter.Contains(i * 2654435761u);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_CuckooInsertEraseCycle)->Arg(128)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------------------
// Structure sweep (runs once from main, before google-benchmark). Each cell
// times the same op mix as its google-benchmark sibling above, best-of-reps
// with a calibrated pass count so scheduler jitter cannot dominate.
// ---------------------------------------------------------------------------

struct StructureResult {
  const char* structure = "";
  size_t size = 0;
  double ns_per_op = 0.0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `one_pass`, amortized over enough passes to
/// fill ~1 ms, divided by `ops` per pass -> ns/op.
template <typename Fn>
double TimeCell(size_t reps, size_t ops, const Fn& one_pass) {
  const double warm_start = Now();
  one_pass();  // warms caches and calibrates the pass count
  const double warm = std::max(Now() - warm_start, 1e-9);
  const size_t passes = std::max<size_t>(1, static_cast<size_t>(1e-3 / warm));
  double best = 1e30;
  for (size_t r = 0; r < reps; ++r) {
    const double start = Now();
    for (size_t p = 0; p < passes; ++p) one_pass();
    best = std::min(best, (Now() - start) / static_cast<double>(passes));
  }
  return best * 1e9 / static_cast<double>(ops);
}

std::string StructuresToJson(const std::vector<StructureResult>& results) {
  std::string out = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"schema_version\": %d,\n"
                "  \"bench\": \"micro_structures\",\n",
                bench::kBenchJsonSchemaVersion);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"git_describe\": \"%s\",\n",
                bench::BenchGitDescribe());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"cpu_tier\": \"%s\",\n  \"active_tier\": \"%s\",\n",
                SimdTierName(CpuSimdTier()), SimdTierName(ActiveSimdTier()));
  out += buf;
  out += "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const StructureResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"structure\": \"%s\", \"size\": %zu, "
                  "\"ns_per_op\": %.3f}%s\n",
                  r.structure, r.size, r.ns_per_op,
                  i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

void RunStructureSweep() {
  const bool smoke = std::getenv("SONG_BENCH_SMOKE") != nullptr;
  const size_t reps = smoke ? 3 : 31;
  std::vector<StructureResult> results;

  std::printf("structure sweep (best of %zu)\n", reps);
  std::printf("%-22s %8s %12s\n", "structure", "size", "ns/op");
  const auto emit = [&](const char* structure, size_t size, double ns) {
    results.push_back({structure, size, ns});
    std::printf("%-22s %8zu %12.2f\n", structure, size, ns);
  };

  const auto stream = MakeStream(4096, 42);
  for (const size_t capacity : {size_t{16}, size_t{64}, size_t{256},
                                size_t{1024}}) {
    PartitionedCandidatePool partitions(capacity);
    emit("song_partitions_bounded_stream", capacity,
         TimeCell(reps, stream.size(),
                  [&] { SongPartitionsStreamPass(partitions, stream); }));
    emit("std_priority_queue_stream", capacity,
         TimeCell(reps, stream.size(), [&] {
           std::priority_queue<Neighbor, std::vector<Neighbor>,
                               std::greater<>> q;
           size_t popped = 0;
           for (const Neighbor& n : stream) {
             q.push(n);
             if (q.size() > capacity / 2 && (n.id & 7) == 0) {
               benchmark::DoNotOptimize(q.top());
               q.pop();
               ++popped;
             }
           }
           benchmark::DoNotOptimize(popped + q.size());
         }));
    CandidatePool pool(capacity);
    emit("candidate_pool_bounded_stream", capacity,
         TimeCell(reps, stream.size(),
                  [&] { CandidatePoolStreamPass(pool, stream); }));
  }

  // Per scored candidate, expansions included.
  for (const size_t ef : {size_t{64}, size_t{192}}) {
    const SearchStream& s = RecordedStream(ef);
    std::printf("  (search stream ef %zu: %zu queries, %.0f candidates per "
                "query, admit ratio %.2f)\n",
                ef, s.queries,
                static_cast<double>(s.admitted.size()) /
                    static_cast<double>(s.queries),
                static_cast<double>(s.admits) /
                    static_cast<double>(s.admitted.size()));
    CandidatePool pool(ef);
    emit("candidate_pool_search_stream", ef,
         TimeCell(reps, s.admitted.size(),
                  [&] { CandidatePoolSearchPass(pool, s); }));
  }

  for (const size_t n : {size_t{128}, size_t{1024}, size_t{8192}}) {
    BloomFilter bloom(10 * n);
    emit("bloom_insert_contains", n, TimeCell(reps, 2 * n, [&] {
           bloom.Clear();
           for (idx_t i = 0; i < n; ++i) bloom.Insert(i * 2654435761u);
           size_t hits = 0;
           for (idx_t i = 0; i < n; ++i) {
             hits += bloom.Contains(i * 2654435761u);
           }
           benchmark::DoNotOptimize(hits);
         }));
    CuckooFilter filter(n);
    emit("cuckoo_insert_erase_cycle", n, TimeCell(reps, 2 * n, [&] {
           filter.Clear();
           for (idx_t i = 0; i < n; ++i) filter.Insert(i * 2654435761u);
           for (idx_t i = 0; i < n; i += 2) filter.Erase(i * 2654435761u);
           size_t hits = 0;
           for (idx_t i = 0; i < n; ++i) {
             hits += filter.Contains(i * 2654435761u);
           }
           benchmark::DoNotOptimize(hits);
         }));
  }

  const char* dir = std::getenv("SONG_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0') {
    const std::string path =
        std::string(dir) + "/BENCH_micro_structures.json";
    if (obs::WriteStringToFile(path, StructuresToJson(results))) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

}  // namespace
}  // namespace song

int main(int argc, char** argv) {
  song::RunStructureSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
