// Copyright 2026 The SONG-Repro Authors.
//
// Per-query search traces: one row per 3-stage iteration of the SONG
// pipeline (hops, frontier size, heap/hash occupancy, distance computations
// and the per-stage counter deltas the GPU cost model prices into simulated
// kernel spans). Tracing is opt-in per query behind a deterministic 1-in-M
// sampler, so leaving it wired costs one null check per iteration.
//
// Leaf header (cstdint/string/vector only): search_core.h records into these
// structs, gpusim prices them, obs/exporters.h renders them.

#ifndef SONG_OBS_TRACE_H_
#define SONG_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.h"

namespace song::obs {

/// Counter deltas and occupancy snapshot for one main-loop iteration.
/// Row 0 is the seed round: its `candidates` and `dist_comps` are the
/// claimed seeds S, with up to S visited inserts and queue pushes and no
/// graph row, pop or visited test; rows 1..n are loop iterations.
///
/// Fields name SONG's `q` and `topk`. Under the CPU preset's CandidatePool
/// frontier (song/search_core.h) one sorted pool plays both roles; the
/// per-field notes give that reading after "pool:". The pool runs no final
/// terminating round, so its query has one row fewer.
struct TraceIterationRow {
  uint32_t iteration = 0;

  // Occupancy at the end of the iteration.
  uint32_t frontier_size = 0;  ///< q live entries (pool: unexpanded entries,
                               ///< boundary ties included)
  uint32_t topk_size = 0;      ///< topk live entries (pool: expanded entries)
  uint32_t visited_size = 0;   ///< visited-structure live entries

  // Stage 1 — candidate locating.
  uint32_t rows_loaded = 0;
  uint32_t q_pops = 0;         ///< q pops (pool: expansions)
  uint32_t visited_tests = 0;

  // Stage 2 — bulk distance computation.
  uint32_t candidates = 0;     ///< stage-2 batch width
  uint32_t dist_comps = 0;

  // Stage 3 — data structure maintenance.
  uint32_t heap_pushes = 0;    ///< q pushes + evictions (pool: admissions +
                               ///< entries they pushed out)
  uint32_t topk_ops = 0;       ///< topk pushes + evictions (pool: always 0)
  uint32_t visited_inserts = 0;  ///< (pool: marked in Stage 1, same row)
  uint32_t visited_deletes = 0;
};

/// Why the main loop stopped. Anything but kConverged means the result is
/// best-so-far (the query was tagged degraded); exporters attach the name
/// to the query span so Chrome traces show why a degraded query stopped.
enum class TraceTermination : uint8_t {
  kConverged = 0,   ///< frontier ran dry (Algorithm 1's natural exit)
  kDeadline = 1,    ///< options.deadline_us expired mid-search
  kCostBudget = 2,  ///< options.cost_budget distance computations reached
};

inline const char* TraceTerminationName(TraceTermination t) {
  switch (t) {
    case TraceTermination::kConverged:
      return "converged";
    case TraceTermination::kDeadline:
      return "deadline";
    case TraceTermination::kCostBudget:
      return "cost_budget";
  }
  return "unknown";
}

/// The full trace of one sampled query.
struct SearchTrace {
  uint64_t query_id = 0;
  uint32_t k = 0;
  uint32_t queue_size = 0;
  std::string config;  ///< SongSearchOptions::Name() of the run
  double wall_micros = 0.0;
  TraceTermination termination = TraceTermination::kConverged;
  std::vector<TraceIterationRow> rows;

  size_t Hops() const { return rows.empty() ? 0 : rows.size() - 1; }
  size_t DistanceComputations() const {
    size_t total = 0;
    for (const TraceIterationRow& r : rows) total += r.dist_comps;
    return total;
  }
};

/// Deterministic 1-in-M sampler: whether query `id` is traced depends only
/// on (seed, period, id) — never on thread scheduling — so repeated runs
/// trace the same queries and tests can replay decisions exactly.
class TraceSampler {
 public:
  /// period 0 disables sampling entirely; period 1 traces every query;
  /// period M traces ~1 in M.
  TraceSampler(uint32_t period, uint64_t seed)
      : period_(period), seed_(seed) {}

  bool ShouldSample(uint64_t query_id) const {
    if (period_ == 0) return false;
    if (period_ == 1) return true;
    return Mix(seed_ ^ query_id) % period_ == 0;
  }

  uint32_t period() const { return period_; }

 private:
  // splitmix64 finalizer: full avalanche, so consecutive query ids decorrelate.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  uint32_t period_ = 0;
  uint64_t seed_ = 0;
};

/// Thread-safe sink for completed traces (batch workers append under a
/// mutex; the mutex is touched only for sampled queries).
class TraceCollector {
 public:
  explicit TraceCollector(size_t max_traces = 4096)
      : max_traces_(max_traces) {}

  /// Moves `trace` in; drops it (returning false) once the cap is reached.
  bool Add(SearchTrace&& trace) SONG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (traces_.size() >= max_traces_) {
      ++dropped_;
      return false;
    }
    traces_.push_back(std::move(trace));
    return true;
  }

  std::vector<SearchTrace> Take() SONG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(traces_);
  }

  size_t dropped() const SONG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return dropped_;
  }

 private:
  mutable Mutex mu_;
  std::vector<SearchTrace> traces_ SONG_GUARDED_BY(mu_);
  size_t dropped_ SONG_GUARDED_BY(mu_) = 0;
  size_t max_traces_ = 0;  ///< immutable after construction
};

}  // namespace song::obs

#endif  // SONG_OBS_TRACE_H_
