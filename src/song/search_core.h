// Copyright 2026 The SONG-Repro Authors.
//
// Distance-agnostic core of the SONG 3-stage pipeline. Instantiated with a
// float distance callable over vertex ids, it serves both the dense float
// searcher (src/song/song_searcher.*) and the Hamming searcher over 1-bit
// random-projection codes (src/hashing/, paper §VII) — on the GPU these are
// the same kernel with a different bulk-distance routine.

#ifndef SONG_SONG_SEARCH_CORE_H_
#define SONG_SONG_SEARCH_CORE_H_

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "core/candidate_pool.h"
#include "core/debug_hooks.h"
#include "core/epoch_visited_set.h"
#include "core/timer.h"
#include "core/types.h"
#include "graph/fixed_degree_graph.h"
#include "obs/trace.h"
#include "song/search_options.h"
#include "song/visited_table.h"

namespace song {

/// Reusable per-thread scratch space (no allocation on the search hot path
/// once warmed — mirroring the kernel's fixed shared-memory layout).
class SongWorkspace {
 public:
  PartitionedCandidatePool queue;  ///< SongFrontier: SONG's q and topk
  CandidatePool pool;              ///< PoolFrontier (the CPU preset)
  VisitedTable visited;
  std::vector<idx_t> candidates;
  std::vector<float> dists;
  // Quantized traversal scratch (untouched when options.quant == kNone):
  // the per-query ADC lookup table and the exact-rerank staging arrays.
  std::vector<float> adc_table;
  std::vector<idx_t> rerank_ids;
  std::vector<float> rerank_dists;
};

/// The seed list a searcher over `num_points` vertices of a degree-`degree`
/// graph scores as round 0 (docs/algorithms.md, "Seeding"): `entry` first,
/// then the grid vertices floor(i * num_points / degree) for i = 1, ...,
/// degree - 1 and finally i = 0, duplicates dropped, min(degree, num_points)
/// ids in all. One Stage-2 batch of candidates spread evenly over the id
/// range; `entry` stays in the list because it is the vertex every other one
/// is kept reachable from (NswBuilder::RepairConnectivity).
inline std::vector<idx_t> SeedList(size_t num_points, size_t degree,
                                   idx_t entry) {
  std::vector<idx_t> seeds;
  if (num_points == 0) return seeds;
  degree = std::max<size_t>(degree, 1);
  const size_t count = std::min(degree, num_points);
  seeds.reserve(count);
  seeds.push_back(entry);
  for (size_t i = 1; i <= degree && seeds.size() < count; ++i) {
    const idx_t v = static_cast<idx_t>(i % degree * num_points / degree);
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }
  return seeds;
}

namespace internal {

/// Auto-sizes the exact-structure visited capacity (paper §IV-A: "the length
/// is proportional to the searching parameter K and can be pre-computed").
/// The epoch array is unbounded, so its capacity goes unused.
inline size_t AutoHashCapacity(const SongSearchOptions& options,
                               size_t queue_size, size_t num_points) {
  if (options.hash_capacity != 0) return options.hash_capacity;
  size_t cap;
  if (options.visited_deletion) {
    // visited ⊆ q ∪ topk, so 2 * queue_size (+ slack for in-flight batch).
    cap = 2 * queue_size + 64;
  } else if (options.selected_insertion) {
    // Insertions are filtered but never reclaimed.
    cap = 16 * queue_size + 256;
  } else {
    // Unbounded in principle (global-memory table in the paper).
    cap = 64 * queue_size + 1024;
  }
  return std::min(cap, num_points + 1);
}

}  // namespace internal

namespace internal {

/// Appends one trace row holding the counter deltas since `before` and the
/// current structure occupancy. Only runs for sampled queries.
inline void AppendTraceRow(obs::SearchTrace* trace, uint32_t iteration,
                           const SearchStats& before, const SearchStats& now,
                           size_t frontier, size_t topk, size_t visited,
                           size_t candidates) {
  obs::TraceIterationRow row;
  row.iteration = iteration;
  row.frontier_size = static_cast<uint32_t>(frontier);
  row.topk_size = static_cast<uint32_t>(topk);
  row.visited_size = static_cast<uint32_t>(visited);
  row.rows_loaded =
      static_cast<uint32_t>(now.graph_rows_loaded - before.graph_rows_loaded);
  row.q_pops = static_cast<uint32_t>(now.q_pops - before.q_pops);
  row.visited_tests =
      static_cast<uint32_t>(now.visited_tests - before.visited_tests);
  row.candidates = static_cast<uint32_t>(candidates);
  row.dist_comps = static_cast<uint32_t>(now.distance_computations -
                                         before.distance_computations);
  row.heap_pushes = static_cast<uint32_t>(
      (now.q_pushes + now.q_evictions) - (before.q_pushes + before.q_evictions));
  row.topk_ops = static_cast<uint32_t>(
      (now.topk_pushes + now.topk_evictions) -
      (before.topk_pushes + before.topk_evictions));
  row.visited_inserts = static_cast<uint32_t>(now.visited_insertions -
                                              before.visited_insertions);
  row.visited_deletes = static_cast<uint32_t>(now.visited_deletions -
                                              before.visited_deletions);
  trace->rows.push_back(row);
}

/// True when `options` describe the CPU deployment's search: an exact dense
/// visited array and no §IV-D/E rules. Such a search runs on PoolFrontier;
/// every other preset runs on SongFrontier.
inline bool UsesCandidatePool(const SongSearchOptions& options) {
  return options.structure == VisitedStructure::kEpochArray &&
         !options.selected_insertion && !options.visited_deletion;
}

/// The GPU-faithful frontier (§IV-C): SONG's bounded queue `q` and its
/// top-K, kept as the unexpanded and expanded partitions of one sorted
/// PartitionedCandidatePool (each bounded at ef), over any visited
/// structure, with selected insertion (§IV-D) and visited deletion (§IV-E).
/// Vertices are marked visited in Stage 3, after their distance is known.
/// `Visited` is resolved once per query (SongSearchCore): the exact
/// structures run on the dispatch-free CappedEpochSet, the Bloom and Cuckoo
/// filters through `VisitedTable&`.
template <typename Visited>
class SongFrontier {
 public:
  SongFrontier(SongWorkspace* workspace, const SongSearchOptions& options,
               size_t ef, size_t num_points, SearchStats* local)
      : queue_(workspace->queue),
        visited_(ResetVisited(workspace->visited, options, ef, num_points)),
        selected_insertion_(options.selected_insertion),
        deletion_ok_(options.visited_deletion &&
                     options.structure != VisitedStructure::kBloomFilter) {
    queue_.Reset(ef);
    local->visited_capacity_bytes = workspace->visited.MemoryBytes();
    // The kernel's fixed layout: the min-max heap q (ef + 2 slots) and
    // topk (ef).
    local->queue_bytes = (ef + 2 + ef) * sizeof(Neighbor);
  }

  bool HasNext() const { return queue_.HasUnexpanded(); }
  idx_t PeekNext() const { return queue_.Next().id; }

  /// Pops the queue minimum into topk, or returns false when Algorithm 1
  /// terminates: topk is full and the minimum is strictly farther than its
  /// worst (equal-distance vertices are still expanded — this matters for
  /// coarse distances such as integer Hamming, where ties are common).
  bool PopNext(Neighbor* now, SearchStats& local) {
    idx_t evicted = kInvalidIdx;
    if (!queue_.ExpandBounded(now, &evicted)) return false;
    ++local.topk_pushes;
    if (evicted != kInvalidIdx) {
      ++local.topk_evictions;
      if (deletion_ok_) {
        visited_.Erase(evicted);
        ++local.visited_deletions;
      }
    }
    // A popped vertex that failed to enter topk is always an exact distance
    // tie with topk's worst (strictly worse ones terminate above). It stays
    // in `visited` — §IV-E's deletion rule only covers vertices strictly
    // worse than the whole top-K, and erasing a tie here could let two tied
    // neighbors re-enqueue each other forever.
    return true;
  }

  /// Stage 1 filter: `v` joins this round's batch iff it is unvisited and
  /// not already in the batch (multi-step pops can share neighbors; the GPU
  /// kernel performs the same warp-local check to preserve queue integrity).
  bool Claim(idx_t v, const std::vector<idx_t>& batch,
             SearchStats& /*local*/) const {
    if (visited_.Test(v)) return false;
    for (const idx_t c : batch) {
      if (c == v) return false;
    }
    return true;
  }

  /// Stage 3: data structure maintenance (single logical thread).
  void Admit(const idx_t* ids, const float* dists, size_t n,
             SearchStats& local) {
    // Every scored candidate funnels through this loop; kept free of heap
    // allocation and logging (song_lint.py rule `hot-path`).
    // song-lint: begin-hot-path(search-core-song-admit)
    for (size_t i = 0; i < n; ++i) {
      const Neighbor cand(dists[i], ids[i]);
      if (selected_insertion_ && cand.dist > queue_.expanded_bound()) {
        // §IV-D: strictly worse than every current top-K candidate — leave
        // unmarked; it may be re-computed later but will be filtered again.
        ++local.selected_insertion_skips;
        continue;
      }
      // Mark BEFORE enqueueing: every vertex in q must be tracked in
      // `visited`, otherwise a saturated table lets vertices re-enter the
      // queue forever (livelock). A failed insert (saturated structure)
      // skips the vertex — recall degrades gracefully instead.
      if (!visited_.Insert(cand.id)) {
        ++local.visited_insert_failures;
        continue;
      }
      ++local.visited_insertions;
      idx_t evicted = kInvalidIdx;
      if (!queue_.PushUnexpanded(cand, &evicted)) {
        // Bounded queue rejects it (worse than everything enqueued).
        ++local.q_rejections;
        if (deletion_ok_) {
          // §IV-E invariant (visited = q ∪ topk): a never-enqueued vertex
          // leaves the table; it may be re-computed and re-filtered later.
          visited_.Erase(cand.id);
          ++local.visited_deletions;
        }
        continue;
      }
      ++local.q_pushes;
      if (evicted != kInvalidIdx) {
        ++local.q_evictions;
        if (deletion_ok_) {
          visited_.Erase(evicted);
          ++local.visited_deletions;
        }
      }
      local.peak_visited_size =
          std::max(local.peak_visited_size, visited_.size());
    }
    // song-lint: end-hot-path
  }

  size_t frontier_size() const { return queue_.unexpanded(); }
  size_t topk_size() const { return queue_.expanded(); }
  size_t visited_size() const { return visited_.size(); }

  std::vector<Neighbor> TakeResults(size_t k, SearchStats& /*local*/) {
    std::vector<Neighbor> result;
    result.reserve(std::min(k, queue_.expanded()));
    queue_.CopyExpanded(k, &result);
    return result;
  }

 private:
  static Visited ResetVisited(VisitedTable& table,
                              const SongSearchOptions& options, size_t ef,
                              size_t num_points) {
    table.Reset(options.structure, AutoHashCapacity(options, ef, num_points),
                num_points, options.bloom_bits);
    if constexpr (std::is_same_v<Visited, CappedEpochSet>) {
      return table.exact();
    } else {
      return table;
    }
  }

  PartitionedCandidatePool& queue_;
  Visited visited_;
  const bool selected_insertion_;
  const bool deletion_ok_;
};

/// The CPU preset's frontier (UsesCandidatePool): one sorted CandidatePool
/// of capacity ef serves as both q and topk, and Stage 1 test-and-sets the
/// dense EpochVisitedSet directly, so a vertex is marked the moment it joins
/// a batch and no in-batch dedupe is needed. Expands the same vertices in
/// the same order as SongFrontier on the same options; only the final
/// over-the-boundary round SongFrontier spends to discover termination is
/// skipped (docs/algorithms.md).
class PoolFrontier {
 public:
  PoolFrontier(SongWorkspace* workspace, const SongSearchOptions& /*options*/,
               size_t ef, size_t num_points, SearchStats* local)
      : pool_(workspace->pool),
        visited_(workspace->visited.ResetEpoch(num_points)) {
    pool_.Reset(ef);
    local->visited_capacity_bytes = visited_.MemoryBytes();
    local->queue_bytes = pool_.MemoryBytes();
  }

  bool HasNext() const { return pool_.HasUnexpanded(); }
  idx_t PeekNext() const { return pool_.Next().id; }

  /// Every unexpanded pool entry is expandable, so this never terminates:
  /// the loop ends when HasNext() turns false.
  bool PopNext(Neighbor* now, SearchStats& /*local*/) {
    *now = pool_.ExpandNext();
    return true;
  }

  bool Claim(idx_t v, const std::vector<idx_t>& /*batch*/,
             SearchStats& local) {
    if (!visited_.Insert(v)) return false;
    ++local.visited_insertions;
    return true;
  }

  void Admit(const idx_t* ids, const float* dists, size_t n,
             SearchStats& local) {
    // Every scored candidate funnels through this loop; kept free of heap
    // allocation and logging (song_lint.py rule `hot-path`).
    // song-lint: begin-hot-path(search-core-pool-admit)
    size_t evicted = 0;
    size_t admitted = 0;
    for (size_t i = 0; i < n; ++i) {
      admitted += pool_.Insert(Neighbor(dists[i], ids[i]), &evicted) ? 1 : 0;
    }
    local.q_pushes += admitted;
    local.q_rejections += n - admitted;
    local.q_evictions += evicted;
    // song-lint: end-hot-path
  }

  size_t frontier_size() const { return pool_.unexpanded(); }
  size_t topk_size() const { return pool_.expanded(); }
  size_t visited_size() const { return visited_.size(); }

  /// The best k scored vertices. After convergence every one is expanded,
  /// exactly SongFrontier's topk; under a budget stop the pool may also
  /// return scored vertices it had not yet expanded.
  std::vector<Neighbor> TakeResults(size_t k, SearchStats& local) {
    local.peak_visited_size = visited_.size();
    std::vector<Neighbor> result;
    result.reserve(std::min(k, pool_.size()));
    pool_.CopyBest(k, &result);
    return result;
  }

 private:
  CandidatePool& pool_;
  EpochVisitedSet& visited_;
};

/// The one Stage 1/2/3 loop, over either frontier (see SongSearchCore).
/// The work counters are this loop's `local`; each frontier call updates
/// them through the reference it is handed.
template <typename Frontier, typename DistanceFn>
std::vector<Neighbor> RunSearch(const FixedDegreeGraph& graph,
                                std::span<const idx_t> seeds,
                                size_t num_points, size_t point_bytes,
                                DistanceFn& distance, size_t k,
                                const SongSearchOptions& options,
                                SongWorkspace* workspace, SearchStats* stats,
                                obs::SearchTrace* trace, bool* degraded) {
  const size_t ef = std::max(options.queue_size, k);
  SearchStats local;
  Frontier frontier(workspace, options, ef, num_points, &local);
  const size_t degree = graph.degree();
  const size_t multi_step = std::max<size_t>(1, options.multi_step_probe);
  const size_t max_batch = std::max(degree * multi_step, seeds.size());
  std::vector<idx_t>& candidates = workspace->candidates;
  std::vector<float>& dists = workspace->dists;
  candidates.clear();
  candidates.reserve(max_batch);
  dists.clear();
  dists.reserve(max_batch);

  if (trace != nullptr) {
    trace->k = static_cast<uint32_t>(k);
    trace->queue_size = static_cast<uint32_t>(ef);
    trace->config = options.Name();
    trace->rows.clear();
  }

  // Round 0: the seed list stands in for an adjacency row. Its claimed
  // seeds (duplicates drop out) go through the same Stage 2 and Stage 3 as
  // every later round; the round counts no iteration and no visited test.
  if (hooks::search_drop_last_seed && !seeds.empty()) {
    seeds = seeds.first(seeds.size() - 1);
  }
  for (const idx_t s : seeds) {
    if (!frontier.Claim(s, candidates, local)) continue;
    candidates.push_back(s);
    if constexpr (requires { distance.Prefetch(s); }) {
      distance.Prefetch(s);
    }
  }

  const bool has_deadline = options.deadline_us > 0;
  const bool has_cost_budget = options.cost_budget > 0;
  Timer deadline_timer;  // only consulted when has_deadline
  bool budget_exhausted = false;
  SearchStats round_start;  // all zero for round 0
  // One round per pass. Round 0 skips Stage 1: its batch is the seeds.
  for (bool seed_round = true;; seed_round = false) {
    if (!seed_round) {
      if (!frontier.HasNext()) break;
      // Budget gate: graceful degradation returns the best-so-far top-k
      // instead of running the frontier dry. Cost units are deterministic;
      // the wall-clock deadline is the serving-layer knob.
      if (has_cost_budget &&
          local.distance_computations >= options.cost_budget) {
        budget_exhausted = true;
        if (trace != nullptr) {
          trace->termination = obs::TraceTermination::kCostBudget;
        }
        break;
      }
      if (has_deadline &&
          deadline_timer.ElapsedMicros() >=
              static_cast<double>(options.deadline_us)) {
        budget_exhausted = true;
        if (trace != nullptr) {
          trace->termination = obs::TraceTermination::kDeadline;
        }
        break;
      }
      ++local.iterations;
      if (trace != nullptr) round_start = local;

      // ---- Stage 1: candidate locating. ----
      candidates.clear();
      bool terminate = false;
      for (size_t step = 0; step < multi_step && frontier.HasNext(); ++step) {
        Neighbor now;
        if (!frontier.PopNext(&now, local)) {
          if (step == 0) terminate = true;
          break;
        }
        ++local.q_pops;
        ++local.vertices_expanded;

        const idx_t* row = graph.Row(now.id);
        ++local.graph_rows_loaded;
        local.graph_bytes_loaded += degree * sizeof(idx_t);
        for (size_t i = 0; i < degree && row[i] != kInvalidIdx; ++i) {
          const idx_t v = row[i];
          ++local.visited_tests;
          if (!frontier.Claim(v, candidates, local)) continue;
          candidates.push_back(v);
          if constexpr (requires { distance.Prefetch(v); }) {
            distance.Prefetch(v);
          }
        }
      }
      // Hint the next frontier row one hop ahead: Stage 2/3 run long enough
      // to cover the adjacency-row load of the next Stage 1 round.
      if (frontier.HasNext()) {
        graph.PrefetchRow(frontier.PeekNext());
      }
      if (terminate || candidates.empty()) {
        if (trace != nullptr) {
          AppendTraceRow(trace, static_cast<uint32_t>(local.iterations),
                         round_start, local, frontier.frontier_size(),
                         frontier.topk_size(), frontier.visited_size(),
                         candidates.size());
        }
        if (terminate) break;
        continue;
      }
    }

    // ---- Stage 2: bulk distance computation. ----
    // The per-iteration inner loop every candidate funnels through; kept
    // free of heap allocation and logging (song_lint.py rule `hot-path`;
    // the resize below never allocates — capacity for the largest batch,
    // the seed list or degree * multi_step entries, is reserved before the
    // loop).
    // song-lint: begin-hot-path(search-core-stage2)
    dists.resize(candidates.size());
    if constexpr (requires {
                    distance.ComputeBatch(candidates.data(),
                                          candidates.size(), dists.data());
                  }) {
      distance.ComputeBatch(candidates.data(), candidates.size(),
                            dists.data());
    } else {
      for (size_t i = 0; i < candidates.size(); ++i) {
        dists[i] = distance(candidates[i]);
      }
    }
    local.distance_computations += candidates.size();
    local.data_bytes_loaded += candidates.size() * point_bytes;
    // song-lint: end-hot-path

    // ---- Stage 3: data structure maintenance. ----
    frontier.Admit(candidates.data(), dists.data(), candidates.size(), local);

    if (trace != nullptr) {
      // Row 0 is the seed round: its candidates are the claimed seeds.
      AppendTraceRow(trace, static_cast<uint32_t>(local.iterations),
                     round_start, local, frontier.frontier_size(),
                     frontier.topk_size(), frontier.visited_size(),
                     candidates.size());
    }
  }

  if (budget_exhausted) ++local.budget_terminations;
  if (degraded != nullptr) *degraded = budget_exhausted;
  std::vector<Neighbor> result = frontier.TakeResults(k, local);
  if (stats != nullptr) stats->Add(local);
  return result;
}

}  // namespace internal

/// Runs the decoupled search (candidate locating -> bulk distance ->
/// maintenance) and returns the k closest vertices found, ascending.
///
/// The search starts from `seeds` (SeedList for every searcher; any ids,
/// duplicates allowed): round 0 claims, scores and admits them exactly as a
/// later round does one adjacency row, so it costs one Stage-2 batch and
/// the §IV-C/D/E rules already apply to it. A one-id list `{entry}` is the
/// classic single-entry search. Round 0 counts its distances, their bytes
/// and its visited insertions and queue pushes, but no iteration and no
/// visited test.
///
/// The frontier is a compile-time policy of the one Stage 1/2/3 loop, and
/// both frontiers are sorted candidate pools. The CPU preset
/// (internal::UsesCandidatePool: epoch-array visited, no §IV-D/E rules)
/// runs on PoolFrontier's CandidatePool; every other configuration runs on
/// SongFrontier, SONG's bounded queue and top-K as the two partitions of a
/// PartitionedCandidatePool, whose visited structure is resolved here too:
/// the exact ones on CappedEpochSet, the filters on VisitedTable. Both
/// frontiers expand the same vertices in the same order and return the
/// same neighbors; PoolFrontier skips SongFrontier's final round that only
/// discovers termination, so its `iterations` counts expansion rounds.
///
/// Budgets (options.deadline_us / options.cost_budget) are checked once per
/// main-loop round; on exhaustion the search stops and returns the best-so-
/// far top-k, setting `*degraded` (when provided) so callers can tag the
/// result. Both default to off, in which case no budget code runs and the
/// iteration order — and therefore the result — is byte-identical to a
/// budget-free build.
///
/// `distance(v)` returns the query-to-vertex score (smaller = closer);
/// `point_bytes` is the per-vertex payload fetched by the bulk-distance
/// stage (for memory-traffic accounting). When `trace` is non-null the
/// search also records one obs::TraceIterationRow per iteration — the cost
/// is a null check per round for untraced queries, so tracing N-in-M
/// queries leaves the hot path unchanged.
///
/// Two optional hooks on the distance callable, detected at compile time so
/// plain lambdas keep working unchanged:
///  - `distance.ComputeBatch(ids, n, out)` — Stage 2 computes the whole
///    candidate batch in one fused call (the warp-parallel bulk-distance
///    stage of the paper) instead of a per-id loop. Must produce exactly
///    the same values as `distance(id)`.
///  - `distance.Prefetch(v)` — Stage 1 hints each accepted candidate's
///    vector into cache while expansion continues, hiding the Stage 2
///    gather latency.
template <typename DistanceFn>
std::vector<Neighbor> SongSearchCore(const FixedDegreeGraph& graph,
                                     std::span<const idx_t> seeds,
                                     size_t num_points,
                                     size_t point_bytes, DistanceFn&& distance,
                                     size_t k,
                                     const SongSearchOptions& options,
                                     SongWorkspace* workspace,
                                     SearchStats* stats,
                                     obs::SearchTrace* trace = nullptr,
                                     bool* degraded = nullptr) {
  if (internal::UsesCandidatePool(options)) {
    return internal::RunSearch<internal::PoolFrontier>(
        graph, seeds, num_points, point_bytes, distance, k, options, workspace,
        stats, trace, degraded);
  }
  if (IsExactVisited(options.structure)) {
    return internal::RunSearch<internal::SongFrontier<CappedEpochSet>>(
        graph, seeds, num_points, point_bytes, distance, k, options, workspace,
        stats, trace, degraded);
  }
  return internal::RunSearch<internal::SongFrontier<VisitedTable&>>(
      graph, seeds, num_points, point_bytes, distance, k, options, workspace,
      stats, trace, degraded);
}

}  // namespace song

#endif  // SONG_SONG_SEARCH_CORE_H_
