// Copyright 2026 The SONG-Repro Authors.
//
// Knobs and instrumentation for the SONG search pipeline. The option set
// mirrors the paper's §IV/§V parameter space: visited structure, selected
// insertion, visited deletion, queue size (the recall knob), multi-query in
// a warp, and multi-step probing.

#ifndef SONG_SONG_SEARCH_OPTIONS_H_
#define SONG_SONG_SEARCH_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/request_timeline.h"
#include "song/visited_table.h"

namespace song {

/// In-graph distance compression for Stage 2 (the BANG/Faiss-GPU recipe:
/// compressed codes resident on device during traversal, exact-vector rerank
/// of the final pool). kNone keeps the traversal byte-identical to a build
/// without quantization; kPq requires the searcher to have a trained/loaded
/// codebook (SongSearcher::EnablePq) and is rejected otherwise.
enum class QuantizationMode {
  kNone = 0,
  kPq = 1,
};

inline const char* QuantizationModeName(QuantizationMode q) {
  switch (q) {
    case QuantizationMode::kNone:
      return "none";
    case QuantizationMode::kPq:
      return "pq";
  }
  return "unknown";
}

struct SongSearchOptions {
  /// Capacity of the bounded priority queues — the paper's searching
  /// parameter K / "priority queue size", swept to trade QPS for recall.
  /// Clamped up to the number of requested results at search time.
  size_t queue_size = 64;

  /// Which structure backs the visited set (§IV-B / §IV-E).
  VisitedStructure structure = VisitedStructure::kHashTable;

  /// §IV-D: only mark a vertex visited (and enqueue it) when it currently
  /// ranks among the top-queue_size candidates; trades recomputed distances
  /// for a smaller visited set.
  bool selected_insertion = false;

  /// §IV-E: delete vertices from `visited` once they can no longer affect
  /// the result, bounding the table by 2 * queue_size. Requires a structure
  /// with deletion (hash table or Cuckoo filter).
  bool visited_deletion = false;

  /// §V: queries sharing a warp (1, 2 or 4). Executed independently here;
  /// the GPU cost model divides per-warp compute lanes accordingly.
  size_t multi_query = 1;

  /// §V: vertices extracted from the queue per iteration (1 = Algorithm 1).
  size_t multi_step_probe = 1;

  /// Element capacity of the open-addressing / cuckoo visited structure.
  /// 0 = auto: 2*queue_size(+slack) when visited_deletion is on, otherwise
  /// a generous multiple of queue_size (the structure lives in GPU global
  /// memory in the paper's un-optimized configuration).
  size_t hash_capacity = 0;

  /// Bloom filter bit budget; 0 = the paper's ~300 u32 (9600 bits).
  size_t bloom_bits = 0;

  /// Per-query wall-clock budget in microseconds; 0 = unlimited. When the
  /// budget expires mid-search the loop stops and the best-so-far top-k is
  /// returned with the query tagged degraded. The check is one steady-clock
  /// read per iteration and is skipped entirely when 0, so results with the
  /// budget off are bit-identical to a build without this feature.
  uint64_t deadline_us = 0;

  /// Per-query simulated-cost budget; 0 = unlimited. Units are Stage 2
  /// distance computations — the counter the GPU cost model prices as the
  /// dominant kernel term — so unlike deadline_us this budget is exactly
  /// reproducible across machines and runs. When exceeded the search stops
  /// and returns best-so-far, tagged degraded.
  uint64_t cost_budget = 0;

  /// Stage-2 distance compression. kPq runs the traversal over m-byte PQ
  /// codes with a per-query ADC lookup table, then reranks the final pool
  /// with exact distances. Off by default; quantization-off searches are
  /// bit-identical to a build without this feature.
  QuantizationMode quant = QuantizationMode::kNone;

  /// Size of the candidate pool reranked with exact distances when quant ==
  /// kPq (clamped to [k, ef]). 0 = auto: min(ef, max(4*k, 32)). Larger pools
  /// recover more of the quantization error at the cost of one full-vector
  /// fetch per pool entry; ignored when quantization is off.
  size_t rerank_depth = 0;

  /// Presets matching the Fig 7 series names.
  static SongSearchOptions HashTable() { return SongSearchOptions{}; }
  static SongSearchOptions HashTableSel() {
    SongSearchOptions o;
    o.selected_insertion = true;
    return o;
  }
  static SongSearchOptions HashTableSelDel() {
    SongSearchOptions o;
    o.selected_insertion = true;
    o.visited_deletion = true;
    return o;
  }
  static SongSearchOptions Bloom() {
    SongSearchOptions o;
    o.structure = VisitedStructure::kBloomFilter;
    o.selected_insertion = true;
    return o;
  }
  static SongSearchOptions Cuckoo() {
    SongSearchOptions o;
    o.structure = VisitedStructure::kCuckooFilter;
    o.selected_insertion = true;
    o.visited_deletion = true;
    return o;
  }
  /// The CPU deployment (§VIII-I): a dense epoch-stamped visited array and
  /// no recomputation trade-offs — on the host, memory is cheap and
  /// distance recomputation is not.
  static SongSearchOptions CpuEngineered() {
    SongSearchOptions o;
    o.structure = VisitedStructure::kEpochArray;
    return o;
  }

  std::string Name() const {
    std::string name = VisitedStructureName(structure);
    if (structure == VisitedStructure::kHashTable) {
      if (selected_insertion) name += "-sel";
      if (visited_deletion) name += "-del";
    }
    if (quant == QuantizationMode::kPq) name += "-pq";
    return name;
  }

  /// FNV-1a digest over every search-affecting knob plus k, identifying
  /// this request's configuration in flight-recorder records without
  /// storing strings. Stable across runs on the same build; two requests
  /// share a digest iff they ran the same (options, k).
  uint64_t Digest(size_t k) const {
    const uint64_t knobs[] = {static_cast<uint64_t>(k),
                              static_cast<uint64_t>(queue_size),
                              static_cast<uint64_t>(structure),
                              selected_insertion ? 1u : 0u,
                              visited_deletion ? 1u : 0u,
                              static_cast<uint64_t>(multi_query),
                              static_cast<uint64_t>(multi_step_probe),
                              static_cast<uint64_t>(hash_capacity),
                              static_cast<uint64_t>(bloom_bits),
                              deadline_us,
                              cost_budget,
                              static_cast<uint64_t>(quant),
                              static_cast<uint64_t>(rerank_depth)};
    uint64_t h = obs::kFnv1aOffset;
    for (const uint64_t v : knobs) h = obs::Fnv1aMix(h, v);
    return h;
  }
};

/// Warp-level work counters collected during search. Each counter maps to a
/// concrete GPU cost in gpusim::CostModel; they also serve as the
/// computation-vs-memory trade-off evidence for the §IV-D/E optimizations.
/// The q_* and topk_* counters name SONG's queue and top-K heap; under the
/// CPU preset's CandidatePool frontier the q_* counters count the pool's
/// expansions, admissions, push-outs and refusals, and topk_* stay 0
/// (docs/observability.md).
struct SearchStats {
  // Stage 1 — candidate locating.
  size_t iterations = 0;           ///< main-loop rounds (kernel iterations);
                                   ///< the pool skips the SMMH's final
                                   ///< terminating round
  size_t vertices_expanded = 0;    ///< queue pops processed
  size_t graph_rows_loaded = 0;    ///< fixed-degree rows fetched
  size_t graph_bytes_loaded = 0;
  size_t q_pops = 0;

  // Stage 2 — bulk distance computation.
  size_t distance_computations = 0;
  size_t data_bytes_loaded = 0;    ///< candidate payloads fetched (vectors,
                                   ///< or m-byte codes under quant == kPq)

  // Quantized traversal (options.quant == kPq; all zero otherwise).
  size_t adc_tables_built = 0;     ///< one per query on the PQ path
  size_t adc_table_build_ns = 0;   ///< wall time spent building ADC tables
  size_t rerank_candidates = 0;    ///< final-pool entries rescored exactly
  size_t rerank_bytes_loaded = 0;  ///< full vectors fetched for the rerank

  // Stage 3 — data structure maintenance.
  size_t q_pushes = 0;
  size_t q_evictions = 0;
  size_t q_rejections = 0;
  size_t topk_pushes = 0;
  size_t topk_evictions = 0;
  size_t visited_tests = 0;
  size_t visited_insertions = 0;
  size_t visited_deletions = 0;
  size_t visited_insert_failures = 0;  ///< saturated structure
  size_t selected_insertion_skips = 0; ///< candidates filtered by §IV-D
  size_t budget_terminations = 0;      ///< searches cut short by a budget

  // Memory accounting.
  size_t visited_capacity_bytes = 0;  ///< allocated visited footprint
  size_t peak_visited_size = 0;       ///< max live entries
  size_t queue_bytes = 0;             ///< q + topk allocation

  void Add(const SearchStats& other) {
    iterations += other.iterations;
    vertices_expanded += other.vertices_expanded;
    graph_rows_loaded += other.graph_rows_loaded;
    graph_bytes_loaded += other.graph_bytes_loaded;
    q_pops += other.q_pops;
    distance_computations += other.distance_computations;
    data_bytes_loaded += other.data_bytes_loaded;
    adc_tables_built += other.adc_tables_built;
    adc_table_build_ns += other.adc_table_build_ns;
    rerank_candidates += other.rerank_candidates;
    rerank_bytes_loaded += other.rerank_bytes_loaded;
    q_pushes += other.q_pushes;
    q_evictions += other.q_evictions;
    q_rejections += other.q_rejections;
    topk_pushes += other.topk_pushes;
    topk_evictions += other.topk_evictions;
    visited_tests += other.visited_tests;
    visited_insertions += other.visited_insertions;
    visited_deletions += other.visited_deletions;
    visited_insert_failures += other.visited_insert_failures;
    selected_insertion_skips += other.selected_insertion_skips;
    budget_terminations += other.budget_terminations;
    visited_capacity_bytes = std::max(visited_capacity_bytes,
                                      other.visited_capacity_bytes);
    peak_visited_size = std::max(peak_visited_size, other.peak_visited_size);
    queue_bytes = std::max(queue_bytes, other.queue_bytes);
  }
};

}  // namespace song

#endif  // SONG_SONG_SEARCH_OPTIONS_H_
