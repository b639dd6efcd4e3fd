// Copyright 2026 The SONG-Repro Authors.
//
// Deterministic seed-driven fuzz runners for the differential harness. Every
// runner derives all randomness from an explicit 64-bit seed (xoshiro256**,
// never std::random_device), returns a DifferentialReport instead of
// asserting, and embeds the offending seed + round in the first divergence
// message — so (a) any failure reproduces exactly from the logged seed and
// (b) the planted-mutation self-test can assert that a runner *does* detect
// a bug without tripping gtest itself.
//
// The base seed comes from the SONG_FUZZ_SEED environment variable when set
// (decimal or 0x-hex), else a fixed default: runs are deterministic either
// way, and a failure log always tells you how to replay it.

#ifndef SONG_TESTS_HARNESS_FUZZ_H_
#define SONG_TESTS_HARNESS_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "song/visited_table.h"

namespace song::harness {

/// Base seed for this process: SONG_FUZZ_SEED env override or the default.
/// Cached after the first call.
uint64_t BaseSeed();

/// Human-readable one-liner naming the active base seed and how to override
/// it; printed once by the harness gtest environment.
std::string SeedBanner();

/// Outcome of a differential run. `failures` counts divergences from the
/// oracle; `first_divergence` carries the seed, round and op that diverged.
struct DifferentialReport {
  size_t checks = 0;
  size_t failures = 0;
  size_t pool_rounds = 0;  ///< search rounds run on the CandidatePool frontier
  std::string first_divergence;

  void Fail(const std::string& message) {
    ++failures;
    if (first_divergence.empty()) first_divergence = message;
  }
};

// --- Structure-vs-oracle fuzzers (one randomized op sequence per round). ---

/// PartitionedCandidatePool (SONG's q and topk as the unexpanded and
/// expanded partitions of one sorted array) vs a pair of multiset oracles,
/// one per heap: PushUnexpanded / ExpandBounded / Reset sequences over
/// tie-heavy (dist, id) streams; checks every return value, evicted id and
/// partition size, the queue minimum and the top-K bound after every op,
/// and both partitions' full contents.
DifferentialReport FuzzSongPartitionsVsOracle(uint64_t seed, size_t rounds);

/// VisitedTable with an exact structure (kHashTable or kEpochArray) vs the
/// capacity-modelled set oracle: Insert/Test/Erase/Clear sequences, mixing
/// ample and deliberately tight capacities to exercise saturation.
DifferentialReport FuzzExactVisitedVsOracle(VisitedStructure structure,
                                            uint64_t seed, size_t rounds);

/// CuckooFilter one-sided-error contract: no false negatives while every
/// insert has succeeded and only inserted keys are erased; eviction loops
/// terminate under 10x-capacity overload; false-positive rate stays under
/// `max_fp_rate` at the filter's design load.
DifferentialReport FuzzCuckooVsOracle(uint64_t seed, size_t rounds,
                                      double max_fp_rate = 0.01);

/// BloomFilter: no false negatives ever; false-positive rate within 3x the
/// analytic bound at design load; saturation drives Contains toward
/// always-true (never toward false negatives).
DifferentialReport FuzzBloomVsOracle(uint64_t seed, size_t rounds);

// --- Search-vs-reference differential. ---

/// Runs SongSearchCore on randomized datasets/graphs/options (random dim,
/// degree, n, k, queue_size, metric, selected_insertion, visited_deletion,
/// multi_step, ample, auto and tight (saturating) hash capacities) against
/// the oracle-backed reference search. For exact structures the visit
/// order, iteration count, insert failures and final neighbors must match
/// element-for-element. Three in four
/// kEpochArray rounds drop §IV-D/E and so run the CandidatePool frontier,
/// whose iteration count must equal the reference's expansion rounds.
DifferentialReport FuzzSearchDifferential(VisitedStructure structure,
                                          uint64_t seed, size_t rounds);

/// Same randomized universe for the probabilistic structures (Bloom/Cuckoo):
/// asserts the properties that survive false positives — sorted unique
/// results with genuinely recomputed distances, bounded size, termination —
/// and that an exact-visited run on the identical instance never returns a
/// worse neighbor set than ground truth allows the probabilistic one
/// (per-instance distance-domination check).
DifferentialReport FuzzProbabilisticSearchSanity(VisitedStructure structure,
                                                 uint64_t seed, size_t rounds);

// --- Online-mutation differential. ---

/// One round = one fresh MutableIndex (randomly empty-start or adopting a
/// frozen connected graph) driven through a seed-derived interleaving of
/// insert / delete / search ops, mirrored against an incrementally
/// maintained OracleDynamicIndex. Checks per op:
///  - ids, point/live counts and version numbers track the oracle exactly;
///  - every inserted vertex is immediately reachable: an ample-ef exact
///    search must return precisely the oracle's live set (this is the probe
///    that catches the planted drop-reverse-links mutation);
///  - searches with the round's randomized options return sorted, unique,
///    live ids with genuine distances and payload rows byte-equal to the
///    oracle's vectors; for exact structures (`structure` = hash table or
///    epoch array) the result must equal the oracle-backed reference search
///    element-for-element after the same tombstone filter + truncation;
///  - a snapshot pinned mid-round returns bit-identical results when
///    re-queried at round end, after every later mutation (isolation);
///  - error paths (null/NaN insert, double delete, out-of-range delete)
///    return the documented Status codes;
///  - after the round's pins are dropped, ReclaimRetired sweeps every
///    retired version.
DifferentialReport FuzzMutationDifferential(VisitedStructure structure,
                                            uint64_t seed, size_t rounds);

}  // namespace song::harness

#endif  // SONG_TESTS_HARNESS_FUZZ_H_
