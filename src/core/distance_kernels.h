// Copyright 2026 The SONG-Repro Authors.
//
// Internal per-tier kernel tables: the distance kernels, plus the rank
// kernel of the sorted candidate pool (core/candidate_pool.h). Each tier
// lives in its own translation unit compiled with the matching -m flags;
// this header is the contract between those TUs and the dispatcher in
// distance.cc. Tests and the micro bench include it directly to pin a
// specific tier regardless of what ActiveSimdTier() resolved to.
//
// Kernel contracts (all tiers):
//  - Only a[0..dim) / b[0..dim) are read — remainder lanes are handled with
//    scalar tails, never by reading past `dim` — so kernels are safe on
//    unpadded std::vector storage and under ASan.
//  - Within one tier, the gather/range kernels accumulate each row in
//    exactly the same order as the pair kernel, so batch results are
//    bit-identical to single-pair results of the same tier.
//  - Across tiers, results agree with the double-precision oracle within a
//    dim-scaled few-ulp tolerance (summation order differs by design).
//  - The rank kernel is an exact count, so every tier returns the same
//    value.

#ifndef SONG_CORE_DISTANCE_KERNELS_H_
#define SONG_CORE_DISTANCE_KERNELS_H_

#include <cstddef>

#include "core/simd.h"
#include "core/types.h"

namespace song::internal {

/// (a, b, dim) -> scalar result.
using PairKernel = float (*)(const float* a, const float* b, size_t dim);

/// One query vs many gathered rows: out[i] = op(q, base + ids[i] * stride).
/// Fused: the query streams through registers once per row block, and rows
/// i+lookahead are prefetched while row i is being reduced.
using GatherKernel = void (*)(const float* q, const float* base,
                              size_t stride, size_t dim, const idx_t* ids,
                              size_t n, float* out);

/// One query vs a contiguous row range: out[i] = op(q, base + (first + i) *
/// stride) for i in [0, n).
using RangeKernel = void (*)(const float* q, const float* base, size_t stride,
                             size_t dim, idx_t first, size_t n, float* out);

/// PQ asymmetric-distance accumulation over gathered m-byte codes:
///   out[i] = sum_{s < m} table[s * 256 + codes[ids[i] * m + s]]
/// where `table` is the per-query ADC lookup table (m * 256 floats, row s =
/// subquantizer s) and `codes` the flat encoded dataset. SIMD tiers widen
/// the code bytes and gather the selected table entries lane-parallel; like
/// the float kernels, per-tier summation order is fixed (batch == single
/// within a tier) and cross-tier results agree with the scalar/double oracle
/// within an m-scaled few-ulp tolerance.
using AdcGatherKernel = void (*)(const float* table, const uint8_t* codes,
                                 size_t m, const idx_t* ids, size_t n,
                                 float* out);

/// Admission slot of (dist, id) in a candidate list held as parallel arrays
/// sorted ascending by (dist, id) with distinct ids:
///   count(dists[i] < dist) + count(dists[i] == dist && ids[i] < id)
/// over i in [0, n), which is std::lower_bound on (dist, id). Only
/// dists[0..n) / ids[0..n) are read. The SIMD tiers count 8 or 16 entries
/// per compare and stop at the first block that holds a later entry; the
/// scalar tier is a binary search.
using RankKernel = size_t (*)(const float* dists, const idx_t* ids, size_t n,
                              float dist, idx_t id);

struct DistanceKernelTable {
  /// False when this TU was built without its -m flags (non-x86 target or
  /// toolchain without the extension): every pointer below then aliases the
  /// scalar implementation so dereferencing is always safe.
  bool compiled = false;

  PairKernel l2 = nullptr;       ///< squared euclidean
  PairKernel dot = nullptr;      ///< plain (positive) dot product
  PairKernel ip = nullptr;       ///< -dot (the "smaller is closer" score)
  PairKernel cosine = nullptr;   ///< 1 - dot / sqrt(|a||b|)

  GatherKernel l2_gather = nullptr;
  GatherKernel dot_gather = nullptr;
  RangeKernel l2_range = nullptr;
  RangeKernel dot_range = nullptr;
  AdcGatherKernel adc_gather = nullptr;
  RankKernel rank = nullptr;
};

const DistanceKernelTable& ScalarKernelTable();
const DistanceKernelTable& Avx2KernelTable();
const DistanceKernelTable& Avx512KernelTable();

/// The table for `tier` (scalar-aliased when the tier was not compiled in).
const DistanceKernelTable& KernelTableForTier(SimdTier tier);

/// The table for ActiveSimdTier(), resolved once.
const DistanceKernelTable& ActiveKernelTable();

}  // namespace song::internal

#endif  // SONG_CORE_DISTANCE_KERNELS_H_
