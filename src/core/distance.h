// Copyright 2026 The SONG-Repro Authors.
//
// Distance kernels. The paper's bulk-distance stage (§VI) supports p-norm
// distance, cosine similarity and inner product; all three are implemented
// here as "smaller is closer" scores so the search code is metric-agnostic:
//   kL2            -> squared Euclidean distance
//   kInnerProduct  -> negated inner product
//   kCosine        -> 1 - cosine similarity
//
// Every entry point dispatches at runtime to the widest SIMD tier the host
// supports (core/simd.h): AVX-512, AVX2+FMA, or the portable 4-way unrolled
// scalar fallback. Single-pair kernels serve the graph builders and
// baselines; the fused one-query-vs-many BatchDistance below is the Stage 2
// bulk kernel the SONG search core and the flat/HNSW scans call.

#ifndef SONG_CORE_DISTANCE_H_
#define SONG_CORE_DISTANCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/simd.h"
#include "core/types.h"

namespace song {

enum class Metric {
  kL2 = 0,
  kInnerProduct = 1,
  kCosine = 2,
};

const char* MetricName(Metric metric);

float L2Sqr(const float* a, const float* b, size_t dim);
float InnerProduct(const float* a, const float* b, size_t dim);
float CosineDistance(const float* a, const float* b, size_t dim);

/// Raw pairwise distance function: (query, point, dim) -> score where smaller
/// means closer.
using DistanceFunc = float (*)(const float*, const float*, size_t);

/// Returns the kernel for `metric` at the active SIMD tier.
DistanceFunc GetDistanceFunc(Metric metric);

/// Test/bench access to a pinned tier. Tiers that are not compiled into the
/// binary fall back to scalar (check SimdTierCompiled / CpuSimdTier before
/// calling the result on the real datapath).
DistanceFunc GetDistanceFuncForTier(Metric metric, SimdTier tier);

/// Convenience dispatch.
inline float ComputeDistance(Metric metric, const float* a, const float* b,
                             size_t dim) {
  return GetDistanceFunc(metric)(a, b, dim);
}

/// Fused one-query-vs-many distance over a Dataset — the CPU analogue of the
/// paper's warp-parallel bulk-distance stage. Rows are processed four at a
/// time sharing the query registers, with the next row quad prefetched while
/// the current one reduces; per row the arithmetic is bit-identical to the
/// single-pair kernel of the same tier.
///
/// For cosine, per-row squared norms are cached at construction so each
/// query costs one norm reduction plus pure FMA dot products — the score is
/// combined as 1 - dot / sqrt(|q|^2 * |row|^2), the same formula as the
/// pairwise kernel.
///
/// Thread-safe after construction: per-query state (the query's squared
/// norm) is computed by the caller via QueryNormSqr and passed into every
/// Compute* call, so one BatchDistance serves all search threads.
class BatchDistance {
 public:
  BatchDistance() = default;

  /// `data` must outlive this object.
  BatchDistance(Metric metric, const Dataset* data);

  Metric metric() const { return metric_; }
  bool valid() const { return data_ != nullptr; }

  /// The query-side scalar every Compute* call needs: the query's squared
  /// norm under cosine, 0.0 otherwise. Compute once per query.
  float QueryNormSqr(const float* query) const;

  /// Score of `query` vs row `id`.
  float Compute(const float* query, float query_norm_sqr, idx_t id) const;

  /// out[i] = score(query, row ids[i]) for i in [0, n). The Stage 2 bulk
  /// kernel: candidates arrive as gathered vertex ids.
  void ComputeBatch(const float* query, float query_norm_sqr, const idx_t* ids,
                    size_t n, float* out) const;

  /// out[i] = score(row `from`, row ids[i]) for i in [0, n): ComputeBatch
  /// with a stored row as the query and its cached norm as the query norm,
  /// so a cosine score costs one reduction instead of three. Bit-equal to
  /// the pairwise kernel on the two rows, in either order (L2, inner
  /// product and cosine are bit-symmetric).
  void ComputeFromRow(idx_t from, const idx_t* ids, size_t n,
                      float* out) const;

  /// out[i] = score(query, row first + i) for i in [0, n) — the contiguous
  /// variant brute-force scans use.
  void ComputeRange(const float* query, float query_norm_sqr, idx_t first,
                    size_t n, float* out) const;

 private:
  Metric metric_ = Metric::kL2;
  const Dataset* data_ = nullptr;
  std::vector<float> norms_sqr_;  ///< per-row |v|^2, cosine only
};

}  // namespace song

#endif  // SONG_CORE_DISTANCE_H_
