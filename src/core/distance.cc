#include "core/distance.h"

#include <cmath>

#include "core/distance_kernels.h"

namespace song {

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "l2";
    case Metric::kInnerProduct:
      return "ip";
    case Metric::kCosine:
      return "cosine";
  }
  return "unknown";
}

namespace internal {
namespace {

// --- Portable scalar tier: 4-way unrolled, vectorizable under -O2. ---

float ScalarL2Sqr(const float* a, const float* b, size_t dim) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const float d0 = a[d] - b[d];
    const float d1 = a[d + 1] - b[d + 1];
    const float d2 = a[d + 2] - b[d + 2];
    const float d3 = a[d + 3] - b[d + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; d < dim; ++d) {
    const float diff = a[d] - b[d];
    s0 += diff * diff;
  }
  return (s0 + s1) + (s2 + s3);
}

float ScalarDot(const float* a, const float* b, size_t dim) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    s0 += a[d] * b[d];
    s1 += a[d + 1] * b[d + 1];
    s2 += a[d + 2] * b[d + 2];
    s3 += a[d + 3] * b[d + 3];
  }
  for (; d < dim; ++d) s0 += a[d] * b[d];
  return (s0 + s1) + (s2 + s3);
}

float ScalarIp(const float* a, const float* b, size_t dim) {
  return -ScalarDot(a, b, dim);
}

float ScalarCosine(const float* a, const float* b, size_t dim) {
  const float dot = ScalarDot(a, b, dim);
  const float na = ScalarDot(a, a, dim);
  const float nb = ScalarDot(b, b, dim);
  if (na <= 0.0f || nb <= 0.0f) return 1.0f;
  return 1.0f - dot / std::sqrt(na * nb);
}

template <PairKernel kKernel>
void ScalarGather(const float* q, const float* base, size_t stride, size_t dim,
                  const idx_t* ids, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = kKernel(q, base + static_cast<size_t>(ids[i]) * stride, dim);
  }
}

template <PairKernel kKernel>
void ScalarRange(const float* q, const float* base, size_t stride, size_t dim,
                 idx_t first, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] =
        kKernel(q, base + (static_cast<size_t>(first) + i) * stride, dim);
  }
}

// ADC accumulation, 4-way unrolled over subquantizers (the SIMD tiers gather
// 8/16 table rows per step; this order is the cross-tier oracle reference).
void ScalarAdcGather(const float* table, const uint8_t* codes, size_t m,
                     const idx_t* ids, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + static_cast<size_t>(ids[i]) * m;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    size_t s = 0;
    for (; s + 4 <= m; s += 4) {
      s0 += table[(s + 0) * 256 + code[s + 0]];
      s1 += table[(s + 1) * 256 + code[s + 1]];
      s2 += table[(s + 2) * 256 + code[s + 2]];
      s3 += table[(s + 3) * 256 + code[s + 3]];
    }
    for (; s < m; ++s) s0 += table[s * 256 + code[s]];
    out[i] = (s0 + s1) + (s2 + s3);
  }
}

size_t ScalarRank(const float* dists, const idx_t* ids, size_t n, float dist,
                  idx_t id) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (dists[mid] < dist || (dists[mid] == dist && ids[mid] < id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

const DistanceKernelTable& ScalarKernelTable() {
  static const DistanceKernelTable table = [] {
    DistanceKernelTable t;
    t.compiled = true;
    t.l2 = &ScalarL2Sqr;
    t.dot = &ScalarDot;
    t.ip = &ScalarIp;
    t.cosine = &ScalarCosine;
    t.l2_gather = &ScalarGather<&ScalarL2Sqr>;
    t.dot_gather = &ScalarGather<&ScalarDot>;
    t.l2_range = &ScalarRange<&ScalarL2Sqr>;
    t.dot_range = &ScalarRange<&ScalarDot>;
    t.adc_gather = &ScalarAdcGather;
    t.rank = &ScalarRank;
    return t;
  }();
  return table;
}

const DistanceKernelTable& KernelTableForTier(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return ScalarKernelTable();
    case SimdTier::kAvx2:
      return Avx2KernelTable();
    case SimdTier::kAvx512:
      return Avx512KernelTable();
  }
  return ScalarKernelTable();
}

const DistanceKernelTable& ActiveKernelTable() {
  static const DistanceKernelTable& table =
      KernelTableForTier(ActiveSimdTier());
  return table;
}

}  // namespace internal

float L2Sqr(const float* a, const float* b, size_t dim) {
  return internal::ActiveKernelTable().l2(a, b, dim);
}

float InnerProduct(const float* a, const float* b, size_t dim) {
  return internal::ActiveKernelTable().ip(a, b, dim);
}

float CosineDistance(const float* a, const float* b, size_t dim) {
  return internal::ActiveKernelTable().cosine(a, b, dim);
}

DistanceFunc GetDistanceFuncForTier(Metric metric, SimdTier tier) {
  const internal::DistanceKernelTable& table =
      internal::KernelTableForTier(tier);
  switch (metric) {
    case Metric::kL2:
      return table.l2;
    case Metric::kInnerProduct:
      return table.ip;
    case Metric::kCosine:
      return table.cosine;
  }
  return table.l2;
}

DistanceFunc GetDistanceFunc(Metric metric) {
  return GetDistanceFuncForTier(metric, ActiveSimdTier());
}

BatchDistance::BatchDistance(Metric metric, const Dataset* data)
    : metric_(metric), data_(data) {
  SONG_CHECK(data != nullptr);
  if (metric_ == Metric::kCosine) {
    const internal::DistanceKernelTable& table = internal::ActiveKernelTable();
    norms_sqr_.resize(data_->num());
    for (size_t i = 0; i < data_->num(); ++i) {
      const float* row = data_->Row(static_cast<idx_t>(i));
      norms_sqr_[i] = table.dot(row, row, data_->dim());
    }
  }
}

float BatchDistance::QueryNormSqr(const float* query) const {
  if (metric_ != Metric::kCosine) return 0.0f;
  return internal::ActiveKernelTable().dot(query, query, data_->dim());
}

float BatchDistance::Compute(const float* query, float query_norm_sqr,
                             idx_t id) const {
  float out;
  ComputeBatch(query, query_norm_sqr, &id, 1, &out);
  return out;
}

void BatchDistance::ComputeBatch(const float* query, float query_norm_sqr,
                                 const idx_t* ids, size_t n,
                                 float* out) const {
  if (n == 0) return;
  const internal::DistanceKernelTable& table = internal::ActiveKernelTable();
  const float* base = data_->Row(0);
  const size_t stride = data_->stride();
  const size_t dim = data_->dim();
  switch (metric_) {
    case Metric::kL2:
      table.l2_gather(query, base, stride, dim, ids, n, out);
      return;
    case Metric::kInnerProduct:
      table.dot_gather(query, base, stride, dim, ids, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    case Metric::kCosine:
      table.dot_gather(query, base, stride, dim, ids, n, out);
      for (size_t i = 0; i < n; ++i) {
        const float nb = norms_sqr_[ids[i]];
        out[i] = (query_norm_sqr <= 0.0f || nb <= 0.0f)
                     ? 1.0f
                     : 1.0f - out[i] / std::sqrt(query_norm_sqr * nb);
      }
      return;
  }
}

void BatchDistance::ComputeFromRow(idx_t from, const idx_t* ids, size_t n,
                                   float* out) const {
  const float norm_sqr = metric_ == Metric::kCosine ? norms_sqr_[from] : 0.0f;
  ComputeBatch(data_->Row(from), norm_sqr, ids, n, out);
}

void BatchDistance::ComputeRange(const float* query, float query_norm_sqr,
                                 idx_t first, size_t n, float* out) const {
  if (n == 0) return;
  const internal::DistanceKernelTable& table = internal::ActiveKernelTable();
  const float* base = data_->Row(0);
  const size_t stride = data_->stride();
  const size_t dim = data_->dim();
  switch (metric_) {
    case Metric::kL2:
      table.l2_range(query, base, stride, dim, first, n, out);
      return;
    case Metric::kInnerProduct:
      table.dot_range(query, base, stride, dim, first, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    case Metric::kCosine:
      table.dot_range(query, base, stride, dim, first, n, out);
      for (size_t i = 0; i < n; ++i) {
        const float nb = norms_sqr_[static_cast<size_t>(first) + i];
        out[i] = (query_norm_sqr <= 0.0f || nb <= 0.0f)
                     ? 1.0f
                     : 1.0f - out[i] / std::sqrt(query_norm_sqr * nb);
      }
      return;
  }
}

}  // namespace song
