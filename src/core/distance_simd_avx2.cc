// AVX2+FMA distance kernels (8 float lanes). Built with -mavx2 -mfma (see
// src/CMakeLists.txt); when the toolchain lacks those flags this TU
// degrades to a scalar-aliased table with compiled=false and the dispatcher
// never selects the tier.
//
// Accumulation layout (the contract distance_kernels.h requires for
// batch == single bit-identity): two 8-lane accumulators over 16-float
// blocks, one trailing 8-float block into the first accumulator, then a
// scalar float tail — identical per row in the pair, gather and range
// kernels.

#include "core/distance_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace song::internal {
namespace {

inline void PrefetchFloats(const float* p, size_t count) {
  const char* c = reinterpret_cast<const char*>(p);
  const size_t bytes = count * sizeof(float);
  for (size_t off = 0; off < bytes; off += 64) _mm_prefetch(c + off, _MM_HINT_T0);
}

inline float Hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

struct L2Op {
  static inline __m256 Acc(__m256 acc, __m256 q, __m256 r) {
    const __m256 d = _mm256_sub_ps(q, r);
    return _mm256_fmadd_ps(d, d, acc);
  }
  static inline float Scalar(float q, float r) {
    const float d = q - r;
    return d * d;
  }
};

struct DotOp {
  static inline __m256 Acc(__m256 acc, __m256 q, __m256 r) {
    return _mm256_fmadd_ps(q, r, acc);
  }
  static inline float Scalar(float q, float r) { return q * r; }
};

template <typename Op>
float Pair(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + 16 <= dim; d += 16) {
    acc0 = Op::Acc(acc0, _mm256_loadu_ps(a + d), _mm256_loadu_ps(b + d));
    acc1 = Op::Acc(acc1, _mm256_loadu_ps(a + d + 8), _mm256_loadu_ps(b + d + 8));
  }
  if (d + 8 <= dim) {
    acc0 = Op::Acc(acc0, _mm256_loadu_ps(a + d), _mm256_loadu_ps(b + d));
    d += 8;
  }
  float tail = 0.0f;
  for (; d < dim; ++d) tail += Op::Scalar(a[d], b[d]);
  return Hsum(_mm256_add_ps(acc0, acc1)) + tail;
}

/// Fused one-query-vs-many core: four rows share the query registers per
/// block, and the next row quad is prefetched while this one reduces.
/// `row(i)` yields the i-th row pointer (gather or contiguous).
template <typename Op, typename RowFn>
void Many(const float* q, size_t dim, size_t n, float* out, const RowFn& row) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t p = i + 4; p < i + 8 && p < n; ++p) PrefetchFloats(row(p), dim);
    const float* r0 = row(i);
    const float* r1 = row(i + 1);
    const float* r2 = row(i + 2);
    const float* r3 = row(i + 3);
    __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
    __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
    __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
    __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      const __m256 q0 = _mm256_loadu_ps(q + d);
      const __m256 q1 = _mm256_loadu_ps(q + d + 8);
      a00 = Op::Acc(a00, q0, _mm256_loadu_ps(r0 + d));
      a01 = Op::Acc(a01, q1, _mm256_loadu_ps(r0 + d + 8));
      a10 = Op::Acc(a10, q0, _mm256_loadu_ps(r1 + d));
      a11 = Op::Acc(a11, q1, _mm256_loadu_ps(r1 + d + 8));
      a20 = Op::Acc(a20, q0, _mm256_loadu_ps(r2 + d));
      a21 = Op::Acc(a21, q1, _mm256_loadu_ps(r2 + d + 8));
      a30 = Op::Acc(a30, q0, _mm256_loadu_ps(r3 + d));
      a31 = Op::Acc(a31, q1, _mm256_loadu_ps(r3 + d + 8));
    }
    if (d + 8 <= dim) {
      const __m256 q0 = _mm256_loadu_ps(q + d);
      a00 = Op::Acc(a00, q0, _mm256_loadu_ps(r0 + d));
      a10 = Op::Acc(a10, q0, _mm256_loadu_ps(r1 + d));
      a20 = Op::Acc(a20, q0, _mm256_loadu_ps(r2 + d));
      a30 = Op::Acc(a30, q0, _mm256_loadu_ps(r3 + d));
      d += 8;
    }
    float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
    for (; d < dim; ++d) {
      const float qd = q[d];
      t0 += Op::Scalar(qd, r0[d]);
      t1 += Op::Scalar(qd, r1[d]);
      t2 += Op::Scalar(qd, r2[d]);
      t3 += Op::Scalar(qd, r3[d]);
    }
    out[i] = Hsum(_mm256_add_ps(a00, a01)) + t0;
    out[i + 1] = Hsum(_mm256_add_ps(a10, a11)) + t1;
    out[i + 2] = Hsum(_mm256_add_ps(a20, a21)) + t2;
    out[i + 3] = Hsum(_mm256_add_ps(a30, a31)) + t3;
  }
  for (; i < n; ++i) out[i] = Pair<Op>(q, row(i), dim);
}

float L2SqrAvx2(const float* a, const float* b, size_t dim) {
  return Pair<L2Op>(a, b, dim);
}

float DotAvx2(const float* a, const float* b, size_t dim) {
  return Pair<DotOp>(a, b, dim);
}

float IpAvx2(const float* a, const float* b, size_t dim) {
  return -DotAvx2(a, b, dim);
}

float CosineAvx2(const float* a, const float* b, size_t dim) {
  const float dot = DotAvx2(a, b, dim);
  const float na = DotAvx2(a, a, dim);
  const float nb = DotAvx2(b, b, dim);
  if (na <= 0.0f || nb <= 0.0f) return 1.0f;
  return 1.0f - dot / std::sqrt(na * nb);
}

template <typename Op>
void GatherImpl(const float* q, const float* base, size_t stride, size_t dim,
                const idx_t* ids, size_t n, float* out) {
  Many<Op>(q, dim, n, out,
           [&](size_t i) { return base + static_cast<size_t>(ids[i]) * stride; });
}

template <typename Op>
void RangeImpl(const float* q, const float* base, size_t stride, size_t dim,
               idx_t first, size_t n, float* out) {
  Many<Op>(q, dim, n, out, [&](size_t i) {
    return base + (static_cast<size_t>(first) + i) * stride;
  });
}

void L2GatherAvx2(const float* q, const float* base, size_t stride, size_t dim,
                  const idx_t* ids, size_t n, float* out) {
  GatherImpl<L2Op>(q, base, stride, dim, ids, n, out);
}

void DotGatherAvx2(const float* q, const float* base, size_t stride,
                   size_t dim, const idx_t* ids, size_t n, float* out) {
  GatherImpl<DotOp>(q, base, stride, dim, ids, n, out);
}

void L2RangeAvx2(const float* q, const float* base, size_t stride, size_t dim,
                 idx_t first, size_t n, float* out) {
  RangeImpl<L2Op>(q, base, stride, dim, first, n, out);
}

void DotRangeAvx2(const float* q, const float* base, size_t stride,
                  size_t dim, idx_t first, size_t n, float* out) {
  RangeImpl<DotOp>(q, base, stride, dim, first, n, out);
}

/// ADC LUT accumulation, 8 subquantizers per step: the 8 code bytes widen to
/// epi32 lane indices, each offset by its subquantizer's 256-float table row,
/// and one vgatherdps pulls the 8 selected entries. Per-row order: 8-lane
/// blocks into one accumulator, scalar tail — fixed, so batch == single
/// within this tier.
void AdcGatherAvx2(const float* table, const uint8_t* codes, size_t m,
                   const idx_t* ids, size_t n, float* out) {
  const __m256i row_offsets =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + static_cast<size_t>(ids[i]) * m;
    if (i + 1 < n) {
      _mm_prefetch(reinterpret_cast<const char*>(
                       codes + static_cast<size_t>(ids[i + 1]) * m),
                   _MM_HINT_T0);
    }
    __m256 acc = _mm256_setzero_ps();
    size_t s = 0;
    for (; s + 8 <= m; s += 8) {
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + s));
      const __m256i idx =
          _mm256_add_epi32(_mm256_cvtepu8_epi32(bytes), row_offsets);
      acc = _mm256_add_ps(acc, _mm256_i32gather_ps(table + s * 256, idx, 4));
    }
    float tail = 0.0f;
    for (; s < m; ++s) tail += table[s * 256 + code[s]];
    out[i] = Hsum(acc) + tail;
  }
}

/// Candidate-pool rank, 8 entries per step: lanes before (dist, id) are
/// dist-less, or dist-equal with a smaller id (unsigned, compared as signed
/// after flipping the sign bit). The list is sorted, so the first block
/// with a lane that is not before (dist, id) ends the count; a partial last
/// block is counted in scalar.
size_t RankAvx2(const float* dists, const idx_t* ids, size_t n, float dist,
                idx_t id) {
  const __m256 xd = _mm256_set1_ps(dist);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i xi =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(id)), sign);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dists + i);
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i)), sign);
    const __m256 lt = _mm256_cmp_ps(d, xd, _CMP_LT_OQ);
    const __m256 eq = _mm256_cmp_ps(d, xd, _CMP_EQ_OQ);
    const __m256 id_lt = _mm256_castsi256_ps(_mm256_cmpgt_epi32(xi, v));
    const int before =
        _mm256_movemask_ps(_mm256_or_ps(lt, _mm256_and_ps(eq, id_lt)));
    if (before != 0xFF) {
      return i + static_cast<size_t>(__builtin_popcount(before));
    }
  }
  for (; i < n; ++i) {
    if (!(dists[i] < dist || (dists[i] == dist && ids[i] < id))) break;
  }
  return i;
}

}  // namespace

const DistanceKernelTable& Avx2KernelTable() {
  static const DistanceKernelTable table = [] {
    DistanceKernelTable t;
    t.compiled = true;
    t.l2 = &L2SqrAvx2;
    t.dot = &DotAvx2;
    t.ip = &IpAvx2;
    t.cosine = &CosineAvx2;
    t.l2_gather = &L2GatherAvx2;
    t.dot_gather = &DotGatherAvx2;
    t.l2_range = &L2RangeAvx2;
    t.dot_range = &DotRangeAvx2;
    t.adc_gather = &AdcGatherAvx2;
    t.rank = &RankAvx2;
    return t;
  }();
  return table;
}

}  // namespace song::internal

#else  // !(__AVX2__ && __FMA__)

namespace song::internal {

const DistanceKernelTable& Avx2KernelTable() {
  static const DistanceKernelTable table = [] {
    DistanceKernelTable t = ScalarKernelTable();
    t.compiled = false;
    return t;
  }();
  return table;
}

}  // namespace song::internal

#endif
