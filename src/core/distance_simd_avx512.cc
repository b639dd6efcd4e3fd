// AVX-512 distance kernels (16 float lanes). Built with
// -mavx512f/bw/dq/vl -mfma (see src/CMakeLists.txt); without those flags
// this TU degrades to a scalar-aliased table with compiled=false.
//
// Accumulation layout (the batch == single bit-identity contract of
// distance_kernels.h): two 16-lane accumulators over 32-float blocks, one
// trailing 16-float block into the first accumulator, then a scalar float
// tail — identical per row in the pair, gather and range kernels. Distance
// tails are scalar rather than masked so no kernel ever touches bytes past
// `dim`; the rank kernel's masked loads suppress the lanes past `n`.

#include "core/distance_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cmath>

namespace song::internal {
namespace {

inline void PrefetchFloats(const float* p, size_t count) {
  const char* c = reinterpret_cast<const char*>(p);
  const size_t bytes = count * sizeof(float);
  for (size_t off = 0; off < bytes; off += 64) _mm_prefetch(c + off, _MM_HINT_T0);
}

struct L2Op {
  static inline __m512 Acc(__m512 acc, __m512 q, __m512 r) {
    const __m512 d = _mm512_sub_ps(q, r);
    return _mm512_fmadd_ps(d, d, acc);
  }
  static inline float Scalar(float q, float r) {
    const float d = q - r;
    return d * d;
  }
};

struct DotOp {
  static inline __m512 Acc(__m512 acc, __m512 q, __m512 r) {
    return _mm512_fmadd_ps(q, r, acc);
  }
  static inline float Scalar(float q, float r) { return q * r; }
};

template <typename Op>
float Pair(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t d = 0;
  for (; d + 32 <= dim; d += 32) {
    acc0 = Op::Acc(acc0, _mm512_loadu_ps(a + d), _mm512_loadu_ps(b + d));
    acc1 =
        Op::Acc(acc1, _mm512_loadu_ps(a + d + 16), _mm512_loadu_ps(b + d + 16));
  }
  if (d + 16 <= dim) {
    acc0 = Op::Acc(acc0, _mm512_loadu_ps(a + d), _mm512_loadu_ps(b + d));
    d += 16;
  }
  float tail = 0.0f;
  for (; d < dim; ++d) tail += Op::Scalar(a[d], b[d]);
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1)) + tail;
}

/// Fused one-query-vs-many core: four rows share the query registers per
/// block; the next row quad is prefetched while this one reduces.
template <typename Op, typename RowFn>
void Many(const float* q, size_t dim, size_t n, float* out, const RowFn& row) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t p = i + 4; p < i + 8 && p < n; ++p) PrefetchFloats(row(p), dim);
    const float* r0 = row(i);
    const float* r1 = row(i + 1);
    const float* r2 = row(i + 2);
    const float* r3 = row(i + 3);
    __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
    __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
    __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
    __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 32 <= dim; d += 32) {
      const __m512 q0 = _mm512_loadu_ps(q + d);
      const __m512 q1 = _mm512_loadu_ps(q + d + 16);
      a00 = Op::Acc(a00, q0, _mm512_loadu_ps(r0 + d));
      a01 = Op::Acc(a01, q1, _mm512_loadu_ps(r0 + d + 16));
      a10 = Op::Acc(a10, q0, _mm512_loadu_ps(r1 + d));
      a11 = Op::Acc(a11, q1, _mm512_loadu_ps(r1 + d + 16));
      a20 = Op::Acc(a20, q0, _mm512_loadu_ps(r2 + d));
      a21 = Op::Acc(a21, q1, _mm512_loadu_ps(r2 + d + 16));
      a30 = Op::Acc(a30, q0, _mm512_loadu_ps(r3 + d));
      a31 = Op::Acc(a31, q1, _mm512_loadu_ps(r3 + d + 16));
    }
    if (d + 16 <= dim) {
      const __m512 q0 = _mm512_loadu_ps(q + d);
      a00 = Op::Acc(a00, q0, _mm512_loadu_ps(r0 + d));
      a10 = Op::Acc(a10, q0, _mm512_loadu_ps(r1 + d));
      a20 = Op::Acc(a20, q0, _mm512_loadu_ps(r2 + d));
      a30 = Op::Acc(a30, q0, _mm512_loadu_ps(r3 + d));
      d += 16;
    }
    float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
    for (; d < dim; ++d) {
      const float qd = q[d];
      t0 += Op::Scalar(qd, r0[d]);
      t1 += Op::Scalar(qd, r1[d]);
      t2 += Op::Scalar(qd, r2[d]);
      t3 += Op::Scalar(qd, r3[d]);
    }
    out[i] = _mm512_reduce_add_ps(_mm512_add_ps(a00, a01)) + t0;
    out[i + 1] = _mm512_reduce_add_ps(_mm512_add_ps(a10, a11)) + t1;
    out[i + 2] = _mm512_reduce_add_ps(_mm512_add_ps(a20, a21)) + t2;
    out[i + 3] = _mm512_reduce_add_ps(_mm512_add_ps(a30, a31)) + t3;
  }
  for (; i < n; ++i) out[i] = Pair<Op>(q, row(i), dim);
}

float L2SqrAvx512(const float* a, const float* b, size_t dim) {
  return Pair<L2Op>(a, b, dim);
}

float DotAvx512(const float* a, const float* b, size_t dim) {
  return Pair<DotOp>(a, b, dim);
}

float IpAvx512(const float* a, const float* b, size_t dim) {
  return -DotAvx512(a, b, dim);
}

float CosineAvx512(const float* a, const float* b, size_t dim) {
  const float dot = DotAvx512(a, b, dim);
  const float na = DotAvx512(a, a, dim);
  const float nb = DotAvx512(b, b, dim);
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

void L2GatherAvx512(const float* q, const float* base, size_t stride,
                    size_t dim, const idx_t* ids, size_t n, float* out) {
  GatherImpl<L2Op>(q, base, stride, dim, ids, n, out);
}

void DotGatherAvx512(const float* q, const float* base, size_t stride,
                     size_t dim, const idx_t* ids, size_t n, float* out) {
  GatherImpl<DotOp>(q, base, stride, dim, ids, n, out);
}

void L2RangeAvx512(const float* q, const float* base, size_t stride,
                   size_t dim, idx_t first, size_t n, float* out) {
  RangeImpl<L2Op>(q, base, stride, dim, first, n, out);
}

void DotRangeAvx512(const float* q, const float* base, size_t stride,
                    size_t dim, idx_t first, size_t n, float* out) {
  RangeImpl<DotOp>(q, base, stride, dim, first, n, out);
}

/// ADC LUT accumulation, 16 subquantizers per step (one vgatherdps over the
/// 16 selected table entries), an 8-wide AVX2-style middle block for m % 16,
/// then a scalar tail. Per-row order is fixed: 16-blocks into the 512-bit
/// accumulator, 8-block into the 256-bit one, tail — batch == single within
/// this tier.
void AdcGatherAvx512(const float* table, const uint8_t* codes, size_t m,
                     const idx_t* ids, size_t n, float* out) {
  const __m512i row_offsets16 = _mm512_setr_epi32(
      0, 256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2304, 2560, 2816, 3072,
      3328, 3584, 3840);
  const __m256i row_offsets8 =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* code = codes + static_cast<size_t>(ids[i]) * m;
    if (i + 1 < n) {
      _mm_prefetch(reinterpret_cast<const char*>(
                       codes + static_cast<size_t>(ids[i + 1]) * m),
                   _MM_HINT_T0);
    }
    __m512 acc = _mm512_setzero_ps();
    size_t s = 0;
    for (; s + 16 <= m; s += 16) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(code + s));
      const __m512i idx =
          _mm512_add_epi32(_mm512_cvtepu8_epi32(bytes), row_offsets16);
      acc = _mm512_add_ps(acc, _mm512_i32gather_ps(idx, table + s * 256, 4));
    }
    __m256 acc8 = _mm256_setzero_ps();
    if (s + 8 <= m) {
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + s));
      const __m256i idx =
          _mm256_add_epi32(_mm256_cvtepu8_epi32(bytes), row_offsets8);
      acc8 = _mm256_i32gather_ps(table + s * 256, idx, 4);
      s += 8;
    }
    float tail = 0.0f;
    for (; s < m; ++s) tail += table[s * 256 + code[s]];
    const __m128 lo = _mm256_castps256_ps128(acc8);
    const __m128 hi = _mm256_extractf128_ps(acc8, 1);
    __m128 h = _mm_add_ps(lo, hi);
    h = _mm_add_ps(h, _mm_movehl_ps(h, h));
    h = _mm_add_ss(h, _mm_movehdup_ps(h));
    out[i] = _mm512_reduce_add_ps(acc) + _mm_cvtss_f32(h) + tail;
  }
}

/// Candidate-pool rank, 16 entries per step: lanes before (dist, id) are
/// dist-less, or dist-equal with a smaller id. The list is sorted, so the
/// first block with a lane that is not before (dist, id) ends the count;
/// the partial last block is read through a load mask.
size_t RankAvx512(const float* dists, const idx_t* ids, size_t n, float dist,
                  idx_t id) {
  const __m512 xd = _mm512_set1_ps(dist);
  const __m512i xi = _mm512_set1_epi32(static_cast<int>(id));
  size_t count = 0;
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512 d = _mm512_maskz_loadu_ps(live, dists + i);
    const __m512i v = _mm512_maskz_loadu_epi32(live, ids + i);
    const __mmask16 lt = _mm512_mask_cmp_ps_mask(live, d, xd, _CMP_LT_OQ);
    const __mmask16 eq = _mm512_mask_cmp_ps_mask(live, d, xd, _CMP_EQ_OQ);
    const __mmask16 before = lt | _mm512_mask_cmplt_epu32_mask(eq, v, xi);
    count += static_cast<size_t>(__builtin_popcount(before));
    if (before != 0xFFFF) break;
  }
  return count;
}

}  // namespace

const DistanceKernelTable& Avx512KernelTable() {
  static const DistanceKernelTable table = [] {
    DistanceKernelTable t;
    t.compiled = true;
    t.l2 = &L2SqrAvx512;
    t.dot = &DotAvx512;
    t.ip = &IpAvx512;
    t.cosine = &CosineAvx512;
    t.l2_gather = &L2GatherAvx512;
    t.dot_gather = &DotGatherAvx512;
    t.l2_range = &L2RangeAvx512;
    t.dot_range = &DotRangeAvx512;
    t.adc_gather = &AdcGatherAvx512;
    t.rank = &RankAvx512;
    return t;
  }();
  return table;
}

}  // namespace song::internal

#else  // !AVX512

namespace song::internal {

const DistanceKernelTable& Avx512KernelTable() {
  static const DistanceKernelTable table = [] {
    DistanceKernelTable t = ScalarKernelTable();
    t.compiled = false;
    return t;
  }();
  return table;
}

}  // namespace song::internal

#endif
