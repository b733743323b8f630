// The AVX-512 kernel set (requires F + DQ): raw-series kernels process 16
// floats per step with two 512-bit FMA accumulators. Summary lower-bound
// kernels reuse the AVX2 forms — they are short, gather-bound loops where
// extra vector width buys nothing, and sharing the implementation keeps
// the order-preserving (bit-identical) guarantee in one place.
//
// Compiled with -mavx2 -mfma -mavx512f -mavx512dq -ffp-contract=off; all
// cross-TU access is via function pointers (see kernels_avx2.cc).
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace hydra::core::simd::internal {
namespace {

// Deterministic horizontal sum: fixed pairwise tree over the 8 lanes.
inline double Hsum8(__m512d v) {
  alignas(64) double t[8];
  _mm512_store_pd(t, v);
  return ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
}

// The 8 floats of half kHalf of `v`, widened to double. GCC 12's unmasked
// _mm512_cvtps_pd and _mm512_castps512_ps256 merge into an
// _mm512_undefined_* source, which it flags as maybe-uninitialized; the
// all-lanes zero-masked forms compute the same bits.
template <int kHalf>
inline __m512d WidenHalf(__m512 v) {
  return _mm512_maskz_cvtps_pd(0xFF, _mm512_extractf32x8_ps(v, kHalf));
}

// acc0 += (a-b)^2 over lanes 0..7, acc1 over lanes 8..15 of a 16-float step.
inline void Step16(const Value* a, const Value* b, size_t i, __m512d* acc0,
                   __m512d* acc1) {
  const __m512 va = _mm512_loadu_ps(a + i);
  const __m512 vb = _mm512_loadu_ps(b + i);
  const __m512d a_lo = WidenHalf<0>(va);
  const __m512d a_hi = WidenHalf<1>(va);
  const __m512d b_lo = WidenHalf<0>(vb);
  const __m512d b_hi = WidenHalf<1>(vb);
  const __m512d d_lo = _mm512_sub_pd(a_lo, b_lo);
  const __m512d d_hi = _mm512_sub_pd(a_hi, b_hi);
  *acc0 = _mm512_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm512_fmadd_pd(d_hi, d_hi, *acc1);
}

inline void GatherStep16(const Value* q_ordered, const Value* candidate,
                         const uint32_t* order, size_t i, __m512d* acc0,
                         __m512d* acc1) {
  const __m512i idx =
      _mm512_loadu_si512(reinterpret_cast<const void*>(order + i));
  const __m512 vq = _mm512_loadu_ps(q_ordered + i);
  const __m512 vc = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF, idx,
                                             candidate, 4);
  const __m512d q_lo = WidenHalf<0>(vq);
  const __m512d q_hi = WidenHalf<1>(vq);
  const __m512d c_lo = WidenHalf<0>(vc);
  const __m512d c_hi = WidenHalf<1>(vc);
  const __m512d d_lo = _mm512_sub_pd(q_lo, c_lo);
  const __m512d d_hi = _mm512_sub_pd(q_hi, c_hi);
  *acc0 = _mm512_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm512_fmadd_pd(d_hi, d_hi, *acc1);
}

// Shared body (see kernels_portable.cc): kAbandon adds a partial-sum check
// every 32 dimensions; the step sequence is otherwise identical, so
// abandon(+inf) == plain, bitwise.
template <bool kAbandon>
double EuclideanImpl(const Value* a, const Value* b, size_t n, double bound) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  if constexpr (kAbandon) {
    while (i + 32 <= n) {
      Step16(a, b, i, &acc0, &acc1);
      Step16(a, b, i + 16, &acc0, &acc1);
      i += 32;
      const double partial = Hsum8(_mm512_add_pd(acc0, acc1));
      if (partial > bound) return partial;
    }
  }
  for (; i + 16 <= n; i += 16) Step16(a, b, i, &acc0, &acc1);
  double total = Hsum8(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

double Avx512EuclideanSq(const Value* a, const Value* b, size_t n) {
  return EuclideanImpl<false>(a, b, n, 0.0);
}

double Avx512EuclideanSqAbandon(const Value* a, const Value* b, size_t n,
                                double bound) {
  return EuclideanImpl<true>(a, b, n, bound);
}

double Avx512EuclideanSqReordered(const Value* q_ordered,
                                  const Value* candidate,
                                  const uint32_t* order, size_t n,
                                  double bound) {
  if (n < kMinGatherWidth) {
    return ScalarEuclideanSqReordered(q_ordered, candidate, order, n, bound);
  }
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  while (i + 32 <= n) {
    GatherStep16(q_ordered, candidate, order, i, &acc0, &acc1);
    GatherStep16(q_ordered, candidate, order, i + 16, &acc0, &acc1);
    i += 32;
    const double partial = Hsum8(_mm512_add_pd(acc0, acc1));
    if (partial > bound) return partial;
  }
  for (; i + 16 <= n; i += 16) {
    GatherStep16(q_ordered, candidate, order, i, &acc0, &acc1);
  }
  double total = Hsum8(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = static_cast<double>(q_ordered[i]) - candidate[order[i]];
    total += diff * diff;
  }
  return total;
}

}  // namespace

const KernelSet* Avx512KernelsImpl() {
  static constexpr KernelSet kAvx512 = {
      "avx512",
      /*raw_order_preserved=*/false,
      &Avx512EuclideanSq,
      &Avx512EuclideanSqAbandon,
      &Avx512EuclideanSqReordered,
      &Avx2SumSqDiff,
      &Avx2BoxDistSq,
      &Avx2IsaxMinDistSq,
      &Avx2SfaLbSq,
      &Avx2VaLbSq,
      &Avx2EapcaNodeLbSq,
  };
  return &kAvx512;
}

}  // namespace hydra::core::simd::internal

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace hydra::core::simd::internal {

const KernelSet* Avx512KernelsImpl() { return nullptr; }

}  // namespace hydra::core::simd::internal

#endif
