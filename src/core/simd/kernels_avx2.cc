// The AVX2+FMA kernel set. Raw-series kernels process 8 floats per step
// (converted to double in two 4-lane halves, two FMA accumulators) and are
// therefore NOT order-preserving; summary lower-bound kernels compute each
// term vectorized but reduce sequentially in index order, so they are
// bit-identical to the scalar reference (the pruning-soundness anchor).
//
// This TU is compiled with -mavx2 -mfma -ffp-contract=off; nothing here
// may be inlined elsewhere (all cross-TU access is via function pointers),
// so the binary stays runnable on non-AVX2 CPUs as long as dispatch never
// selects this set. Without those flags (non-x86 target) the TU compiles
// to a null provider.
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace hydra::core::simd::internal {
namespace {

// Deterministic horizontal sum: fixed pairwise tree over the 4 lanes.
inline double Hsum4(__m256d v) {
  alignas(32) double t[4];
  _mm256_store_pd(t, v);
  return (t[0] + t[1]) + (t[2] + t[3]);
}

// acc0 += (a-b)^2 over lanes 0..3, acc1 over lanes 4..7 of an 8-float step.
inline void Step8(const Value* a, const Value* b, size_t i, __m256d* acc0,
                  __m256d* acc1) {
  const __m256 va = _mm256_loadu_ps(a + i);
  const __m256 vb = _mm256_loadu_ps(b + i);
  const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
  const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
  const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
  const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
  const __m256d d_lo = _mm256_sub_pd(a_lo, b_lo);
  const __m256d d_hi = _mm256_sub_pd(a_hi, b_hi);
  *acc0 = _mm256_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm256_fmadd_pd(d_hi, d_hi, *acc1);
}

// Same step shape with the candidate gathered through `order`.
inline void GatherStep8(const Value* q_ordered, const Value* candidate,
                        const uint32_t* order, size_t i, __m256d* acc0,
                        __m256d* acc1) {
  const __m256i idx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(order + i));
  const __m256 vq = _mm256_loadu_ps(q_ordered + i);
  const __m256 vc = _mm256_i32gather_ps(candidate, idx, 4);
  const __m256d q_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vq));
  const __m256d q_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vq, 1));
  const __m256d c_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vc));
  const __m256d c_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vc, 1));
  const __m256d d_lo = _mm256_sub_pd(q_lo, c_lo);
  const __m256d d_hi = _mm256_sub_pd(q_hi, c_hi);
  *acc0 = _mm256_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm256_fmadd_pd(d_hi, d_hi, *acc1);
}

// Shared body (see kernels_portable.cc): kAbandon adds a partial-sum check
// every 16 dimensions; the stripe sequence is otherwise identical, so
// abandon(+inf) == plain, bitwise.
template <bool kAbandon>
double EuclideanImpl(const Value* a, const Value* b, size_t n, double bound) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  if constexpr (kAbandon) {
    while (i + 16 <= n) {
      Step8(a, b, i, &acc0, &acc1);
      Step8(a, b, i + 8, &acc0, &acc1);
      i += 16;
      const double partial = Hsum4(_mm256_add_pd(acc0, acc1));
      if (partial > bound) return partial;
    }
  }
  for (; i + 8 <= n; i += 8) Step8(a, b, i, &acc0, &acc1);
  double total = Hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

double Avx2EuclideanSq(const Value* a, const Value* b, size_t n) {
  return EuclideanImpl<false>(a, b, n, 0.0);
}

double Avx2EuclideanSqAbandon(const Value* a, const Value* b, size_t n,
                              double bound) {
  return EuclideanImpl<true>(a, b, n, bound);
}

double Avx2EuclideanSqReordered(const Value* q_ordered, const Value* candidate,
                                const uint32_t* order, size_t n,
                                double bound) {
  if (n < kMinGatherWidth) {
    return ScalarEuclideanSqReordered(q_ordered, candidate, order, n, bound);
  }
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  while (i + 16 <= n) {
    GatherStep8(q_ordered, candidate, order, i, &acc0, &acc1);
    GatherStep8(q_ordered, candidate, order, i + 8, &acc0, &acc1);
    i += 16;
    const double partial = Hsum4(_mm256_add_pd(acc0, acc1));
    if (partial > bound) return partial;
  }
  for (; i + 8 <= n; i += 8) {
    GatherStep8(q_ordered, candidate, order, i, &acc0, &acc1);
  }
  double total = Hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = static_cast<double>(q_ordered[i]) - candidate[order[i]];
    total += diff * diff;
  }
  return total;
}

// Branchless interval distance, bit-identical to the scalar branches for
// finite query values and lo <= hi (including infinite edges): the max
// against +0.0 comes last so in-interval lanes yield exactly +0.0.
inline __m256d IntervalDist(__m256d q, __m256d lo, __m256d hi) {
  const __m256d below = _mm256_sub_pd(lo, q);
  const __m256d above = _mm256_sub_pd(q, hi);
  return _mm256_max_pd(_mm256_max_pd(below, above), _mm256_setzero_pd());
}

// Sequentially folds the 4 lanes of `term` into `acc` in index order —
// the step that keeps every summary kernel order-preserving.
inline void FoldOrdered(__m256d term, double* acc) {
  alignas(32) double t[4];
  _mm256_store_pd(t, term);
  *acc += t[0];
  *acc += t[1];
  *acc += t[2];
  *acc += t[3];
}

// Widens 4 consecutive uint8 values to an epi32 vector.
inline __m128i Load4U8(const uint8_t* p) {
  uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(raw)));
}

// Widens 4 consecutive uint16 values to an epi32 vector.
inline __m128i Load4U16(const uint16_t* p) {
  return _mm_cvtepu16_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

// _mm256_i32gather_pd(base, idx, 8) with an explicit zero merge source: the
// unmasked intrinsic merges into _mm256_undefined_pd(), which GCC 12 flags
// as maybe-uninitialized. The all-ones mask gathers every lane, so the
// result is the same bits.
inline __m256d Gather4(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

}  // namespace

double Avx2SumSqDiff(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i));
    FoldOrdered(_mm256_mul_pd(d, d), &acc);
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double Avx2BoxDistSq(const double* q, const double* lo, const double* hi,
                     size_t n) {
  double acc = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = IntervalDist(_mm256_loadu_pd(q + i),
                                   _mm256_loadu_pd(lo + i),
                                   _mm256_loadu_pd(hi + i));
    FoldOrdered(_mm256_mul_pd(d, d), &acc);
  }
  for (; i < n; ++i) {
    double d = 0.0;
    if (q[i] < lo[i]) {
      d = lo[i] - q[i];
    } else if (q[i] > hi[i]) {
      d = q[i] - hi[i];
    }
    acc += d * d;
  }
  return acc;
}

double Avx2IsaxMinDistSq(const double* paa_q, const uint8_t* symbols,
                         const uint8_t* bits, size_t segments,
                         const double* flat_lower, const double* flat_upper) {
  double acc = 0.0;
  size_t s = 0;
  const __m128i ones = _mm_set1_epi32(1);
  for (; s + 4 <= segments; s += 4) {
    const __m128i vbits = Load4U8(bits + s);
    const __m128i vsym = Load4U8(symbols + s);
    // Flat-table index (1 << bits) - 1 + symbol; in bounds for any
    // symbol/bits combination within the 8-bit domain.
    const __m128i idx = _mm_add_epi32(
        _mm_sub_epi32(_mm_sllv_epi32(ones, vbits), ones), vsym);
    const __m256d lo = Gather4(flat_lower, idx);
    const __m256d hi = Gather4(flat_upper, idx);
    const __m256d d = IntervalDist(_mm256_loadu_pd(paa_q + s), lo, hi);
    // Zero the lanes of whole-domain segments (bits == 0): the reference
    // skips them, and adding +0.0 to a nonnegative accumulator is exact —
    // but only if the lane really is +0.0 regardless of its symbol value.
    const __m256d keep = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(vbits, _mm_setzero_si128())));
    FoldOrdered(_mm256_and_pd(_mm256_mul_pd(d, d), keep), &acc);
  }
  for (; s < segments; ++s) {
    if (bits[s] == 0) continue;
    const size_t idx = (size_t{1} << bits[s]) - 1 + symbols[s];
    const double lo = flat_lower[idx];
    const double hi = flat_upper[idx];
    const double q = paa_q[s];
    double d = 0.0;
    if (q < lo) {
      d = lo - q;
    } else if (q > hi) {
      d = q - hi;
    }
    acc += d * d;
  }
  return acc;
}

double Avx2SfaLbSq(const double* q_dft, const uint8_t* word, size_t dims,
                   const double* edges, size_t stride) {
  double acc = 0.0;
  size_t d = 0;
  const __m128i row_step = _mm_mullo_epi32(_mm_set_epi32(3, 2, 1, 0),
                                           _mm_set1_epi32(static_cast<int>(stride)));
  for (; d + 4 <= dims; d += 4) {
    const __m128i rows =
        _mm_add_epi32(row_step, _mm_set1_epi32(static_cast<int>(d * stride)));
    const __m128i idx = _mm_add_epi32(rows, Load4U8(word + d));
    const __m256d lo = Gather4(edges, idx);
    const __m256d hi = Gather4(edges + 1, idx);
    const __m256d dist = IntervalDist(_mm256_loadu_pd(q_dft + d), lo, hi);
    FoldOrdered(_mm256_mul_pd(dist, dist), &acc);
  }
  for (; d < dims; ++d) {
    const double* row = edges + d * stride;
    const double lo = row[word[d]];
    const double hi = row[word[d] + 1];
    double dist = 0.0;
    if (q_dft[d] < lo) {
      dist = lo - q_dft[d];
    } else if (q_dft[d] > hi) {
      dist = q_dft[d] - hi;
    }
    acc += dist * dist;
  }
  return acc;
}

double Avx2VaLbSq(const double* q_dft, const uint16_t* cells, size_t dims,
                  const double* edges, const uint32_t* offsets) {
  double acc = 0.0;
  size_t d = 0;
  for (; d + 4 <= dims; d += 4) {
    const __m128i off =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(offsets + d));
    const __m128i idx = _mm_add_epi32(off, Load4U16(cells + d));
    const __m256d lo = Gather4(edges, idx);
    const __m256d hi = Gather4(edges + 1, idx);
    const __m256d dist = IntervalDist(_mm256_loadu_pd(q_dft + d), lo, hi);
    FoldOrdered(_mm256_mul_pd(dist, dist), &acc);
  }
  for (; d < dims; ++d) {
    const double lo = edges[offsets[d] + cells[d]];
    const double hi = edges[offsets[d] + cells[d] + 1];
    double dist = 0.0;
    if (q_dft[d] < lo) {
      dist = lo - q_dft[d];
    } else if (q_dft[d] > hi) {
      dist = q_dft[d] - hi;
    }
    acc += dist * dist;
  }
  return acc;
}

double Avx2EapcaNodeLbSq(const double* q_stats, const double* env,
                         const uint32_t* ends, size_t segments) {
  double acc = 0.0;
  size_t s = 0;
  const __m128i pair_step = _mm_set_epi32(6, 4, 2, 0);
  const __m128i quad_step = _mm_set_epi32(12, 8, 4, 0);
  for (; s + 4 <= segments; s += 4) {
    alignas(32) double len[4];
    uint32_t begin = s == 0 ? 0 : ends[s - 1];
    for (size_t j = 0; j < 4; ++j) {
      len[j] = static_cast<double>(ends[s + j] - begin);
      begin = ends[s + j];
    }
    const __m128i idx2 =
        _mm_add_epi32(pair_step, _mm_set1_epi32(static_cast<int>(2 * s)));
    const __m128i idx4 =
        _mm_add_epi32(quad_step, _mm_set1_epi32(static_cast<int>(4 * s)));
    const __m256d q_mean = Gather4(q_stats, idx2);
    const __m256d q_std = Gather4(q_stats + 1, idx2);
    const __m256d min_mean = Gather4(env, idx4);
    const __m256d max_mean = Gather4(env + 1, idx4);
    const __m256d min_std = Gather4(env + 2, idx4);
    const __m256d max_std = Gather4(env + 3, idx4);
    const __m256d dm = IntervalDist(q_mean, min_mean, max_mean);
    const __m256d ds = IntervalDist(q_std, min_std, max_std);
    const __m256d term = _mm256_mul_pd(
        _mm256_load_pd(len),
        _mm256_add_pd(_mm256_mul_pd(dm, dm), _mm256_mul_pd(ds, ds)));
    FoldOrdered(term, &acc);
  }
  uint32_t begin = s == 0 ? 0 : ends[s - 1];
  for (; s < segments; ++s) {
    const double q_mean = q_stats[2 * s];
    const double q_std = q_stats[2 * s + 1];
    double dm = 0.0;
    if (q_mean < env[4 * s]) {
      dm = env[4 * s] - q_mean;
    } else if (q_mean > env[4 * s + 1]) {
      dm = q_mean - env[4 * s + 1];
    }
    double ds = 0.0;
    if (q_std < env[4 * s + 2]) {
      ds = env[4 * s + 2] - q_std;
    } else if (q_std > env[4 * s + 3]) {
      ds = q_std - env[4 * s + 3];
    }
    acc += static_cast<double>(ends[s] - begin) * (dm * dm + ds * ds);
    begin = ends[s];
  }
  return acc;
}

const KernelSet* Avx2KernelsImpl() {
  static constexpr KernelSet kAvx2 = {
      "avx2",
      /*raw_order_preserved=*/false,
      &Avx2EuclideanSq,
      &Avx2EuclideanSqAbandon,
      &Avx2EuclideanSqReordered,
      &Avx2SumSqDiff,
      &Avx2BoxDistSq,
      &Avx2IsaxMinDistSq,
      &Avx2SfaLbSq,
      &Avx2VaLbSq,
      &Avx2EapcaNodeLbSq,
  };
  return &kAvx2;
}

}  // namespace hydra::core::simd::internal

#else  // !(__AVX2__ && __FMA__)

namespace hydra::core::simd::internal {

const KernelSet* Avx2KernelsImpl() { return nullptr; }

}  // namespace hydra::core::simd::internal

#endif
