// Kernel implementations: scalar oracle + AVX2 + AVX-512 + NEON.
//
// This TU is compiled with -ffp-contract=off -fno-tree-vectorize
// -fno-tree-slp-vectorize (see src/simd/CMakeLists.txt): the scalar
// loops below are the bit-identity *reference*, so the compiler must not
// quietly fuse them into FMAs or re-vectorize them behind our back — and
// the vector paths must stay exactly the explicit intrinsics written
// here (mul then add, never fused).
//
// Shared scalar helpers implement every loop body once; the vector
// variants call them for unaligned tails, so a tail element goes through
// literally the same compiled code as the scalar kernel.

#include "simd/kernels.hpp"

#include <cmath>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define GT_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define GT_SIMD_NEON 1
#endif

namespace gt::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernels (the oracle). Element semantics live here once; vector
// paths reuse these loops for their tails.
// ---------------------------------------------------------------------------

void halve_scalar(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= 0.5;
}

void scale_assign_scalar(double* dst, const double* src, double scale,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = scale * src[i];
}

void accumulate_scaled_scalar(double* dst, const double* src, double scale,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void add_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

bool row_stable_scalar(const double* x, const double* w, const double* x_old,
                       const double* w_old, double floor, double eps,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (!element_stable(x[i], w[i], x_old[i], w_old[i], floor, eps))
      return false;
  return true;
}

/// One element of the ShardedGossip stability sweep.
inline bool residual_keep_one(double x, double w, double* prev, double floor,
                              double eps) {
  if (!(w > floor)) return false;  // prev untouched
  const double est = x / w;
  const bool unstable = !(std::abs(est - *prev) <= eps);  // NaN-safe
  *prev = est;
  return !unstable;
}

bool residual_keep_scalar(const double* x, const double* w, double* prev,
                          double floor, double eps, std::size_t n) {
  bool stable = true;
  for (std::size_t i = 0; i < n; ++i)
    stable &= residual_keep_one(x[i], w[i], prev + i, floor, eps);
  return stable;
}

inline void ratio_accumulate_one(double* acc, std::uint32_t* cnt, double x,
                                 double w, double floor) {
  if (w > floor) {
    *acc += x / w;
    ++*cnt;
  }
}

void ratio_accumulate_scalar(double* acc, std::uint32_t* cnt, const double* x,
                             const double* w, double floor, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    ratio_accumulate_one(acc + i, cnt + i, x[i], w[i], floor);
}

/// Elements [i0, n) of gather_row: the definition every level reproduces.
/// The payload is counted from the loaded old values, so nx may equal x.
std::uint64_t gather_row_part(double* nx, double* nw, const double* x,
                              const double* w, double keep,
                              const double* const* sx, const double* const* sw,
                              std::size_t k, double h, std::size_t i0,
                              std::size_t n) {
  const bool count_payload = h != 0.0;
  std::uint64_t count = 0;
  for (std::size_t i = i0; i < n; ++i) {
    const double xo = x[i];
    const double wo = w[i];
    double vx = keep * xo;
    double vw = keep * wo;
    for (std::size_t s = 0; s < k; ++s) {
      vx += 0.5 * sx[s][i];
      vw += 0.5 * sw[s][i];
    }
    if (count_payload) count += (h * xo != 0.0 || h * wo != 0.0) ? 1u : 0u;
    nx[i] = vx;
    nw[i] = vw;
  }
  return count;
}

std::uint64_t gather_row_scalar(double* nx, double* nw, const double* x,
                                const double* w, double keep,
                                const double* const* sx,
                                const double* const* sw, std::size_t k,
                                double h, std::size_t n) {
  return gather_row_part(nx, nw, x, w, keep, sx, sw, k, h, 0, n);
}

const Kernels kScalarKernels = {
    SimdLevel::kScalar,     halve_scalar,
    scale_assign_scalar,    accumulate_scaled_scalar,
    add_scalar,             row_stable_scalar,
    residual_keep_scalar,   ratio_accumulate_scalar,
    gather_row_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 x f64 per register, unrolled x2 on the streaming sweeps.
// All arithmetic uses explicit mul/add intrinsics (no FMA) so results are
// bit-identical to the contraction-free scalar loops above.
// ---------------------------------------------------------------------------
#ifdef GT_SIMD_X86

#define GT_AVX2 __attribute__((target("avx2")))

GT_AVX2 void halve_avx2(double* x, std::size_t n) {
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), half));
    _mm256_storeu_pd(x + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), half));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), half));
  halve_scalar(x + i, n - i);
}

GT_AVX2 void scale_assign_avx2(double* dst, const double* src, double scale,
                               std::size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(src + i), s));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(src + i + 4), s));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(src + i), s));
  scale_assign_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX2 void accumulate_scaled_avx2(double* dst, const double* src,
                                    double scale, std::size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d p0 = _mm256_mul_pd(_mm256_loadu_pd(src + i), s);
    const __m256d p1 = _mm256_mul_pd(_mm256_loadu_pd(src + i + 4), s);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), p0));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i + 4), p1));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(src + i), s);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), p));
  }
  accumulate_scaled_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX2 void add_avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                                _mm256_loadu_pd(src + i + 4)));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  add_scalar(dst + i, src + i, n - i);
}

GT_AVX2 bool row_stable_avx2(const double* x, const double* w,
                             const double* x_old, const double* w_old,
                             double floor, double eps, std::size_t n) {
  const __m256d floorv = _mm256_set1_pd(floor);
  const __m256d epsv = _mm256_set1_pd(eps);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d wov = _mm256_loadu_pd(w_old + i);
    // defined := !(w <= floor)  (true for NaN w, like the scalar branch)
    const __m256d defined =
        _mm256_and_pd(_mm256_cmp_pd(wv, floorv, _CMP_NLE_UQ),
                      _mm256_cmp_pd(wov, floorv, _CMP_NLE_UQ));
    const __m256d ratio = _mm256_div_pd(_mm256_loadu_pd(x + i), wv);
    const __m256d prev = _mm256_div_pd(_mm256_loadu_pd(x_old + i), wov);
    const __m256d prev_num = _mm256_cmp_pd(prev, prev, _CMP_ORD_Q);
    // moved := |ratio - prev| > eps  (GT_OQ: NaN diff -> false)
    const __m256d diff = _mm256_and_pd(_mm256_sub_pd(ratio, prev), absmask);
    const __m256d moved = _mm256_cmp_pd(diff, epsv, _CMP_GT_OQ);
    const __m256d stable =
        _mm256_andnot_pd(moved, _mm256_and_pd(defined, prev_num));
    if (_mm256_movemask_pd(stable) != 0xF) return false;
  }
  return row_stable_scalar(x + i, w + i, x_old + i, w_old + i, floor, eps,
                           n - i);
}

GT_AVX2 bool residual_keep_avx2(const double* x, const double* w, double* prev,
                                double floor, double eps, std::size_t n) {
  const __m256d floorv = _mm256_set1_pd(floor);
  const __m256d epsv = _mm256_set1_pd(eps);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d unstable_acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d pv = _mm256_loadu_pd(prev + i);
    // defined := w > floor  (GT_OQ: NaN w -> undefined, like `!(w > floor)`)
    const __m256d defined = _mm256_cmp_pd(wv, floorv, _CMP_GT_OQ);
    const __m256d est = _mm256_div_pd(xv, wv);
    // unstable for defined lanes := !(|est - prev| <= eps), NaN-safe
    const __m256d diff = _mm256_and_pd(_mm256_sub_pd(est, pv), absmask);
    const __m256d unstable_def = _mm256_cmp_pd(diff, epsv, _CMP_NLE_UQ);
    const __m256d unstable =
        _mm256_or_pd(_mm256_andnot_pd(defined, ones),
                     _mm256_and_pd(defined, unstable_def));
    unstable_acc = _mm256_or_pd(unstable_acc, unstable);
    // prev untouched on undefined lanes
    _mm256_storeu_pd(prev + i, _mm256_blendv_pd(pv, est, defined));
  }
  bool stable = _mm256_movemask_pd(unstable_acc) == 0;
  for (; i < n; ++i)
    stable &= residual_keep_one(x[i], w[i], prev + i, floor, eps);
  return stable;
}

GT_AVX2 void ratio_accumulate_avx2(double* acc, std::uint32_t* cnt,
                                   const double* x, const double* w,
                                   double floor, std::size_t n) {
  const __m256d floorv = _mm256_set1_pd(floor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d defined = _mm256_cmp_pd(wv, floorv, _CMP_GT_OQ);
    const int m = _mm256_movemask_pd(defined);
    if (m == 0) continue;
    const __m256d ratio = _mm256_div_pd(_mm256_loadu_pd(x + i), wv);
    const __m256d av = _mm256_loadu_pd(acc + i);
    // Blend the *sum*, not a zeroed addend: adding +0.0 would flip a
    // stored -0.0 accumulator to +0.0 and break bit-identity.
    _mm256_storeu_pd(
        acc + i, _mm256_blendv_pd(av, _mm256_add_pd(av, ratio), defined));
    cnt[i] += m & 1;
    cnt[i + 1] += (m >> 1) & 1;
    cnt[i + 2] += (m >> 2) & 1;
    cnt[i + 3] += (m >> 3) & 1;
  }
  ratio_accumulate_scalar(acc + i, cnt + i, x + i, w + i, floor, n - i);
}

GT_AVX2 std::uint64_t gather_row_avx2(double* nx, double* nw, const double* x,
                                      const double* w, double keep,
                                      const double* const* sx,
                                      const double* const* sw, std::size_t k,
                                      double h, std::size_t n) {
  const __m256d kv = _mm256_set1_pd(keep);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d hv = _mm256_set1_pd(h);
  const __m256d zero = _mm256_setzero_pd();
  const bool count_payload = h != 0.0;
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xo = _mm256_loadu_pd(x + i);
    const __m256d wo = _mm256_loadu_pd(w + i);
    __m256d vx = _mm256_mul_pd(xo, kv);
    __m256d vw = _mm256_mul_pd(wo, kv);
    for (std::size_t s = 0; s < k; ++s) {
      vx = _mm256_add_pd(vx, _mm256_mul_pd(_mm256_loadu_pd(sx[s] + i), half));
      vw = _mm256_add_pd(vw, _mm256_mul_pd(_mm256_loadu_pd(sw[s] + i), half));
    }
    _mm256_storeu_pd(nx + i, vx);
    _mm256_storeu_pd(nw + i, vw);
    if (count_payload) {
      // NEQ_UQ: NaN != 0.0 -> true, matching the scalar `!=`.
      const __m256d nz = _mm256_or_pd(
          _mm256_cmp_pd(_mm256_mul_pd(hv, xo), zero, _CMP_NEQ_UQ),
          _mm256_cmp_pd(_mm256_mul_pd(hv, wo), zero, _CMP_NEQ_UQ));
      count += static_cast<unsigned>(__builtin_popcount(_mm256_movemask_pd(nz)));
    }
  }
  return count + gather_row_part(nx, nw, x, w, keep, sx, sw, k, h, i, n);
}

const Kernels kAvx2Kernels = {
    SimdLevel::kAvx2,       halve_avx2,
    scale_assign_avx2,      accumulate_scaled_avx2,
    add_avx2,               row_stable_avx2,
    residual_keep_avx2,     ratio_accumulate_avx2,
    gather_row_avx2,
};

// ---------------------------------------------------------------------------
// AVX-512 kernels: 8 x f64 per register on the four streaming mul/add
// sweeps — the store-bound hot loops where 512-bit width is pure win. The
// predicate and ratio kernels reuse the AVX2 forms above: they are
// elementwise, so mixing widths inside one dispatch table cannot change a
// single bit, and their scalar-divide / movemask structure gains nothing
// from wider registers.
// ---------------------------------------------------------------------------

#define GT_AVX512 __attribute__((target("avx512f")))

GT_AVX512 void halve_avx512(double* x, std::size_t n) {
  const __m512d half = _mm512_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), half));
    _mm512_storeu_pd(x + i + 8,
                     _mm512_mul_pd(_mm512_loadu_pd(x + i + 8), half));
  }
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), half));
  halve_scalar(x + i, n - i);
}

GT_AVX512 void scale_assign_avx512(double* dst, const double* src,
                                   double scale, std::size_t n) {
  const __m512d s = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(dst + i, _mm512_mul_pd(_mm512_loadu_pd(src + i), s));
    _mm512_storeu_pd(dst + i + 8,
                     _mm512_mul_pd(_mm512_loadu_pd(src + i + 8), s));
  }
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dst + i, _mm512_mul_pd(_mm512_loadu_pd(src + i), s));
  scale_assign_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX512 void accumulate_scaled_avx512(double* dst, const double* src,
                                        double scale, std::size_t n) {
  const __m512d s = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Explicit mul then add — _mm512_fmadd_pd would fuse and break
    // bit-identity with the contraction-free scalar oracle.
    const __m512d p0 = _mm512_mul_pd(_mm512_loadu_pd(src + i), s);
    const __m512d p1 = _mm512_mul_pd(_mm512_loadu_pd(src + i + 8), s);
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i), p0));
    _mm512_storeu_pd(dst + i + 8,
                     _mm512_add_pd(_mm512_loadu_pd(dst + i + 8), p1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d p = _mm512_mul_pd(_mm512_loadu_pd(src + i), s);
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i), p));
  }
  accumulate_scaled_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX512 void add_avx512(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
    _mm512_storeu_pd(dst + i + 8,
                     _mm512_add_pd(_mm512_loadu_pd(dst + i + 8),
                                   _mm512_loadu_pd(src + i + 8)));
  }
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  add_scalar(dst + i, src + i, n - i);
}

GT_AVX512 std::uint64_t gather_row_avx512(double* nx, double* nw,
                                          const double* x, const double* w,
                                          double keep, const double* const* sx,
                                          const double* const* sw,
                                          std::size_t k, double h,
                                          std::size_t n) {
  const __m512d kv = _mm512_set1_pd(keep);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d hv = _mm512_set1_pd(h);
  const __m512d zero = _mm512_setzero_pd();
  const bool count_payload = h != 0.0;
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xo = _mm512_loadu_pd(x + i);
    const __m512d wo = _mm512_loadu_pd(w + i);
    // Explicit mul then add, as in accumulate_scaled_avx512.
    __m512d vx = _mm512_mul_pd(xo, kv);
    __m512d vw = _mm512_mul_pd(wo, kv);
    for (std::size_t s = 0; s < k; ++s) {
      vx = _mm512_add_pd(vx, _mm512_mul_pd(_mm512_loadu_pd(sx[s] + i), half));
      vw = _mm512_add_pd(vw, _mm512_mul_pd(_mm512_loadu_pd(sw[s] + i), half));
    }
    _mm512_storeu_pd(nx + i, vx);
    _mm512_storeu_pd(nw + i, vw);
    if (count_payload) {
      // NEQ_UQ: NaN != 0.0 -> true, matching the scalar `!=`.
      const __mmask8 nz =
          _mm512_cmp_pd_mask(_mm512_mul_pd(hv, xo), zero, _CMP_NEQ_UQ) |
          _mm512_cmp_pd_mask(_mm512_mul_pd(hv, wo), zero, _CMP_NEQ_UQ);
      count += static_cast<unsigned>(__builtin_popcount(nz));
    }
  }
  return count + gather_row_part(nx, nw, x, w, keep, sx, sw, k, h, i, n);
}

const Kernels kAvx512Kernels = {
    SimdLevel::kAvx512,     halve_avx512,
    scale_assign_avx512,    accumulate_scaled_avx512,
    add_avx512,             row_stable_avx2,
    residual_keep_avx2,     ratio_accumulate_avx2,
    gather_row_avx512,
};

#endif  // GT_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels: 2 x f64 per register.
// aarch64 mandates AdvSIMD, so no runtime gate beyond the architecture.
// ---------------------------------------------------------------------------
#ifdef GT_SIMD_NEON

void halve_neon(double* x, std::size_t n) {
  const float64x2_t half = vdupq_n_f64(0.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), half));
    vst1q_f64(x + i + 2, vmulq_f64(vld1q_f64(x + i + 2), half));
  }
  halve_scalar(x + i, n - i);
}

void scale_assign_neon(double* dst, const double* src, double scale,
                       std::size_t n) {
  const float64x2_t s = vdupq_n_f64(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(dst + i, vmulq_f64(vld1q_f64(src + i), s));
    vst1q_f64(dst + i + 2, vmulq_f64(vld1q_f64(src + i + 2), s));
  }
  scale_assign_scalar(dst + i, src + i, scale, n - i);
}

void accumulate_scaled_neon(double* dst, const double* src, double scale,
                            std::size_t n) {
  const float64x2_t s = vdupq_n_f64(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Explicit mul then add — vfmaq would fuse and break bit-identity.
    const float64x2_t p0 = vmulq_f64(vld1q_f64(src + i), s);
    const float64x2_t p1 = vmulq_f64(vld1q_f64(src + i + 2), s);
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), p0));
    vst1q_f64(dst + i + 2, vaddq_f64(vld1q_f64(dst + i + 2), p1));
  }
  accumulate_scaled_scalar(dst + i, src + i, scale, n - i);
}

void add_neon(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
    vst1q_f64(dst + i + 2,
              vaddq_f64(vld1q_f64(dst + i + 2), vld1q_f64(src + i + 2)));
  }
  add_scalar(dst + i, src + i, n - i);
}

inline uint64x2_t not_u64(uint64x2_t v) {
  return veorq_u64(v, vdupq_n_u64(~0ULL));
}

bool row_stable_neon(const double* x, const double* w, const double* x_old,
                     const double* w_old, double floor, double eps,
                     std::size_t n) {
  const float64x2_t floorv = vdupq_n_f64(floor);
  const float64x2_t epsv = vdupq_n_f64(eps);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wv = vld1q_f64(w + i);
    const float64x2_t wov = vld1q_f64(w_old + i);
    // defined := !(w <= floor); vcleq is false on NaN, so NOT gives true.
    const uint64x2_t defined = not_u64(
        vorrq_u64(vcleq_f64(wv, floorv), vcleq_f64(wov, floorv)));
    const float64x2_t ratio = vdivq_f64(vld1q_f64(x + i), wv);
    const float64x2_t prev = vdivq_f64(vld1q_f64(x_old + i), wov);
    // !isnan(prev) == (prev == prev)
    const uint64x2_t prev_num = vceqq_f64(prev, prev);
    const uint64x2_t moved =
        vcgtq_f64(vabsq_f64(vsubq_f64(ratio, prev)), epsv);  // NaN -> false
    const uint64x2_t stable = vbicq_u64(vandq_u64(defined, prev_num), moved);
    if ((vgetq_lane_u64(stable, 0) & vgetq_lane_u64(stable, 1)) == 0)
      return false;
  }
  return row_stable_scalar(x + i, w + i, x_old + i, w_old + i, floor, eps,
                           n - i);
}

bool residual_keep_neon(const double* x, const double* w, double* prev,
                        double floor, double eps, std::size_t n) {
  const float64x2_t floorv = vdupq_n_f64(floor);
  const float64x2_t epsv = vdupq_n_f64(eps);
  uint64x2_t unstable_acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wv = vld1q_f64(w + i);
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t pv = vld1q_f64(prev + i);
    const uint64x2_t defined = vcgtq_f64(wv, floorv);  // NaN -> undefined
    const float64x2_t est = vdivq_f64(xv, wv);
    const float64x2_t diff = vabsq_f64(vsubq_f64(est, pv));
    // !(|est - prev| <= eps), true on NaN
    const uint64x2_t unstable_def = not_u64(vcleq_f64(diff, epsv));
    const uint64x2_t unstable =
        vorrq_u64(vbicq_u64(vdupq_n_u64(~0ULL), defined),
                  vandq_u64(defined, unstable_def));
    unstable_acc = vorrq_u64(unstable_acc, unstable);
    vst1q_f64(prev + i, vbslq_f64(defined, est, pv));
  }
  bool stable = (vgetq_lane_u64(unstable_acc, 0) |
                 vgetq_lane_u64(unstable_acc, 1)) == 0;
  for (; i < n; ++i)
    stable &= residual_keep_one(x[i], w[i], prev + i, floor, eps);
  return stable;
}

void ratio_accumulate_neon(double* acc, std::uint32_t* cnt, const double* x,
                           const double* w, double floor, std::size_t n) {
  const float64x2_t floorv = vdupq_n_f64(floor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wv = vld1q_f64(w + i);
    const uint64x2_t defined = vcgtq_f64(wv, floorv);
    const std::uint64_t m0 = vgetq_lane_u64(defined, 0);
    const std::uint64_t m1 = vgetq_lane_u64(defined, 1);
    if ((m0 | m1) == 0) continue;
    const float64x2_t ratio = vdivq_f64(vld1q_f64(x + i), wv);
    const float64x2_t av = vld1q_f64(acc + i);
    vst1q_f64(acc + i, vbslq_f64(defined, vaddq_f64(av, ratio), av));
    cnt[i] += m0 & 1;
    cnt[i + 1] += m1 & 1;
  }
  ratio_accumulate_scalar(acc + i, cnt + i, x + i, w + i, floor, n - i);
}

std::uint64_t gather_row_neon(double* nx, double* nw, const double* x,
                              const double* w, double keep,
                              const double* const* sx,
                              const double* const* sw, std::size_t k,
                              double h, std::size_t n) {
  const float64x2_t kv = vdupq_n_f64(keep);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t hv = vdupq_n_f64(h);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const bool count_payload = h != 0.0;
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xo = vld1q_f64(x + i);
    const float64x2_t wo = vld1q_f64(w + i);
    // Explicit mul then add — vfmaq would fuse and break bit-identity.
    float64x2_t vx = vmulq_f64(xo, kv);
    float64x2_t vw = vmulq_f64(wo, kv);
    for (std::size_t s = 0; s < k; ++s) {
      vx = vaddq_f64(vx, vmulq_f64(vld1q_f64(sx[s] + i), half));
      vw = vaddq_f64(vw, vmulq_f64(vld1q_f64(sw[s] + i), half));
    }
    vst1q_f64(nx + i, vx);
    vst1q_f64(nw + i, vw);
    if (count_payload) {
      // (h*v != 0) == !(h*v == 0); vceqq is false on NaN, NOT gives true.
      const uint64x2_t nz =
          vorrq_u64(not_u64(vceqq_f64(vmulq_f64(hv, xo), zero)),
                    not_u64(vceqq_f64(vmulq_f64(hv, wo), zero)));
      count += (vgetq_lane_u64(nz, 0) & 1) + (vgetq_lane_u64(nz, 1) & 1);
    }
  }
  return count + gather_row_part(nx, nw, x, w, keep, sx, sw, k, h, i, n);
}

const Kernels kNeonKernels = {
    SimdLevel::kNeon,       halve_neon,
    scale_assign_neon,      accumulate_scaled_neon,
    add_neon,               row_stable_neon,
    residual_keep_neon,     ratio_accumulate_neon,
    gather_row_neon,
};

#endif  // GT_SIMD_NEON

}  // namespace

const Kernels& kernels(SimdLevel level) {
  if (level == SimdLevel::kAuto) level = resolve_level(SimdLevel::kAuto);
  switch (level) {
#ifdef GT_SIMD_X86
    case SimdLevel::kAvx2:
      if (level_supported(SimdLevel::kAvx2)) return kAvx2Kernels;
      break;
    case SimdLevel::kAvx512:
      if (level_supported(SimdLevel::kAvx512)) return kAvx512Kernels;
      break;
#endif
#ifdef GT_SIMD_NEON
    case SimdLevel::kNeon:
      return kNeonKernels;
#endif
    default:
      break;
  }
  return kScalarKernels;
}

}  // namespace gt::simd
