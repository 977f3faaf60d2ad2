// Vectorized kernels for the hot gossip loops, dispatched by SimdLevel.
//
// Determinism contract: every kernel is *elementwise* — each output
// element is a pure function of the same-index input elements, computed
// with the exact IEEE-754 operations of the scalar loop (no FMA
// contraction, no reassociation), so lane width cannot change a single
// bit. The only reductions are order-free: a stability verdict (an AND)
// and a payload count (an integer sum).
//
// In consequence scalar, AVX2, AVX-512, and NEON results are bit-identical — the
// BitIdentityGate goldens recorded on the scalar path stay valid at every
// level, and scalar remains the always-on oracle. The kernels.cpp TU is
// compiled with -ffp-contract=off -fno-tree-vectorize so the scalar
// reference really is sequential scalar code even at -O3.
//
// NaN semantics are part of the contract: the stability kernels replicate
// the exact branch predicates of their scalar definitions (documented per
// kernel), because an undefined weight or a NaN ratio is a *normal* state
// in push-sum, not an error.
//
// Pointer rules: all pointers may be unaligned (kernels use unaligned
// loads; the SoA arrays are 64-byte aligned anyway for the fast path) and
// `dst == src` aliasing is allowed for the elementwise kernels; partially
// overlapping ranges are not.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace gt::simd {

/// What gather_row_stable returns: gather_row's payload count, and the
/// stability verdict of the row it wrote.
struct GatherVerdict {
  std::uint64_t payload;
  bool stable;
};

/// One resolved kernel set. Obtained once per engine via kernels(); the
/// function pointers are immutable after process start.
struct Kernels {
  SimdLevel level;

  /// x[i] *= 0.5 — the push-half sweep.
  void (*halve)(double* x, std::size_t n);

  /// dst[i] = scale * src[i] — the keep-half assignment (also used with
  /// dst == src as an in-place scale).
  void (*scale_assign)(double* dst, const double* src, double scale,
                       std::size_t n);

  /// dst[i] += scale * src[i], computed as mul-then-add (never fused) —
  /// the received-half accumulation.
  void (*accumulate_scaled)(double* dst, const double* src, double scale,
                            std::size_t n);

  /// dst[i] += src[i] — payload application / chunk-accumulator merge.
  void (*add)(double* dst, const double* src, std::size_t n);

  /// VectorGossip row stability: true when element_stable() (below) holds
  /// for every i between the new row (x, w) and the same node's row one
  /// step earlier (x_old, w_old). Read-only; it returns at the first
  /// unstable block, since only the verdict is an output.
  bool (*row_stable)(const double* x, const double* w, const double* x_old,
                     const double* w_old, double floor, double eps,
                     std::size_t n);

  /// ShardedGossip stability sweep. For each i:
  ///   if (!(w[i] > floor))  row unstable, prev[i] untouched;
  ///   else est = x[i]/w[i]; unstable when !(|est - prev[i]| <= eps)
  ///        (NaN-safe: a NaN prev is unstable); prev[i] = est.
  /// Returns true when every element was stable.
  bool (*residual_keep)(const double* x, const double* w, double* prev,
                        double floor, double eps, std::size_t n);

  /// consensus_means read-out: for each i with w[i] > floor,
  /// acc[i] += x[i]/w[i] and ++cnt[i]; undefined slots untouched.
  void (*ratio_accumulate)(double* acc, std::uint32_t* cnt, const double* x,
                           const double* w, double floor, std::size_t n);

  /// VectorGossip's one dense gather, for one row of a column block:
  ///   nx[i] = keep * x[i], then nx[i] += 0.5 * sx[s][i] for s = 0..k-1
  /// in that order (mul then add, never fused) — exactly scale_assign
  /// followed by k accumulate_scaled calls — and likewise nw from w and
  /// sw. It also returns the old row's payload, the number of i with
  /// h*x[i] != 0.0 || h*w[i] != 0.0 (NaN compares unequal to zero, as
  /// with the scalar `!=`), or 0 without reading it when h == 0. The row
  /// may be updated in place (nx == x, nw == w): every level counts the
  /// payload from the old values it loaded before storing. Otherwise the
  /// outputs must not overlap any input, and no sender row may overlap
  /// an output. Gossip state is finite; where two NaN operands meet,
  /// which payload survives is left open, as IEEE 754 leaves it.
  std::uint64_t (*gather_row)(double* nx, double* nw, const double* x,
                              const double* w, double keep,
                              const double* const* sx,
                              const double* const* sw, std::size_t k,
                              double h, std::size_t n);

  /// gather_row that also decides the row's stability from the values it
  /// loads and stores: the stored row and the payload are gather_row's,
  /// bit for bit, and `stable` is row_stable(nx, nw, x, w, floor, eps, n)
  /// against the old row as loaded. The row may be updated in place, and
  /// no copy of the old row is needed. Lanes are decided by the
  /// division-free test below, or by element_stable where it cannot tell.
  /// Null at the scalar and NEON levels, whose callers copy the old row
  /// and call row_stable after gather_row.
  GatherVerdict (*gather_row_stable)(double* nx, double* nw, const double* x,
                                     const double* w, double keep,
                                     const double* const* sx,
                                     const double* const* sw, std::size_t k,
                                     double h, double floor, double eps,
                                     std::size_t n);
};

/// One element of Kernels::row_stable, and the scalar definition every
/// level reproduces. A component is epsilon-stable when both its new and
/// its old weight are defined, the old ratio is a number, and the ratio
/// moved by at most eps:
///   !(w <= floor) && !(w_old <= floor) && !isnan(x_old / w_old)
///   && !(|x / w - x_old / w_old| > eps)
/// A NaN weight counts as defined (!(NaN <= floor)), and a NaN new ratio
/// against a numeric old one is stable (|NaN| > eps is false). There is no
/// multiply-add to contract, so callers outside kernels.cpp may inline it.
inline bool element_stable(double x, double w, double x_old, double w_old,
                           double floor, double eps) {
  if (w <= floor || w_old <= floor) return false;
  const double prev = x_old / w_old;
  return !std::isnan(prev) && !(std::abs(x / w - prev) > eps);
}

// The division-free verdict of gather_row_stable. For an element with new
// values (x', w') and old values (x, w), element_stable divides twice and
// compares d = fl(fl(x'/w') - fl(x/w)) with eps. The kernel compares
//   D = |fl(a - b)|,  a = fl(x'·w),  b = fl(x·w'),  with  E = fl(fl(eps·w)·w')
// and the margin M = K·fl(fl(|a| + |b|) + E), K = 2^-48 = 32u, where
// u = 2^-53 is the unit roundoff. D <= fl(E - M) counts the element
// stable, D > fl(E + M) unstable. element_stable decides every other
// element, and every element outside these ranges: w and w' in
// (max(floor, 2^-400), 2^400], |x| and |x'| at most 2^400 (so a
// non-finite value always goes to it; zero and tiny masses do not), and
// eps in [2^-100, 2^100] (else every element goes to it).
//
// Why the two verdicts agree. Inside the ranges w, w' > floor, every
// product and ratio is finite, E and M are normal numbers, and a product
// or ratio that underflows (a tiny mass) is off by at most h = 2^-1075.
// Write W = w·w', S = |x'w| + |xw'| and Δ = x'w - xw' exactly, so that
// |x'/w' - x/w| = |Δ|/W and |x'/w'| + |x/w| = S/W. With relative error at
// most u per rounding, plus h per underflow:
//   (1-u)(|Δ| - uS - 2hW) <= W·|d| <= (1+u)(|Δ| + uS + 2hW)
//   (1-u)(|Δ| - uS - 2h)  <=   D   <= (1+u)(|Δ| + uS + 2h)
//   (1-u)^2·eps·W <= E <= (1+u)^2·eps·W,   M >= K(1-u)^3(S + eps·W) - 2Kh.
// Stable: D <= fl(E - M) <= (1+u)(E - M) gives
//   W·|d| <= (1+u)^4/(1-u)·eps·W - K(1-u)^4(S + eps·W) + 2uS·(1+u) + 4h(1+W)
//         <= eps·W + 6u·eps·W - 31u(S + eps·W) + 3uS + 4h(1+W)
//         <= eps·W - 25u·eps·W + 4h(1+W)  <=  eps·W,
// since eps·W >= 2^-100·W and 1 <= 2^800·W make 4h(1+W) < 2^-270·W, far
// below 25u·eps·W >= 2^-149·W. So |d| <= eps: element_stable is true.
// Unstable: D > fl(E + M) >= (1-u)(E + M) gives, the same way,
//   W·|d| >= (1-5u)·eps·W + 31u(S + eps·W) - 2uS - 4h(1+W)  >  eps·W,
// so |d| > eps and element_stable is false. The ranges are wide: a
// column's gossip weights sum to 1 and its masses to at most the total
// reputation, and a weight at most halves per step, so only a run of
// more than 400 steps without a receipt falls below 2^-400.

/// Kernel set for a level. kAuto resolves via resolve_level(); a concrete
/// unsupported level degrades to the scalar set (mirroring
/// resolve_level), so the returned set is always executable on this CPU.
const Kernels& kernels(SimdLevel level);

}  // namespace gt::simd
