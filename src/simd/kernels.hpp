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
  /// with the scalar `!=`), or 0 without reading it when h == 0. The
  /// outputs must not overlap any input. Gossip state is finite; where two
  /// NaN operands meet, which payload survives is left open, as IEEE 754
  /// leaves it.
  std::uint64_t (*gather_row)(double* nx, double* nw, const double* x,
                              const double* w, double keep,
                              const double* const* sx,
                              const double* const* sw, std::size_t k,
                              double h, std::size_t n);
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

/// Kernel set for a level. kAuto resolves via resolve_level(); a concrete
/// unsupported level degrades to the scalar set (mirroring
/// resolve_level), so the returned set is always executable on this CPU.
const Kernels& kernels(SimdLevel level);

}  // namespace gt::simd
