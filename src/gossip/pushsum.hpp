// Push-sum gossip knobs shared by the gossip kernels (Algorithm 1 of the
// paper; Kempe et al., FOCS'03).
//
// Push-sum computes a weighted sum across n nodes: node i starts with the
// pair (x_i(0), w_i(0)); every step each node halves its pair, keeps one
// half and pushes the other to a uniformly random node; received halves
// are summed (Eqs. 3-4). The ratio beta_i = x_i / w_i converges on every
// node to  sum_i x_i(0) / sum_i w_i(0)  in O(log n) steps. A node declares
// itself converged when its ratio moved by at most epsilon for
// `stable_rounds` consecutive steps (Algorithm 1 line 14, hardened against
// the step-1 false positive the paper's Table 1 "infinity" entries hint at).
//
// Algorithm 2 runs that push-sum once per trust component. VectorGossip
// (the synchronous kernel), AsyncGossip (event-driven, over the simulated
// network) and ShardedGossip (K components at million-node scale) all
// implement it; a single scalar sum is VectorGossip's column j with w
// seeded on node j alone.
#pragma once

#include <cstddef>

#include "simd/simd.hpp"

namespace gt::gossip {

using NodeId = std::size_t;

/// Weights at or below this are treated as zero: the node has not yet
/// received any consensus-factor mass for the component and its ratio is
/// undefined (the paper's Table 1 shows this as an "infinity" entry).
inline constexpr double kWeightFloor = 1e-300;

/// Convergence/termination knobs shared by the gossip kernels.
struct PushSumConfig {
  double epsilon = 1e-4;            ///< gossip error threshold (paper's eps)
  std::size_t stable_rounds = 2;    ///< consecutive stable steps required
  std::size_t max_steps = 100000;   ///< hard safety cap
  double loss_probability = 0.0;    ///< i.i.d. message loss (failure injection)
  bool neighbors_only = false;      ///< push to overlay neighbors instead of any node
  std::size_t num_threads = 1;      ///< vector-gossip kernel lanes (0 = hardware)
  bool batch_wire = true;           ///< async: coalesce a push's active triplets
                                    ///< into one wire message per destination
                                    ///< (false = one message per triplet; same
                                    ///< math, different traffic accounting)
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
                                    ///< kernel ISA for the dense sweeps;
                                    ///< resolved via simd::resolve_level at
                                    ///< construction (GT_SIMD env wins).
                                    ///< Never changes results — all kernels
                                    ///< are bit-identical to scalar.
};

}  // namespace gt::gossip
