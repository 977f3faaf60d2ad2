// SIMD layer unit tests: runtime dispatch under GT_SIMD, bitwise
// scalar-vs-vector kernel sweeps over edge sizes (short tails, unaligned
// heads, NaN/inf/denormal payloads), the row-stability predicate at its
// edges, and the aligned allocator contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "gossip/pushsum.hpp"
#include "simd/kernels.hpp"
#include "simd/simd.hpp"

namespace gt::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFloor = 1e-300;

/// RAII GT_SIMD override (tests must not leak env state into each other).
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("GT_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("GT_SIMD", value, 1);
    } else {
      ::unsetenv("GT_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      ::setenv("GT_SIMD", old_.c_str(), 1);
    } else {
      ::unsetenv("GT_SIMD");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

/// The levels actually executable on this machine (always includes
/// scalar; avx2/neon only where supported, so the suite is green on any
/// host).
std::vector<SimdLevel> supported_vector_levels() {
  std::vector<SimdLevel> levels;
  if (level_supported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (level_supported(SimdLevel::kAvx512))
    levels.push_back(SimdLevel::kAvx512);
  if (level_supported(SimdLevel::kNeon)) levels.push_back(SimdLevel::kNeon);
  return levels;
}

/// Deterministic ugly test data: mixes signs, magnitudes, exact zeros,
/// -0.0, denormals, infinities and NaNs — everything the gossip state can
/// legally hold.
std::vector<double> ugly_data(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    switch (s % 11) {
      case 0: v[i] = 0.0; break;
      case 1: v[i] = -0.0; break;
      case 2: v[i] = 5e-324; break;  // smallest denormal
      case 3: v[i] = -1e-310; break;
      case 4: v[i] = kInf; break;
      case 5: v[i] = -kInf; break;
      case 6: v[i] = kNaN; break;
      default:
        v[i] = (static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5) * 8.0;
        break;
    }
  }
  return v;
}

/// Realistic weights: mostly positive, some exactly 0 (undefined), a few
/// NaN (the residual kernels' branch semantics differ on them on purpose).
std::vector<double> weight_data(std::size_t n, std::uint64_t seed) {
  auto v = ugly_data(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(v[i]) || i % 7 == 3) continue;  // keep some NaN / specials
    v[i] = std::abs(v[i]);
    if (i % 5 == 0) v[i] = 0.0;
  }
  return v;
}

const std::size_t kEdgeSizes[] = {0, 1, 2, 3,  4,  5,  7,  8,  9, 15,
                                  16, 17, 31, 32, 33, 63, 64, 65, 100};

/// gather_row's payload count by its definition: how many i have
/// h*x[i] != 0.0 or h*w[i] != 0.0 (NaN compares unequal to zero).
std::uint64_t expected_payload(const std::vector<double>& x,
                               const std::vector<double>& w, double h) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    count += (h * x[i] != 0.0 || h * w[i] != 0.0) ? 1u : 0u;
  return count;
}

#define EXPECT_BITEQ_VEC(a, b)                                            \
  do {                                                                    \
    ASSERT_EQ((a).size(), (b).size());                                    \
    if (!(a).empty()) {                                                   \
      EXPECT_EQ(                                                          \
          std::memcmp((a).data(), (b).data(), (a).size() * sizeof(double)), 0); \
    }                                                                     \
  } while (0)

// --- runtime dispatch ------------------------------------------------------

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(SimdLevel::kAuto), "auto");
  EXPECT_STREQ(level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(level_name(SimdLevel::kAvx512), "avx512");
  EXPECT_STREQ(level_name(SimdLevel::kNeon), "neon");
}

TEST(SimdDispatch, ParseAcceptsTheClosedSet) {
  EXPECT_EQ(parse_level("off"), SimdLevel::kScalar);
  EXPECT_EQ(parse_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_level("auto"), SimdLevel::kAuto);
  EXPECT_EQ(parse_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_level("avx512"), SimdLevel::kAvx512);
  EXPECT_EQ(parse_level("neon"), SimdLevel::kNeon);
  EXPECT_THROW(parse_level(""), std::invalid_argument);
  EXPECT_THROW(parse_level("sse2"), std::invalid_argument);
  EXPECT_THROW(parse_level("ON"), std::invalid_argument);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndAutoResolvesConcrete) {
  EXPECT_TRUE(level_supported(SimdLevel::kScalar));
  const SimdLevel best = detect_level();
  EXPECT_NE(best, SimdLevel::kAuto);
  EXPECT_TRUE(level_supported(best));
}

TEST(SimdDispatch, EnvOffForcesScalarOverConfig) {
  ScopedSimdEnv env("off");
  EXPECT_EQ(resolve_level(SimdLevel::kAuto), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kAvx2), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kNeon), SimdLevel::kScalar);
}

TEST(SimdDispatch, EnvAutoResolvesToDetectedLevel) {
  ScopedSimdEnv env("auto");
  EXPECT_EQ(resolve_level(SimdLevel::kScalar), detect_level());
}

TEST(SimdDispatch, EnvForcedLevelDegradesToScalarWhenUnsupported) {
  {
    ScopedSimdEnv env("avx2");
    const SimdLevel got = resolve_level(SimdLevel::kAuto);
    EXPECT_EQ(got, level_supported(SimdLevel::kAvx2) ? SimdLevel::kAvx2
                                                     : SimdLevel::kScalar);
  }
  {
    ScopedSimdEnv env("neon");
    const SimdLevel got = resolve_level(SimdLevel::kAuto);
    EXPECT_EQ(got, level_supported(SimdLevel::kNeon) ? SimdLevel::kNeon
                                                     : SimdLevel::kScalar);
  }
}

TEST(SimdDispatch, EnvGarbageThrowsLoudly) {
  ScopedSimdEnv env("fastest-please");
  EXPECT_THROW(resolve_level(SimdLevel::kAuto), std::invalid_argument);
}

TEST(SimdDispatch, NoEnvUsesConfiguredLevel) {
  ScopedSimdEnv env(nullptr);
  EXPECT_EQ(resolve_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kAuto), detect_level());
}

TEST(SimdDispatch, KernelsTableMatchesRequestedLevel) {
  ScopedSimdEnv env(nullptr);
  EXPECT_EQ(kernels(SimdLevel::kScalar).level, SimdLevel::kScalar);
  for (const SimdLevel l : supported_vector_levels())
    EXPECT_EQ(kernels(l).level, l);
  // kAuto resolves; an unsupported concrete level degrades to scalar.
  EXPECT_EQ(kernels(SimdLevel::kAuto).level, detect_level());
  if (!level_supported(SimdLevel::kNeon)) {
    EXPECT_EQ(kernels(SimdLevel::kNeon).level, SimdLevel::kScalar);
  }
  if (!level_supported(SimdLevel::kAvx2)) {
    EXPECT_EQ(kernels(SimdLevel::kAvx2).level, SimdLevel::kScalar);
  }
  if (!level_supported(SimdLevel::kAvx512)) {
    EXPECT_EQ(kernels(SimdLevel::kAvx512).level, SimdLevel::kScalar);
  }
}

// --- aligned allocator -----------------------------------------------------

TEST(SimdAlloc, VectorsAre64ByteAligned) {
  for (std::size_t n : {1, 3, 7, 100, 4096}) {
    aligned_vector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
    aligned_vector<std::uint32_t> u(n, 1u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) % kAlignment, 0u);
  }
}

TEST(SimdAlloc, PaddedSizeRoundsUpToKernelGranularity) {
  EXPECT_EQ(padded_size(0), 0u);
  EXPECT_EQ(padded_size(1), kPadSlots);
  EXPECT_EQ(padded_size(kPadSlots), kPadSlots);
  EXPECT_EQ(padded_size(kPadSlots + 1), 2 * kPadSlots);
  EXPECT_EQ(padded_size(1000), 1000u);  // already a multiple of 8
  EXPECT_EQ(padded_size(1001), 1008u);
}

// --- bitwise scalar-vs-vector sweeps --------------------------------------

class SimdKernelSweep : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(SimdKernelSweep, ElementwiseKernelsBitIdentical) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    auto x1 = ugly_data(n, 2 * n + 1);
    auto x2 = x1;
    scalar.halve(x1.data(), n);
    vec.halve(x2.data(), n);
    EXPECT_BITEQ_VEC(x1, x2);

    std::vector<double> d1(n, -0.0), d2(n, -0.0);
    scalar.scale_assign(d1.data(), x1.data(), 0.5, n);
    vec.scale_assign(d2.data(), x2.data(), 0.5, n);
    EXPECT_BITEQ_VEC(d1, d2);

    // In-place aliasing is part of the kernel contract.
    scalar.scale_assign(d1.data(), d1.data(), 2.0, n);
    vec.scale_assign(d2.data(), d2.data(), 2.0, n);
    EXPECT_BITEQ_VEC(d1, d2);

    auto s1 = ugly_data(n, 5 * n + 3);
    scalar.accumulate_scaled(d1.data(), s1.data(), 0.5, n);
    vec.accumulate_scaled(d2.data(), s1.data(), 0.5, n);
    EXPECT_BITEQ_VEC(d1, d2);

    scalar.add(d1.data(), x1.data(), n);
    vec.add(d2.data(), x2.data(), n);
    EXPECT_BITEQ_VEC(d1, d2);
  }
}

TEST_P(SimdKernelSweep, ResidualKernelsBitIdenticalIncludingNaNBranches) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    const auto x = ugly_data(n, 3 * n + 7);
    const auto w = weight_data(n, 4 * n + 9);
    const auto xo = ugly_data(n, 6 * n + 11);
    const auto wo = weight_data(n, 7 * n + 3);
    // Ugly rows are unstable almost everywhere; the verdict must still
    // match, and so must rows that repeat the old row up to each cut-off.
    EXPECT_EQ(scalar.row_stable(x.data(), w.data(), xo.data(), wo.data(),
                                kFloor, 1e-4, n),
              vec.row_stable(x.data(), w.data(), xo.data(), wo.data(), kFloor,
                             1e-4, n))
        << "row_stable n=" << n;
    for (std::size_t cut = 0; cut <= n; ++cut) {
      std::vector<double> xs(x), ws(w);
      for (std::size_t i = 0; i < cut; ++i) {
        xs[i] = xo[i];
        ws[i] = wo[i];
      }
      EXPECT_EQ(scalar.row_stable(xs.data(), ws.data(), xo.data(), wo.data(),
                                  kFloor, 1e-4, n),
                vec.row_stable(xs.data(), ws.data(), xo.data(), wo.data(),
                               kFloor, 1e-4, n))
          << "row_stable n=" << n << " cut=" << cut;
    }

    auto q1 = ugly_data(n, 8 * n + 13);
    auto q2 = q1;
    const bool k1 = scalar.residual_keep(x.data(), w.data(), q1.data(), kFloor,
                                         1e-4, n);
    const bool k2 =
        vec.residual_keep(x.data(), w.data(), q2.data(), kFloor, 1e-4, n);
    EXPECT_EQ(k1, k2) << "residual_keep n=" << n;
    EXPECT_BITEQ_VEC(q1, q2);
  }
}

// Row stability at the edges of its predicate, planted into an otherwise
// stable row at every lane position (first and last lane of every block,
// short tails) and behind every unaligned head: each level must return the
// documented verdict, and so must the scalar oracle.
TEST_P(SimdKernelSweep, RowStableEdgeCasesMatchScalarOracle) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  const double floor = gossip::kWeightFloor;
  const double eps = 0.25;  // 2.25 - 2.0 is exactly eps
  const double above_floor = std::nextafter(floor, 1.0);
  const double past_eps = std::nextafter(2.25, 3.0);
  struct Plant {
    const char* what;
    double x, w, x_old, w_old;
    bool stable;
  };
  const Plant plants[] = {
      {"baseline", 2.0, 1.0, 2.0, 1.0, true},
      {"zero w", 2.0, 0.0, 2.0, 1.0, false},
      {"zero w_old", 2.0, 1.0, 2.0, 0.0, false},
      {"-0 w", 2.0, -0.0, 2.0, 1.0, false},
      {"NaN w (defined, NaN ratio)", 2.0, kNaN, 2.0, 1.0, true},
      {"NaN w_old", 2.0, 1.0, 2.0, kNaN, false},
      {"w at floor", 2.0 * floor, floor, 2.0, 1.0, false},
      {"w_old at floor", 2.0, 1.0, 2.0 * floor, floor, false},
      {"w just above floor", 2.0 * above_floor, above_floor, 2.0, 1.0, true},
      {"|diff| == eps", 2.25, 1.0, 2.0, 1.0, true},
      {"|diff| == -eps", 1.75, 1.0, 2.0, 1.0, true},
      {"|diff| > eps", past_eps, 1.0, 2.0, 1.0, false},
      {"NaN x", kNaN, 1.0, 2.0, 1.0, true},
      {"NaN x_old", 2.0, 1.0, kNaN, 1.0, false},
      {"inf x", kInf, 1.0, 2.0, 1.0, false},
      {"inf/inf old", 2.0, 1.0, kInf, kInf, false},
  };
  for (const Plant& p : plants)
    ASSERT_EQ(element_stable(p.x, p.w, p.x_old, p.w_old, floor, eps),
              p.stable)
        << p.what;

  // Four row buffers with room for an 8-double head offset.
  constexpr std::size_t kMax = 40;
  aligned_vector<double> x(kMax + 8), w(kMax + 8), xo(kMax + 8), wo(kMax + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33}) {
      for (std::size_t pos = 0; pos < n; ++pos) {
        for (const Plant& p : plants) {
          for (std::size_t i = 0; i < n; ++i) {
            // Stable background: ratio 2 on both sides, varied weights.
            w[off + i] = 0.5 + 0.25 * static_cast<double>(i);
            x[off + i] = 2.0 * w[off + i];
            wo[off + i] = 1.0 + static_cast<double>(i);
            xo[off + i] = 2.0 * wo[off + i];
          }
          x[off + pos] = p.x;
          w[off + pos] = p.w;
          xo[off + pos] = p.x_old;
          wo[off + pos] = p.w_old;
          const double* a[4] = {x.data() + off, w.data() + off,
                                xo.data() + off, wo.data() + off};
          EXPECT_EQ(scalar.row_stable(a[0], a[1], a[2], a[3], floor, eps, n),
                    p.stable)
              << "scalar " << p.what << " n=" << n << " pos=" << pos
              << " off=" << off;
          EXPECT_EQ(vec.row_stable(a[0], a[1], a[2], a[3], floor, eps, n),
                    p.stable)
              << level_name(vec.level) << " " << p.what << " n=" << n
              << " pos=" << pos << " off=" << off;
        }
      }
    }
  }
  // Empty rows are vacuously stable.
  EXPECT_TRUE(scalar.row_stable(x.data(), w.data(), xo.data(), wo.data(),
                                floor, eps, 0));
  EXPECT_TRUE(vec.row_stable(x.data(), w.data(), xo.data(), wo.data(), floor,
                             eps, 0));
}

TEST_P(SimdKernelSweep, RatioAccumulateAndPayloadCountBitIdentical) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    const auto x = ugly_data(n, 9 * n + 1);
    const auto w = weight_data(n, 10 * n + 5);
    // Start accumulators at -0.0: a kernel that blends a zero *addend*
    // instead of the sum would flip the sign bit here.
    std::vector<double> a1(n, -0.0), a2(n, -0.0);
    std::vector<std::uint32_t> c1(n, 7), c2(n, 7);
    scalar.ratio_accumulate(a1.data(), c1.data(), x.data(), w.data(), kFloor, n);
    vec.ratio_accumulate(a2.data(), c2.data(), x.data(), w.data(), kFloor, n);
    EXPECT_BITEQ_VEC(a1, a2);
    EXPECT_EQ(c1, c2);

    // gather_row's payload count on rows holding NaN and infinities. Only
    // the count is compared: which NaN payload a row carries is left open.
    std::vector<double> nx(n), nw(n);
    for (const double h : {0.5, 1.0}) {
      for (const Kernels* kn : {&scalar, &vec}) {
        EXPECT_EQ(kn->gather_row(nx.data(), nw.data(), x.data(), w.data(), 0.5,
                                 nullptr, nullptr, 0, h, n),
                  expected_payload(x, w, h))
            << level_name(kn->level) << " h=" << h << " n=" << n;
      }
    }
  }
}

// The fused gather is exactly scale_assign followed by one
// accumulate_scaled per sender, plus the payload count of the old row.
// Inputs hold no NaN: the gossip state is always finite, and when two NaN
// operands meet IEEE 754 leaves open which payload survives (compilers
// commute the scalar add). Infinities still make NaNs mid-fold.
TEST_P(SimdKernelSweep, GatherRowMatchesComposedKernels) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  const auto no_nan = [](std::vector<double> v) {
    for (auto& e : v)
      if (std::isnan(e)) e = 3.0;
    return v;
  };
  for (const std::size_t n : kEdgeSizes) {
    const auto x = no_nan(ugly_data(n, 11 * n + 2));
    const auto w = no_nan(weight_data(n, 12 * n + 4));
    std::vector<std::vector<double>> senders;
    for (std::uint64_t s = 0; s < 10; ++s)
      senders.push_back(no_nan(s % 2 ? weight_data(n, 13 * n + s)
                                     : ugly_data(n, 14 * n + s)));
    for (const std::size_t k : {0, 1, 2, 3, 5}) {
      std::vector<const double*> sx, sw;
      for (std::size_t s = 0; s < k; ++s) {
        sx.push_back(senders[2 * s].data());
        sw.push_back(senders[2 * s + 1].data());
      }
      for (const double keep : {0.5, 1.0}) {
        for (const double h : {0.0, 0.5, 1.0}) {
          std::vector<double> ref_x(n), ref_w(n);
          scalar.scale_assign(ref_x.data(), x.data(), keep, n);
          scalar.scale_assign(ref_w.data(), w.data(), keep, n);
          for (std::size_t s = 0; s < k; ++s) {
            scalar.accumulate_scaled(ref_x.data(), sx[s], 0.5, n);
            scalar.accumulate_scaled(ref_w.data(), sw[s], 0.5, n);
          }
          const std::uint64_t ref_count =
              h != 0.0 ? expected_payload(x, w, h) : 0;
          for (const Kernels* kn : {&scalar, &vec}) {
            std::vector<double> nx(n, -0.0), nw(n, -0.0);
            const std::uint64_t count =
                kn->gather_row(nx.data(), nw.data(), x.data(), w.data(), keep,
                               sx.data(), sw.data(), k, h, n);
            EXPECT_BITEQ_VEC(nx, ref_x);
            EXPECT_BITEQ_VEC(nw, ref_w);
            EXPECT_EQ(count, ref_count)
                << level_name(kn->level) << " n=" << n << " k=" << k
                << " keep=" << keep << " h=" << h;
          }
        }
      }
    }
  }
}

TEST_P(SimdKernelSweep, UnalignedHeadsMatchScalar) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  aligned_vector<double> buf1(64), buf2(64);
  for (std::size_t i = 0; i < buf1.size(); ++i) buf1[i] = buf2[i] = 0.25 * i;
  // Offset 1..7 doubles from the 64-byte line: kernels must not assume
  // alignment of their operands.
  for (std::size_t off = 1; off < 8; ++off) {
    const std::size_t n = buf1.size() - off;
    scalar.halve(buf1.data() + off, n);
    vec.halve(buf2.data() + off, n);
    ASSERT_EQ(std::memcmp(buf1.data(), buf2.data(),
                          buf1.size() * sizeof(double)), 0)
        << "offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedLevels, SimdKernelSweep,
    ::testing::ValuesIn([] {
      auto levels = supported_vector_levels();
      // Degenerate but valid on scalar-only hosts: scalar vs scalar.
      if (levels.empty()) levels.push_back(SimdLevel::kScalar);
      return levels;
    }()),
    [](const ::testing::TestParamInfo<SimdLevel>& param) {
      return std::string(level_name(param.param));
    });

}  // namespace
}  // namespace gt::simd
