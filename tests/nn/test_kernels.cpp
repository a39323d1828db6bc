// Bit-identity pins of the SIMD chain kernels (src/nn/kernels.*): every
// vectorized routine must produce byte-identical output to the scalar
// fallback — the executor's original loops, and the activations' scalar
// twins — on every size, including the non-multiple-of-8 tails, special
// values (negative zero, infinities, NaN, subnormals), the matmul zero-skip
// and its row-blocked narrow path. The suite compares the two dispatch
// paths directly via the DEEPSEQ_NN_SIMD gate; on hosts without AVX2 both
// paths are scalar and the pins hold trivially. sigmoid and tanh are also
// held to an accuracy bound against a double-precision reference, since no
// libm result is their reference any more.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/kernels.hpp"

namespace deepseq::nn::kernels {
namespace {

/// Restore the ambient DEEPSEQ_NN_SIMD (and the process-global gate) on
/// test exit, so this binary composes with the CI matrix's simd legs.
struct SimdGuard {
  SimdGuard()
      : had(std::getenv("DEEPSEQ_NN_SIMD") != nullptr),
        value(had ? std::getenv("DEEPSEQ_NN_SIMD") : "") {}
  ~SimdGuard() {
    if (had) {
      ::setenv("DEEPSEQ_NN_SIMD", value.c_str(), 1);
    } else {
      ::unsetenv("DEEPSEQ_NN_SIMD");
    }
    refresh_from_env();
  }
  bool had;
  std::string value;
};

void set_simd(bool on) {
  ::setenv("DEEPSEQ_NN_SIMD", on ? "1" : "0", 1);
  refresh_from_env();
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Deterministic "awkward" values: mixed signs and magnitudes whose sums
/// and products are rounding-sensitive, so any reassociation or FMA
/// contraction in the vector path would flip low bits.
std::vector<float> pattern(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    const float mag = static_cast<float>(s >> 8) / 16777216.0f;  // [0, 1)
    const float scaled = (mag - 0.5f) * ((i % 7 == 0) ? 1e-6f : 3.7e3f);
    v[i] = (i % 11 == 3) ? -0.0f : scaled;
  }
  return v;
}

// The tail sizes that matter: below one lane, exactly one lane, lane +- 1,
// a j-block (32) +- 1, and a couple of larger odd sizes.
const std::size_t kSizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67};

template <typename Run>
void expect_simd_scalar_identical(const char* what, Run run) {
  SimdGuard guard;
  for (std::size_t n : kSizes) {
    set_simd(true);
    const std::vector<float> vec = run(n);
    set_simd(false);
    ASSERT_FALSE(simd_active());
    const std::vector<float> scl = run(n);
    EXPECT_TRUE(bytes_equal(vec, scl)) << what << " diverges at n=" << n;
  }
}

TEST(Kernels, EnvGateForcesScalar) {
  SimdGuard guard;
  set_simd(false);
  EXPECT_FALSE(simd_active());
  EXPECT_EQ(lanes(), 1);
  set_simd(true);
  // With the gate open, lanes is 8 exactly when the host has AVX2.
  EXPECT_EQ(lanes(), simd_active() ? 8 : 1);
}

TEST(Kernels, ElementwiseParity) {
  expect_simd_scalar_identical("add", [](std::size_t n) {
    const auto x = pattern(n, 1), y = pattern(n, 2);
    std::vector<float> o(n);
    add(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("sub", [](std::size_t n) {
    const auto x = pattern(n, 3), y = pattern(n, 4);
    std::vector<float> o(n);
    sub(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("mul", [](std::size_t n) {
    const auto x = pattern(n, 5), y = pattern(n, 6);
    std::vector<float> o(n);
    mul(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("scale", [](std::size_t n) {
    const auto x = pattern(n, 7);
    std::vector<float> o(n);
    scale(o.data(), x.data(), 1.0f / 3.0f, n);
    return o;
  });
  expect_simd_scalar_identical("one_minus", [](std::size_t n) {
    const auto x = pattern(n, 8);
    std::vector<float> o(n);
    one_minus(o.data(), x.data(), n);
    return o;
  });
}

TEST(Kernels, ReluParityIncludingSpecials) {
  expect_simd_scalar_identical("relu", [](std::size_t n) {
    auto x = pattern(n, 9);
    // The scalar rule is x > 0 ? x : 0 — pin its NaN / -0.0 / inf behavior.
    if (n > 0) x[0] = std::numeric_limits<float>::quiet_NaN();
    if (n > 1) x[1] = -0.0f;
    if (n > 2) x[2] = std::numeric_limits<float>::infinity();
    if (n > 3) x[3] = -std::numeric_limits<float>::infinity();
    std::vector<float> o(n);
    relu(o.data(), x.data(), n);
    return o;
  });
}

TEST(Kernels, BackwardAccumulationParity) {
  expect_simd_scalar_identical("acc_add", [](std::size_t n) {
    auto dst = pattern(n, 10);
    const auto grd = pattern(n, 11);
    acc_add(dst.data(), grd.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_sub", [](std::size_t n) {
    auto dst = pattern(n, 12);
    const auto grd = pattern(n, 13);
    acc_sub(dst.data(), grd.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_mul", [](std::size_t n) {
    auto dst = pattern(n, 14);
    const auto grd = pattern(n, 15), other = pattern(n, 16);
    acc_mul(dst.data(), grd.data(), other.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_scale", [](std::size_t n) {
    auto dst = pattern(n, 17);
    const auto grd = pattern(n, 18);
    acc_scale(dst.data(), grd.data(), -0.7331f, n);
    return dst;
  });
}

// ---- activations -------------------------------------------------------------

const float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Inputs the activations must handle exactly alike on both paths: NaN,
/// infinities, signed zeros, subnormals, the edges of exp's clamp range,
/// huge magnitudes, and both sides of tanh's polynomial/exp branch point.
const float kActivationSpecials[] = {
    kNaN, -kNaN, kInf, -kInf, 0.0f, -0.0f,
    std::numeric_limits<float>::denorm_min(), -std::numeric_limits<float>::denorm_min(),
    1e-40f, -1e-40f, std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
    87.0f, -87.0f, 89.0f, -89.0f, 88.5f, -88.5f, 1e30f, -1e30f,
    std::nextafter(0.625f, 0.0f), 0.625f, std::nextafter(0.625f, 1.0f),
    -std::nextafter(0.625f, 0.0f), -0.625f, -std::nextafter(0.625f, 1.0f),
    1e-4f, -1e-4f, 9.0f, -9.0f, 20.0f, -20.0f};
constexpr std::size_t kNumSpecials = std::size(kActivationSpecials);

/// Every other entry is a special (rotated by `rot`, so each one lands in
/// both the vector body and the scalar tail across the sizes); the rest
/// are spread over (-24, 24) where both activations vary.
std::vector<float> activation_inputs(std::size_t n, std::size_t rot) {
  std::vector<float> x = pattern(n, static_cast<std::uint32_t>(40 + rot));
  for (std::size_t i = 0; i < n; ++i)
    x[i] = (i % 2 == 0) ? kActivationSpecials[(i / 2 + rot) % kNumSpecials]
                        : x[i] / 3.7e3f * 48.0f;
  return x;
}

TEST(Kernels, ActivationParityIncludingSpecials) {
  for (std::size_t rot = 0; rot < kNumSpecials; ++rot) {
    expect_simd_scalar_identical("sigmoid", [rot](std::size_t n) {
      const auto x = activation_inputs(n, rot);
      std::vector<float> o(n);
      sigmoid(o.data(), x.data(), n);
      return o;
    });
    expect_simd_scalar_identical("tanh", [rot](std::size_t n) {
      const auto x = activation_inputs(n, rot);
      std::vector<float> o(n);
      tanh_(o.data(), x.data(), n);
      return o;
    });
  }
}

/// Runs `f` (sigmoid or tanh_) over 9 copies of v — 8 in the vector body,
/// one in the tail — on both paths, and checks every copy with `ok`.
template <typename Kernel, typename Check>
void expect_exact(Kernel f, float v, Check ok, const char* what) {
  SimdGuard guard;
  for (const bool simd : {true, false}) {
    set_simd(simd);
    const std::vector<float> x(9, v);
    std::vector<float> o(9);
    f(o.data(), x.data(), x.size());
    for (std::size_t i = 0; i < o.size(); ++i)
      EXPECT_TRUE(ok(o[i])) << what << " at lane " << i << " simd=" << simd << " got " << o[i];
  }
}

TEST(Kernels, ActivationExactValues) {
  const auto bits_are = [](float want) {
    return [want](float got) {
      return std::bit_cast<std::uint32_t>(got) == std::bit_cast<std::uint32_t>(want);
    };
  };
  expect_exact(sigmoid, 0.0f, bits_are(0.5f), "sigmoid(0)");
  expect_exact(sigmoid, -0.0f, bits_are(0.5f), "sigmoid(-0)");
  expect_exact(sigmoid, kInf, bits_are(1.0f), "sigmoid(+inf)");
  expect_exact(sigmoid, -kInf, bits_are(0.0f), "sigmoid(-inf)");
  expect_exact(tanh_, 0.0f, bits_are(0.0f), "tanh(+0)");
  expect_exact(tanh_, -0.0f, bits_are(-0.0f), "tanh(-0)");
  expect_exact(tanh_, kInf, bits_are(1.0f), "tanh(+inf)");
  expect_exact(tanh_, -kInf, bits_are(-1.0f), "tanh(-inf)");
  // Tiny inputs: tanh(x) = x, sigmoid(x) = 1/2 to float precision.
  const float sub = std::numeric_limits<float>::denorm_min();
  expect_exact(tanh_, sub, bits_are(sub), "tanh(denorm_min)");
  expect_exact(tanh_, -1e-30f, bits_are(-1e-30f), "tanh(-1e-30)");
  expect_exact(sigmoid, sub, bits_are(0.5f), "sigmoid(denorm_min)");
  // NaN propagates through exp's clamps instead of being clamped away.
  const auto is_nan = [](float got) { return std::isnan(got); };
  for (const float nan : {kNaN, -kNaN}) {
    expect_exact(sigmoid, nan, is_nan, "sigmoid(NaN)");
    expect_exact(tanh_, nan, is_nan, "tanh(NaN)");
  }
}

/// Error of `got` against the double `ref`, in units of the float spacing
/// at |ref| (its ulp).
double ulp_error(float got, double ref) {
  int e = 0;
  std::frexp(ref, &e);  // |ref| in [2^(e-1), 2^e): float spacing 2^(e-24)
  return std::fabs(static_cast<double>(got) - ref) / std::ldexp(1.0, e - 24);
}

/// A dense sample of floats in (-100, 100): every `stride`-th bit pattern
/// from +0 up to 100, with both signs.
std::vector<float> dense_sample(std::uint32_t stride) {
  std::vector<float> x;
  const std::uint32_t top = std::bit_cast<std::uint32_t>(100.0f);
  for (std::uint32_t b = 0; b < top; b += stride) {
    x.push_back(std::bit_cast<float>(b));
    x.push_back(-std::bit_cast<float>(b));
  }
  return x;
}

TEST(Kernels, ActivationAccuracyWithinThreeUlp) {
  SimdGuard guard;
  const std::vector<float> x = dense_sample(997);
  const double min_normal = std::numeric_limits<float>::min();
  for (const bool simd : {true, false}) {
    set_simd(simd);
    std::vector<float> s(x.size()), t(x.size());
    sigmoid(s.data(), x.data(), x.size());
    tanh_(t.data(), x.data(), x.size());
    double worst_s = 0.0, worst_t = 0.0;
    float at_s = 0.0f, at_t = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double xd = x[i];
      const double ref_s = 1.0 / (1.0 + std::exp(-xd));
      const double ref_t = std::tanh(xd);
      // Normal outputs only: below FLT_MIN the float spacing is fixed, and
      // a flush toward zero there is not a relative error.
      if (ref_s >= min_normal && ulp_error(s[i], ref_s) > worst_s) {
        worst_s = ulp_error(s[i], ref_s);
        at_s = x[i];
      }
      if (std::fabs(ref_t) >= min_normal && ulp_error(t[i], ref_t) > worst_t) {
        worst_t = ulp_error(t[i], ref_t);
        at_t = x[i];
      }
    }
    EXPECT_LE(worst_s, 3.0) << "sigmoid worst at x=" << at_s << " simd=" << simd;
    EXPECT_LE(worst_t, 3.0) << "tanh worst at x=" << at_t << " simd=" << simd;
  }
}

TEST(Kernels, TanhIsBitwiseOdd) {
  SimdGuard guard;
  const std::vector<float> x = dense_sample(7919);
  std::vector<float> neg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  for (const bool simd : {true, false}) {
    set_simd(simd);
    std::vector<float> tx(x.size()), tn(x.size());
    tanh_(tx.data(), x.data(), x.size());
    tanh_(tn.data(), neg.data(), neg.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(tn[i]),
                std::bit_cast<std::uint32_t>(tx[i]) ^ 0x80000000u)
          << "tanh(-x) != -tanh(x) at x=" << x[i] << " simd=" << simd;
    }
  }
}

// ---- matmul --------------------------------------------------------------------

/// One matmul_rows call over a padded layout: a has row stride lda >= k
/// (the padding holds NaN, which must never be read), out has row stride
/// ldo >= n and starts as `fill` everywhere, and only rows [rb, re) run.
struct MatmulCase {
  int m, k, n, lda, ldo, rb, re;
  float fill;
};

/// a (m x k, stride lda) with exact zeros of both signs sprinkled in, a
/// whole zero column `dead`, a whole zero row, and one NaN in the last row
/// (NaN is not zero: it is accumulated); b (k x n) holds +/-inf in row
/// `dead`, and inf in row 0, where every row of a but row 1 is zero. The
/// scalar kernel never touches b at a skipped (i, p), so the only inf
/// outputs are row 1's; the vector paths must not let 0 * inf = NaN in.
void matmul_operands(const MatmulCase& c, std::vector<float>& a, std::vector<float>& b) {
  const auto av = pattern(static_cast<std::size_t>(c.m) * c.k, 20);
  a.assign(static_cast<std::size_t>(c.m) * c.lda, kNaN);
  const int dead = c.k / 2;
  for (int i = 0; i < c.m; ++i) {
    for (int p = 0; p < c.k; ++p) {
      float v = av[static_cast<std::size_t>(i) * c.k + p];
      if (p == dead || i == c.m / 2 || (i + 2 * p) % 3 == 0) v = 0.0f;
      if ((i + p) % 5 == 0) v = -0.0f;
      if (p == 0 && c.k > 1) v = (i == 1) ? 0.5f : 0.0f;
      a[static_cast<std::size_t>(i) * c.lda + p] = v;
    }
  }
  if (c.m > 2) a[static_cast<std::size_t>(c.m - 1) * c.lda + c.k - 1] = kNaN;
  b = pattern(static_cast<std::size_t>(c.k) * c.n, 21);
  for (int j = 0; j < c.n; ++j) {
    b[static_cast<std::size_t>(dead) * c.n + j] = (j % 2) ? -kInf : kInf;
    if (c.k > 1) b[static_cast<std::size_t>(j)] = kInf;
  }
}

TEST(Kernels, MatmulParityWithZeroSkip) {
  SimdGuard guard;
  std::vector<MatmulCase> cases;
  // Shapes straddling the 32-wide j-block, the 8-wide lane and the scalar
  // tail, with k values that exercise the ascending-p accumulation.
  struct Shape { int m, k, n; };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{2, 3, 5}, Shape{4, 8, 32}, Shape{3, 7, 33},
                         Shape{5, 16, 40}, Shape{2, 5, 67}, Shape{6, 12, 31}, Shape{4, 9, 9}})
    cases.push_back({s.m, s.k, s.n, s.k, s.n, 0, s.m, 0.0f});
  // Narrow products (n < 8) vectorize across 8-row blocks: row counts
  // below, at and across a block, by every narrow width.
  for (const int m : {8, 9, 17, 33})
    for (const int n : {1, 2, 3, 7}) cases.push_back({m, 13, n, 13, n, 0, m, 0.0f});
  // Unaligned row ranges, padded strides, and -0 prefilled outputs (an
  // all-skipped element keeps the -0; adding 0 * b would make it +0).
  cases.push_back({24, 11, 1, 11, 1, 3, 20, 0.0f});
  cases.push_back({24, 11, 3, 16, 3, 3, 20, -0.0f});
  cases.push_back({21, 9, 2, 14, 5, 0, 21, -0.0f});
  cases.push_back({17, 32, 7, 40, 7, 1, 17, -0.0f});
  cases.push_back({9, 5, 8, 7, 9, 0, 9, -0.0f});
  for (const MatmulCase& c : cases) {
    std::vector<float> a, b;
    matmul_operands(c, a, b);
    auto run = [&](bool simd) {
      set_simd(simd);
      std::vector<float> out(static_cast<std::size_t>(c.m) * c.ldo, c.fill);
      matmul_rows(a.data(), c.lda, b.data(), c.n, out.data(), c.ldo, c.rb, c.re, c.k, c.n);
      return out;
    };
    const auto vec = run(true), scl = run(false);
    EXPECT_TRUE(bytes_equal(vec, scl))
        << "matmul diverges at m=" << c.m << " k=" << c.k << " n=" << c.n << " lda=" << c.lda
        << " ldo=" << c.ldo << " rows " << c.rb << ".." << c.re;
    // Only the last row, whose a holds a NaN, may be NaN.
    for (std::size_t i = 0; i + 1 < static_cast<std::size_t>(c.m); ++i)
      for (int j = 0; j < c.n; ++j)
        EXPECT_FALSE(std::isnan(scl[i * c.ldo + j])) << "a skipped 0 * inf reached m=" << c.m;
  }
}

TEST(Kernels, MatmulRowRangeMatchesWhole) {
  SimdGuard guard;
  set_simd(true);
  const int m = 6, k = 10, n = 35;
  const auto a = pattern(static_cast<std::size_t>(m) * k, 30);
  const auto b = pattern(static_cast<std::size_t>(k) * n, 31);
  std::vector<float> whole(static_cast<std::size_t>(m) * n, 0.0f);
  matmul_rows(a.data(), k, b.data(), n, whole.data(), n, 0, m, k, n);
  // Row-split execution (the planner's aligned-chain slices) must compose
  // to the same bytes.
  std::vector<float> split(static_cast<std::size_t>(m) * n, 0.0f);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 0, 2, k, n);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 2, 5, k, n);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 5, m, k, n);
  EXPECT_TRUE(bytes_equal(whole, split));
}

}  // namespace
}  // namespace deepseq::nn::kernels
