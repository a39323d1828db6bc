#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "common/env.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace deepseq::nn::kernels {

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// Process-global gate, refreshed from the env once per flush by the
// executor. Both paths are bit-identical, so a racing refresh mid-flush
// could at worst mix paths across kernels — results are unchanged either
// way; relaxed ordering is sufficient.
std::atomic<bool> g_simd_enabled{true};

// ---- exp-based activations: constants shared by both bodies ----------------
//
// e^x is evaluated the same way, op for op, by the scalar twin and the AVX2
// body:
//   1. clamp x to [kExpLo, kExpHi] as min(hi, x) then max(lo, x) — minps/maxps
//      return their second operand when either is NaN, so NaN passes through;
//   2. n = round(x * log2 e) by adding and subtracting 1.5 * 2^23 (round to
//      nearest even, no nearbyint); the integer n is read from the low bits of
//      the biased sum;
//   3. Cody–Waite reduction r = x - n * ln2_hi - n * ln2_lo;
//   4. e^r = 1 + r + r^2 * P(r), Cephes' expf polynomial in Horner form with
//      separate multiply and add (never FMA);
//   5. scale by 2^n built in the exponent bits.
// n stays within [-126, 128]; at n = 128 (x >= 127.5 * ln 2) the scale is
// +inf, so e^x overflows a little before FLT_MAX. sigmoid and tanh only see
// exact 0 / 1 or subnormal outputs there.
constexpr float kExpLo = -87.3365479f;  // ~ln(FLT_MIN)
constexpr float kExpHi = 88.7228394f;   // ~ln(FLT_MAX)
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
constexpr float kLn2Hi = 0.693359375f;      // 355/512: n * kLn2Hi is exact
constexpr float kLn2Lo = -2.12194440e-4f;   // ln 2 - kLn2Hi
constexpr float kExpP[] = {1.9875691500e-4f, 1.3981999507e-3f, 8.3334519073e-3f,
                           4.1665795894e-2f, 1.6666665459e-1f, 5.0000001201e-1f};

// tanh: odd polynomial below |x| < kTanhSplit (Cephes' tanhf), else
// 1 - 2 / (e^{2|x|} + 1); both on |x|, with x's sign bit OR-ed back in, so
// tanh(-x) is the bitwise negation of tanh(x) and tanh(-0) = -0.
constexpr float kTanhSplit = 0.625f;
constexpr float kTanhP[] = {-5.70498872745e-3f, 2.06390887954e-2f, -5.37397155531e-2f,
                            1.33314422036e-1f, -3.33332819422e-1f};
constexpr std::uint32_t kSignBit = 0x80000000u;

float exp1(float x) {
  x = kExpHi < x ? kExpHi : x;
  x = kExpLo > x ? kExpLo : x;
  float t = x * kLog2e;
  t = t + kRoundMagic;
  const float n = t - kRoundMagic;
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpP[0];
  for (std::size_t i = 1; i < std::size(kExpP); ++i) {
    p = p * r;
    p = p + kExpP[i];
  }
  float y = p * (r * r);
  y = y + r;
  y = y + 1.0f;
  const std::uint32_t scale =
      (std::bit_cast<std::uint32_t>(t) - std::bit_cast<std::uint32_t>(kRoundMagic) + 127u) << 23;
  return y * std::bit_cast<float>(scale);
}

float sigmoid1(float x) { return 1.0f / (1.0f + exp1(-x)); }

float tanh1(float x) {
  const std::uint32_t sign = std::bit_cast<std::uint32_t>(x) & kSignBit;
  const float a = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) ^ sign);
  float res;
  if (a < kTanhSplit) {
    const float z = a * a;
    float p = kTanhP[0];
    for (std::size_t i = 1; i < std::size(kTanhP); ++i) {
      p = p * z;
      p = p + kTanhP[i];
    }
    res = (p * z) * a;
    res = res + a;
  } else {
    const float e = exp1(a + a);
    res = 1.0f - 2.0f / (e + 1.0f);
  }
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(res) | sign);
}

#if defined(__x86_64__)

// AVX2 bodies. target("avx2") deliberately excludes "fma": the scalar
// baseline is built without -mfma, so every multiply-add must stay a
// separate vmulps + vaddps to round identically.

__attribute__((target("avx2"))) void add_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] + y[i];
}

__attribute__((target("avx2"))) void sub_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] - y[i];
}

__attribute__((target("avx2"))) void mul_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] * y[i];
}

__attribute__((target("avx2"))) void scale_avx2(float* o, const float* x, float s,
                                                std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) o[i] = x[i] * s;
}

// max_ps(x, 0) matches the scalar `x > 0 ? x : 0`: for NaN inputs maxps
// returns the second operand (0.0f), same as the comparison being false,
// and -0.0f > 0 is false so both yield +0.0f.
__attribute__((target("avx2"))) void relu_avx2(float* o, const float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target("avx2"))) void one_minus_avx2(float* o, const float* x, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(one, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) o[i] = 1.0f - x[i];
}

__attribute__((target("avx2"))) void acc_add_avx2(float* dst, const float* g, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) dst[i] += g[i];
}

__attribute__((target("avx2"))) void acc_sub_avx2(float* dst, const float* g, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) dst[i] -= g[i];
}

__attribute__((target("avx2"))) void acc_mul_avx2(float* dst, const float* g, const float* o,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(o + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += g[i] * o[i];
}

__attribute__((target("avx2"))) void acc_scale_avx2(float* dst, const float* g, float s,
                                                    std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(g + i), vs);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += g[i] * s;
}

__attribute__((target("avx2"))) inline __m256 exp_avx2(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
  const __m256 magic = _mm256_set1_ps(kRoundMagic);
  const __m256 t = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), magic);
  const __m256 n = _mm256_sub_ps(t, magic);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpP[0]);
  for (std::size_t i = 1; i < std::size(kExpP); ++i)
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP[i]));
  __m256 y = _mm256_mul_ps(p, _mm256_mul_ps(r, r));
  y = _mm256_add_ps(y, r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i scale = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_sub_epi32(_mm256_castps_si256(t), _mm256_castps_si256(magic)),
                       _mm256_set1_epi32(127)),
      23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(scale));
}

__attribute__((target("avx2"))) void sigmoid_avx2(float* o, const float* x, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp_avx2(_mm256_xor_ps(_mm256_loadu_ps(x + i), sign));
    _mm256_storeu_ps(o + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) o[i] = sigmoid1(x[i]);
}

__attribute__((target("avx2"))) void tanh__avx2(float* o, const float* x, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 split = _mm256_set1_ps(kTanhSplit);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 sign = _mm256_and_ps(v, sign_bit);
    const __m256 a = _mm256_andnot_ps(sign_bit, v);
    const __m256 z = _mm256_mul_ps(a, a);
    __m256 p = _mm256_set1_ps(kTanhP[0]);
    for (std::size_t c = 1; c < std::size(kTanhP); ++c)
      p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(kTanhP[c]));
    const __m256 small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, z), a), a);
    const __m256 e = exp_avx2(_mm256_add_ps(a, a));
    const __m256 large = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
    const __m256 res = _mm256_blendv_ps(large, small, _mm256_cmp_ps(a, split, _CMP_LT_OQ));
    _mm256_storeu_ps(o + i, _mm256_or_ps(res, sign));
  }
  for (; i < n; ++i) o[i] = tanh1(x[i]);
}

// Narrow outputs (n < 8 columns: attention scores h·w, the heads' last
// layers) vectorize across rows instead: each lane is one output row of an
// 8-row block, and each of the N columns keeps one accumulator. Per element
// the accumulation is the scalar loop's, in ascending p; a lane whose
// a[i][p] == 0 keeps its accumulator through a blend — the exact zero-skip,
// so an inf or NaN in a skipped row of b never reaches it.
template <int N>
__attribute__((target("avx2"))) void matmul_narrow8_avx2(const float* a, int lda, const float* b,
                                                         int ldb, float* out, int ldo, int k) {
  const float* ar[8];
  float* orow[8];
  for (int l = 0; l < 8; ++l) {
    ar[l] = a + static_cast<std::size_t>(l) * lda;
    orow[l] = out + static_cast<std::size_t>(l) * ldo;
  }
  __m256 acc[N];
  for (int j = 0; j < N; ++j)
    acc[j] = _mm256_setr_ps(orow[0][j], orow[1][j], orow[2][j], orow[3][j], orow[4][j],
                            orow[5][j], orow[6][j], orow[7][j]);
  const __m256 zero = _mm256_setzero_ps();
  for (int p = 0; p < k; ++p) {
    const __m256 va = _mm256_setr_ps(ar[0][p], ar[1][p], ar[2][p], ar[3][p], ar[4][p], ar[5][p],
                                     ar[6][p], ar[7][p]);
    // NEQ_UQ: a NaN in a is not zero, exactly as the scalar `av == 0` test.
    const __m256 live = _mm256_cmp_ps(va, zero, _CMP_NEQ_UQ);
    const float* brow = b + static_cast<std::size_t>(p) * ldb;
    for (int j = 0; j < N; ++j) {
      const __m256 sum = _mm256_add_ps(acc[j], _mm256_mul_ps(va, _mm256_set1_ps(brow[j])));
      acc[j] = _mm256_blendv_ps(acc[j], sum, live);
    }
  }
  for (int j = 0; j < N; ++j) {
    alignas(32) float lane[8];
    _mm256_store_ps(lane, acc[j]);
    for (int l = 0; l < 8; ++l) orow[l][j] = lane[l];
  }
}

using NarrowKernel = void (*)(const float*, int, const float*, int, float*, int, int);
constexpr NarrowKernel kNarrow8[8] = {nullptr,
                                      matmul_narrow8_avx2<1>,
                                      matmul_narrow8_avx2<2>,
                                      matmul_narrow8_avx2<3>,
                                      matmul_narrow8_avx2<4>,
                                      matmul_narrow8_avx2<5>,
                                      matmul_narrow8_avx2<6>,
                                      matmul_narrow8_avx2<7>};

// Register-blocked row microkernel: 4 ymm accumulators cover a 32-float
// output block per row. Each out[i][j] is accumulated over ascending p with
// the same zero-skip as the scalar loop, so per-element op order is
// identical regardless of the j-blocking.
__attribute__((target("avx2"))) void matmul_rows_avx2(const float* a, int lda, const float* b,
                                                      int ldb, float* out, int ldo, int rb,
                                                      int re, int k, int n) {
  int i = rb;
  if (n > 0 && n < 8) {
    for (; i + 8 <= re; i += 8)
      kNarrow8[n](a + static_cast<std::size_t>(i) * lda, lda, b, ldb,
                  out + static_cast<std::size_t>(i) * ldo, ldo, k);
  }
  // The row loop: n >= 8, and the tail rows of a narrow product.
  for (; i < re; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    int j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(orow + j);
      __m256 acc1 = _mm256_loadu_ps(orow + j + 8);
      __m256 acc2 = _mm256_loadu_ps(orow + j + 16);
      __m256 acc3 = _mm256_loadu_ps(orow + j + 24);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
      _mm256_storeu_ps(orow + j + 16, acc2);
      _mm256_storeu_ps(orow + j + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(orow + j);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(va, _mm256_loadu_ps(b + static_cast<std::size_t>(p) * ldb + j)));
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = orow[j];
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        acc += av * b[static_cast<std::size_t>(p) * ldb + j];
      }
      orow[j] = acc;
    }
  }
}

#endif  // defined(__x86_64__)

// Scalar fallbacks — byte-for-byte the executor's original loops, plus the
// activations' scalar twins.

void add_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
}
void sub_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] - y[i];
}
void mul_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
}
void scale_scalar(float* o, const float* x, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * s;
}
void relu_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void one_minus_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = 1.0f - x[i];
}
void acc_add_scalar(float* dst, const float* g, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i];
}
void acc_sub_scalar(float* dst, const float* g, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= g[i];
}
void acc_mul_scalar(float* dst, const float* g, const float* o, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * o[i];
}
void acc_scale_scalar(float* dst, const float* g, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * s;
}
void sigmoid_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = sigmoid1(x[i]);
}
void tanh__scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = tanh1(x[i]);
}
void matmul_rows_scalar(const float* a, int lda, const float* b, int ldb, float* out, int ldo,
                        int rb, int re, int k, int n) {
  for (int i = rb; i < re; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * ldb;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace

bool nn_simd_from_env() { return env_int("DEEPSEQ_NN_SIMD", 1) != 0; }

void refresh_from_env() { g_simd_enabled.store(nn_simd_from_env(), std::memory_order_relaxed); }

bool simd_active() { return cpu_has_avx2() && g_simd_enabled.load(std::memory_order_relaxed); }

int lanes() { return simd_active() ? 8 : 1; }

#if defined(__x86_64__)
#define DEEPSEQ_DISPATCH(fn, ...)             \
  do {                                        \
    if (simd_active()) {                      \
      fn##_avx2(__VA_ARGS__);                 \
    } else {                                  \
      fn##_scalar(__VA_ARGS__);               \
    }                                         \
  } while (0)
#else
#define DEEPSEQ_DISPATCH(fn, ...) fn##_scalar(__VA_ARGS__)
#endif

void add(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(add, o, x, y, n);
}
void sub(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(sub, o, x, y, n);
}
void mul(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(mul, o, x, y, n);
}
void scale(float* o, const float* x, float s, std::size_t n) {
  DEEPSEQ_DISPATCH(scale, o, x, s, n);
}
void sigmoid(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(sigmoid, o, x, n); }
void tanh_(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(tanh_, o, x, n); }
void relu(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(relu, o, x, n); }
void one_minus(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(one_minus, o, x, n); }
void acc_add(float* dst, const float* g, std::size_t n) { DEEPSEQ_DISPATCH(acc_add, dst, g, n); }
void acc_sub(float* dst, const float* g, std::size_t n) { DEEPSEQ_DISPATCH(acc_sub, dst, g, n); }
void acc_mul(float* dst, const float* g, const float* o, std::size_t n) {
  DEEPSEQ_DISPATCH(acc_mul, dst, g, o, n);
}
void acc_scale(float* dst, const float* g, float s, std::size_t n) {
  DEEPSEQ_DISPATCH(acc_scale, dst, g, s, n);
}
void matmul_rows(const float* a, int lda, const float* b, int ldb, float* out, int ldo, int rb,
                 int re, int k, int n) {
  DEEPSEQ_DISPATCH(matmul_rows, a, lda, b, ldb, out, ldo, rb, re, k, n);
}

#undef DEEPSEQ_DISPATCH

void matmul(const float* a, const float* b, float* out, int rows, int k, int n) {
  std::fill(out, out + static_cast<std::size_t>(rows) * n, 0.0f);
  matmul_rows(a, k, b, n, out, n, 0, rows, k, n);
}


void add_row(float* o, const float* a, const float* row, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * cols;
    add(o + off, a + off, row, static_cast<std::size_t>(cols));
  }
}

void mul_col(float* o, const float* v, const float* col, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * cols;
    scale(o + off, v + off, col[r], static_cast<std::size_t>(cols));
  }
}

void segment_sum(float* out, const float* v, const int* segment, int rows,
                 int cols, int cb, int ce) {
  for (int r = 0; r < rows; ++r) {
    float* dst = out + static_cast<std::size_t>(segment[r]) * cols;
    const float* src = v + static_cast<std::size_t>(r) * cols;
    for (int c = cb; c < ce; ++c) dst[c] += src[c];
  }
}

void segment_softmax(float* out, const float* scores, const int* segment,
                     int count, int num_segments, float* seg_max,
                     double* seg_sum) {
  std::fill(seg_max, seg_max + num_segments, -1e30f);
  std::fill(seg_sum, seg_sum + num_segments, 0.0);
  for (int e = 0; e < count; ++e)
    seg_max[segment[e]] = std::max(seg_max[segment[e]], scores[e]);
  for (int e = 0; e < count; ++e) {
    const float x = std::exp(scores[e] - seg_max[segment[e]]);
    out[e] = x;
    seg_sum[segment[e]] += x;
  }
  for (int e = 0; e < count; ++e)
    out[e] = static_cast<float>(out[e] / seg_sum[segment[e]]);
}

}  // namespace deepseq::nn::kernels
