#pragma once

#include <cstddef>

namespace deepseq::nn::kernels {

/// Vectorized chain-step primitives with a bit-identical scalar fallback.
///
/// Every routine here computes exactly the same per-element operation
/// sequence on both paths: elementwise kernels apply one IEEE op per
/// element, and the matmul microkernel accumulates each output element over
/// the inner dimension in ascending order with the same zero-skip, using
/// separate multiply and add (never FMA — the library is built with
/// -ffp-contract=off, so a fused multiply-add would change rounding). Narrow
/// products (fewer than 8 output columns) vectorize across blocks of 8
/// output rows instead of columns, with the zero-skip kept per lane.
///
/// sigmoid and tanh are this library's own exp-based functions, not libm:
/// Cody–Waite range reduction, magic-number rounding, a Horner polynomial
/// and an exponent-bit scale, written once as an AVX2 body and once as a
/// scalar twin with the same float operations in the same order. Against a
/// double-precision reference they are within 3 ulp on normal outputs (tanh
/// within 1.3); NaN propagates, sigmoid(0) = 0.5, sigmoid(±inf) = 1 / 0,
/// tanh(±0) = ±0, tanh(±inf) = ±1 and tanh is bitwise odd. The softmax
/// family keeps libm exp (edge-sized, off the hot path).
///
/// The AVX2 paths therefore produce byte-identical results to the scalar
/// paths, which tests/nn/test_kernels.cpp pins per kernel, with the
/// activations' accuracy bound beside it.
///
/// Dispatch is runtime: the AVX2 path runs only when the host supports it
/// AND DEEPSEQ_NN_SIMD (env_int, default 1) is nonzero. The executor
/// refreshes the env gate once per flush (refresh_from_env), and the direct
/// no-grad propagation once per call, so a process can A/B simd on/off
/// between runs exactly like DEEPSEQ_NN_FUSE. The executor and the direct
/// propagation both compute every forward op through these routines, which
/// keeps the two paths bit-identical.

/// DEEPSEQ_NN_SIMD knob (env_int): 0 forces the scalar fallback;
/// unset or any other value enables the vector path where supported.
bool nn_simd_from_env();

/// Re-read DEEPSEQ_NN_SIMD into the process-global gate. Called by the
/// executor at each flush; cheap (one env read, one relaxed store).
void refresh_from_env();

/// True when the vector path is live: host supports AVX2 and the gate is
/// open. Purely informational for callers — every kernel dispatches
/// internally.
bool simd_active();

/// SIMD lane width the dispatcher will use: 8 when simd_active(), else 1.
/// Surfaced through ExecStats so benches and traces record which path ran.
int lanes();

// ---- elementwise forward ----------------------------------------------------
void add(float* o, const float* x, const float* y, std::size_t n);
void sub(float* o, const float* x, const float* y, std::size_t n);
void mul(float* o, const float* x, const float* y, std::size_t n);
void scale(float* o, const float* x, float s, std::size_t n);
void relu(float* o, const float* x, std::size_t n);
void one_minus(float* o, const float* x, std::size_t n);
/// o = 1 / (1 + exp(-x)), exp as described above.
void sigmoid(float* o, const float* x, std::size_t n);
/// o = tanh(x): an odd polynomial for |x| < 0.625, else 1 - 2 / (e^{2|x|} + 1).
void tanh_(float* o, const float* x, std::size_t n);

// ---- row-structured forward (contiguous row-major, `cols` floats per row) --
/// o[r] = a[r] + row for rows [0, rows).
void add_row(float* o, const float* a, const float* row, int rows, int cols);
/// o[r] = v[r] * col[r] (one scalar per row) for rows [0, rows).
void mul_col(float* o, const float* v, const float* col, int rows, int cols);
/// out[segment[r]][c] += v[r][c] over rows [0, rows) in ascending order, for
/// columns [cb, ce) only (the executor splits segment sums by column).
/// Accumulates: `out` must hold zeros (or a partial sum) on entry.
void segment_sum(float* out, const float* v, const int* segment, int rows,
                 int cols, int cb, int ce);
/// Per-segment softmax of an E-vector of scores: max-shifted exp, a double
/// per-segment sum, then one division per entry. `seg_max`/`seg_sum` are
/// caller scratch of `num_segments` entries (overwritten).
void segment_softmax(float* out, const float* scores, const int* segment,
                     int count, int num_segments, float* seg_max,
                     double* seg_sum);

// ---- elementwise backward accumulations ------------------------------------
void acc_add(float* dst, const float* g, std::size_t n);                   // dst += g
void acc_sub(float* dst, const float* g, std::size_t n);                   // dst -= g
void acc_mul(float* dst, const float* g, const float* o, std::size_t n);   // dst += g * o
void acc_scale(float* dst, const float* g, float s, std::size_t n);        // dst += g * s

/// Register-blocked matmul microkernel over output rows [rb, re):
///   out[i][j] += sum_p a[i][p] * b[p][j]
/// accumulated per element in ascending p with the sequential kernel's
/// zero-skip (a[i][p] == 0 contributes nothing, bit-for-bit). `lda`/`ldb`/
/// `ldo` are row strides in floats. Accumulates into `out` (the planner
/// zero-initializes matmul outputs at record time).
void matmul_rows(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int rb, int re, int k, int n);

/// out (rows x n) = a (rows x k) * b (k x n), all contiguous: zero-fills
/// `out`, then matmul_rows — a recorded matmul op's exact arithmetic.
void matmul(const float* a, const float* b, float* out, int rows, int k, int n);

}  // namespace deepseq::nn::kernels
