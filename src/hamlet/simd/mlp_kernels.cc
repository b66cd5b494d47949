// The MLP's vector kernels (the contracts are in simd.h), written once
// over a vector type V and built twice: V2, two doubles, the baseline
// ISA's vector (SSE2 on x86-64, NEON on aarch64), and V4, four doubles,
// inside __attribute__((target("avx2"))) entry points. simd.cc picks
// one from the CPU alone.
//
// Bit-identity contract. A vector holds independent elements (hidden
// units, rows of a block or parameters) and each vector operation is the
// scalar IEEE operation applied lane by lane, so every element goes
// through exactly the operations of the plain one-row-at-a-time
// algorithm, in its order: no loop splits one sum across lanes or
// reassociates it, and nothing is fused (the library builds with
// -ffp-contract=off, AVX2 implies no FMA, and tools/hamlet_lint.py's
// fp-contract rule keeps FMA and fast-math out of src/). The scalar
// remainder loops compute the same expressions one element at a time,
// so the lane count changes which loop an element runs in, never its
// bits. An AVX-512 build is left out: eight lanes under avx512f changed
// the probability bits of a trial fit, while eight under avx2 did not.
//
// AVX2 isolation. The kernels are always-inline templates over raw
// pointers in an anonymous namespace: an AVX2 entry point inlines its
// whole kernel and instantiates no template another translation unit
// shares, so no std:: code the rest of the library links is compiled for
// AVX2. Every AVX2 entry point clears the upper YMM halves on exit (see
// smo_scan.cc). This file builds with -fno-math-errno, so the Adam
// step's lane-wise square roots are one vector square root; sqrt is
// correctly rounded either way, so the flag changes no bit.

#include <cmath>
#include <cstring>

#include "hamlet/simd/simd.h"
#include "hamlet/simd/simd_native.h"

#ifdef HAMLET_X86_NATIVE
#include <immintrin.h>
#endif

namespace hamlet {
namespace simd {
namespace detail {

namespace {

typedef double V2 __attribute__((vector_size(16)));
#ifdef HAMLET_X86_NATIVE
typedef double V4 __attribute__((vector_size(32)));
#endif

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(double);
// Vector accumulators an elementwise loop keeps in registers.
constexpr size_t kTile = 4;
// A dense register tile covers kOutTile outputs x two vectors of rows.
constexpr size_t kOutTile = 4;

#define HAMLET_MLP_INLINE inline __attribute__((always_inline))
// Fully unrolls a loop over a register tile, so its accumulators stay in
// registers instead of a stack array.
#if defined(__clang__)
#define HAMLET_MLP_UNROLL _Pragma("unroll")
#else
#define HAMLET_MLP_UNROLL _Pragma("GCC unroll 16")
#endif

template <typename V>
HAMLET_MLP_INLINE void Load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(v));
}
template <typename V>
HAMLET_MLP_INLINE void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(v));
}

HAMLET_MLP_INLINE double Relu(double x) { return x > 0.0 ? x : 0.0; }

/// v where gate > 0, else +0.0, lane by lane: ReLU when gate is v, and
/// the ReLU derivative mask on a delta when gate is the post-ReLU
/// activation (never NaN, so `gate > 0` is exactly `!(gate <= 0)`).
template <typename V>
HAMLET_MLP_INLINE void KeepWherePositive(V& v, const V& gate) {
  const V zero = {};
  using Mask = decltype(gate > zero);
  v = (V)((Mask)v & (gate > zero));
}

template <typename V>
HAMLET_MLP_INLINE void SparseForward(const double* b1, const double* cols,
                                     const uint32_t* units, size_t n_units,
                                     size_t h1, double* h) {
  constexpr size_t L = kLanes<V>;
  size_t k = 0;
  for (; k + kTile * L <= h1; k += kTile * L) {
    V acc[kTile];
    HAMLET_MLP_UNROLL
    for (size_t t = 0; t < kTile; ++t) Load(acc[t], b1 + k + t * L);
    for (size_t j = 0; j < n_units; ++j) {
      const double* col = cols + static_cast<size_t>(units[j]) * h1 + k;
      HAMLET_MLP_UNROLL
      for (size_t t = 0; t < kTile; ++t) {
        V c;
        Load(c, col + t * L);
        acc[t] += c;
      }
    }
    HAMLET_MLP_UNROLL
    for (size_t t = 0; t < kTile; ++t) {
      KeepWherePositive(acc[t], acc[t]);
      Store(h + k + t * L, acc[t]);
    }
  }
  for (; k < h1; ++k) {
    double z = b1[k];
    for (size_t j = 0; j < n_units; ++j) {
      z += cols[static_cast<size_t>(units[j]) * h1 + k];
    }
    h[k] = Relu(z);
  }
}

/// kOuts outputs x two vectors of rows of dense_forward: x and z are
/// row-minor with row stride `padded`; w points at the first output's
/// row of the weights.
template <typename V, size_t kOuts>
HAMLET_MLP_INLINE void DenseForwardTile(const double* w, const double* b,
                                        const double* x, size_t in,
                                        size_t padded, bool relu,
                                        double* z) {
  constexpr size_t L = kLanes<V>;
  V acc[kOuts][2];
  HAMLET_MLP_UNROLL
  for (size_t i = 0; i < kOuts; ++i) {
    // b[i] in every lane: x - (+0.0) is x exactly, signed zeros included.
    const V bias = b[i] - V{};
    acc[i][0] = bias;
    acc[i][1] = bias;
  }
  for (size_t k = 0; k < in; ++k) {
    V x0, x1;
    Load(x0, x + k * padded);
    Load(x1, x + k * padded + L);
    HAMLET_MLP_UNROLL
    for (size_t i = 0; i < kOuts; ++i) {
      const double wk = w[i * in + k];
      acc[i][0] += wk * x0;
      acc[i][1] += wk * x1;
    }
  }
  HAMLET_MLP_UNROLL
  for (size_t i = 0; i < kOuts; ++i) {
    HAMLET_MLP_UNROLL
    for (size_t half = 0; half < 2; ++half) {
      if (relu) KeepWherePositive(acc[i][half], acc[i][half]);
      Store(z + i * padded + half * L, acc[i][half]);
    }
  }
}

/// Each weight load serves two vectors of rows; kMlpRowPad is a multiple
/// of that at every width.
template <typename V>
HAMLET_MLP_INLINE void DenseForward(const double* w, const double* b,
                                    const double* x, size_t in, size_t out,
                                    size_t padded, bool relu, double* z) {
  static_assert(kMlpRowPad % (2 * kLanes<V>) == 0, "row pad too narrow");
  for (size_t r = 0; r < padded; r += 2 * kLanes<V>) {
    size_t o = 0;
    for (; o + kOutTile <= out; o += kOutTile) {
      DenseForwardTile<V, kOutTile>(w + o * in, b + o, x + r, in, padded,
                                    relu, z + o * padded + r);
    }
    for (; o < out; ++o) {
      DenseForwardTile<V, 1>(w + o * in, b + o, x + r, in, padded, relu,
                             z + o * padded + r);
    }
  }
}

template <typename V>
HAMLET_MLP_INLINE void WeightGrads(const double* a, size_t in, size_t out,
                                   const uint32_t* start,
                                   const uint32_t* rows,
                                   const double* deltas, double* gw) {
  constexpr size_t L = kLanes<V>;
  size_t k = 0;
  for (; k + kTile * L <= in; k += kTile * L) {
    for (size_t o = 0; o < out; ++o) {
      double* g = gw + o * in + k;
      V acc[kTile];
      HAMLET_MLP_UNROLL
      for (size_t t = 0; t < kTile; ++t) Load(acc[t], g + t * L);
      for (uint32_t e = start[o]; e < start[o + 1]; ++e) {
        const double d = deltas[e];
        const double* ar = a + static_cast<size_t>(rows[e]) * in + k;
        HAMLET_MLP_UNROLL
        for (size_t t = 0; t < kTile; ++t) {
          V av;
          Load(av, ar + t * L);
          acc[t] += d * av;
        }
      }
      HAMLET_MLP_UNROLL
      for (size_t t = 0; t < kTile; ++t) Store(g + t * L, acc[t]);
    }
  }
  for (; k < in; ++k) {
    for (size_t o = 0; o < out; ++o) {
      double g = gw[o * in + k];
      for (uint32_t e = start[o]; e < start[o + 1]; ++e) {
        g += deltas[e] * a[static_cast<size_t>(rows[e]) * in + k];
      }
      gw[o * in + k] = g;
    }
  }
}

template <typename V>
HAMLET_MLP_INLINE void InputDeltas(const double* w, const double* a,
                                   size_t in, size_t num_rows,
                                   const uint32_t* start,
                                   const uint32_t* outs,
                                   const double* deltas, double* din) {
  constexpr size_t L = kLanes<V>;
  size_t k = 0;
  for (; k + kTile * L <= in; k += kTile * L) {
    for (size_t r = 0; r < num_rows; ++r) {
      V acc[kTile] = {};
      for (uint32_t e = start[r]; e < start[r + 1]; ++e) {
        const double d = deltas[e];
        const double* wr = w + static_cast<size_t>(outs[e]) * in + k;
        HAMLET_MLP_UNROLL
        for (size_t t = 0; t < kTile; ++t) {
          V wv;
          Load(wv, wr + t * L);
          acc[t] += d * wv;
        }
      }
      HAMLET_MLP_UNROLL
      for (size_t t = 0; t < kTile; ++t) {
        V gate;
        Load(gate, a + r * in + k + t * L);
        KeepWherePositive(acc[t], gate);
        Store(din + r * in + k + t * L, acc[t]);
      }
    }
  }
  for (; k < in; ++k) {
    for (size_t r = 0; r < num_rows; ++r) {
      double acc = 0.0;
      for (uint32_t e = start[r]; e < start[r + 1]; ++e) {
        acc += deltas[e] * w[static_cast<size_t>(outs[e]) * in + k];
      }
      din[r * in + k] = a[r * in + k] > 0.0 ? acc : 0.0;
    }
  }
}

/// The Adam update of one vector of parameters at p, m, v from its
/// summed minibatch gradient g.
template <typename V>
HAMLET_MLP_INLINE void AdamLanes(const MlpAdam& c, bool decay, const V& g,
                                 double* p, double* m, double* v) {
  V pv, mv, vv;
  Load(pv, p);
  Load(mv, m);
  Load(vv, v);
  V grad = g * c.inv_bs;
  if (decay) grad = grad + c.lambda * pv;
  mv = c.beta1 * mv + c.one_minus_beta1 * grad;
  vv = c.beta2 * vv + c.one_minus_beta2 * grad * grad;
  const V mhat = mv / c.bias1;
  V root = vv / c.bias2;
  HAMLET_MLP_UNROLL
  for (size_t j = 0; j < kLanes<V>; ++j) root[j] = std::sqrt(root[j]);
  pv -= c.lr * mhat / (root + c.eps);
  Store(p, pv);
  Store(m, mv);
  Store(v, vv);
}

/// AdamLanes for one parameter.
HAMLET_MLP_INLINE void AdamScalar(const MlpAdam& c, bool decay, double g,
                                  double* p, double* m, double* v) {
  double grad = g * c.inv_bs;
  if (decay) grad = grad + c.lambda * *p;
  *m = c.beta1 * *m + c.one_minus_beta1 * grad;
  *v = c.beta2 * *v + c.one_minus_beta2 * grad * grad;
  const double mhat = *m / c.bias1;
  const double vhat = *v / c.bias2;
  *p -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
}

template <typename V>
HAMLET_MLP_INLINE void AdamStep(const MlpAdam& c, bool decay, const double* g,
                                size_t n, double* p, double* m, double* v) {
  constexpr size_t L = kLanes<V>;
  size_t i = 0;
  for (; i + L <= n; i += L) {
    V gv;
    Load(gv, g + i);
    AdamLanes(c, decay, gv, p + i, m + i, v + i);
  }
  for (; i < n; ++i) AdamScalar(c, decay, g[i], p + i, m + i, v + i);
}

/// The column's gradient exists only tile by tile in registers: each
/// tile sums its rows' deltas from +0.0 in list order, the additions a
/// zeroed gradient column accumulating row by row performs, and goes
/// straight into its Adam update.
template <typename V>
HAMLET_MLP_INLINE void ColumnAdamStep(const MlpAdam& c, bool decay,
                                      const double* deltas, size_t width,
                                      const uint32_t* rows, size_t n_rows,
                                      double* p, double* m, double* v) {
  constexpr size_t L = kLanes<V>;
  size_t k = 0;
  for (; k + kTile * L <= width; k += kTile * L) {
    V acc[kTile] = {};
    for (size_t e = 0; e < n_rows; ++e) {
      const double* d = deltas + static_cast<size_t>(rows[e]) * width + k;
      HAMLET_MLP_UNROLL
      for (size_t t = 0; t < kTile; ++t) {
        V dv;
        Load(dv, d + t * L);
        acc[t] += dv;
      }
    }
    HAMLET_MLP_UNROLL
    for (size_t t = 0; t < kTile; ++t) {
      const size_t at = k + t * L;
      AdamLanes(c, decay, acc[t], p + at, m + at, v + at);
    }
  }
  for (; k < width; ++k) {
    double g = 0.0;
    for (size_t e = 0; e < n_rows; ++e) {
      g += deltas[static_cast<size_t>(rows[e]) * width + k];
    }
    AdamScalar(c, decay, g, p + k, m + k, v + k);
  }
}

}  // namespace

const MlpKernels& MlpKernelsBaseline() {
  static const MlpKernels kernels = {
      &SparseForward<V2>, &DenseForward<V2>, &WeightGrads<V2>,
      &InputDeltas<V2>,   &AdamStep<V2>,     &ColumnAdamStep<V2>,
  };
  return kernels;
}

#ifdef HAMLET_X86_NATIVE

namespace {

// The AVX2 entry points: each inlines its V4 kernel, then clears the
// upper YMM halves, so the baseline SSE code its caller returns to runs
// without the dirty-upper-state penalty.

__attribute__((target("avx2"))) void SparseForwardAvx2(
    const double* b1, const double* cols, const uint32_t* units,
    size_t n_units, size_t h1, double* h) {
  SparseForward<V4>(b1, cols, units, n_units, h1, h);
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void DenseForwardAvx2(
    const double* w, const double* b, const double* x, size_t in, size_t out,
    size_t padded, bool relu, double* z) {
  DenseForward<V4>(w, b, x, in, out, padded, relu, z);
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void WeightGradsAvx2(
    const double* a, size_t in, size_t out, const uint32_t* start,
    const uint32_t* rows, const double* deltas, double* gw) {
  WeightGrads<V4>(a, in, out, start, rows, deltas, gw);
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void InputDeltasAvx2(
    const double* w, const double* a, size_t in, size_t num_rows,
    const uint32_t* start, const uint32_t* outs, const double* deltas,
    double* din) {
  InputDeltas<V4>(w, a, in, num_rows, start, outs, deltas, din);
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void AdamStepAvx2(const MlpAdam& c,
                                                  bool decay, const double* g,
                                                  size_t n, double* p,
                                                  double* m, double* v) {
  AdamStep<V4>(c, decay, g, n, p, m, v);
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void ColumnAdamStepAvx2(
    const MlpAdam& c, bool decay, const double* deltas, size_t width,
    const uint32_t* rows, size_t n_rows, double* p, double* m, double* v) {
  ColumnAdamStep<V4>(c, decay, deltas, width, rows, n_rows, p, m, v);
  _mm256_zeroupper();
}

}  // namespace

const MlpKernels& MlpKernelsAvx2() {
  static const MlpKernels kernels = {
      &SparseForwardAvx2, &DenseForwardAvx2, &WeightGradsAvx2,
      &InputDeltasAvx2,   &AdamStepAvx2,     &ColumnAdamStepAvx2,
  };
  return kernels;
}

#endif  // HAMLET_X86_NATIVE

}  // namespace detail
}  // namespace simd
}  // namespace hamlet
