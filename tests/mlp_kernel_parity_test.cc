// Parity harness for the MLP kernels in simd/.
//
// The contract under test: each build of simd::MlpKernels — the
// two-double baseline build on every host and, where the CPU has it, the
// four-double AVX2 build — writes exactly the bits of a plain
// one-element-at-a-time reference loop, on seeded inputs and on the ones
// the vector code is most likely to get wrong: widths that are not
// multiples of either build's tile (6, 12, 24, 33), blocks of 1 and 11
// rows, exactly-zero and -0.0 values, dead-ReLU rows, and the L2 decay
// term on and off. MlpTest.FitBitsPinnedFromParent runs only the build
// the CPU picks; this suite reaches the baseline build on AVX2 hosts.
//
// The first-layer gradient oracle keeps the pooled per-row accumulation
// the MLP used before (SparseBackward into gradient columns slotted in
// first-touch order, then an Adam step per column) and checks that
// MlpUnitRows plus column_adam_step write the same parameters and
// moments bit for bit on blocks where units repeat across rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "hamlet/ml/ann/mlp.h"
#include "hamlet/simd/simd.h"
#include "hamlet/simd/simd_native.h"

namespace hamlet {
namespace test {
namespace {

using simd::MlpAdam;
using simd::MlpKernels;

enum class Build { kBaseline, kAvx2 };

void PrintTo(Build build, std::ostream* os) {
  *os << (build == Build::kBaseline ? "baseline" : "avx2");
}

/// The build's kernels, or null when this CPU cannot run it.
const MlpKernels* KernelsFor(Build build) {
  if (build == Build::kBaseline) return &simd::detail::MlpKernelsBaseline();
#ifdef HAMLET_X86_NATIVE
  if (simd::detail::Avx2Supported()) return &simd::detail::MlpKernelsAvx2();
#endif
  return nullptr;
}

const size_t kWidths[] = {6, 12, 24, 33};
const size_t kBlockRows[] = {1, 11};

/// Seeded doubles of mixed sign and magnitude; about one in eight is
/// +0.0 and one in eight is -0.0.
class Values {
 public:
  explicit Values(uint64_t seed) : gen_(seed) {}

  double Next() {
    const uint64_t pick = gen_() % 8;
    if (pick == 0) return 0.0;
    if (pick == 1) return -0.0;
    return std::ldexp(normal_(gen_), static_cast<int>(gen_() % 9) - 4);
  }

  /// A non-negative value (Adam's second moment).
  double NextNonNegative() { return std::fabs(Next()); }

  std::vector<double> Fill(size_t n) {
    std::vector<double> out(n);
    for (double& x : out) x = Next();
    return out;
  }

  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(gen_() % n); }

 private:
  std::mt19937_64 gen_;
  std::normal_distribution<double> normal_;
};

MlpAdam Coeffs(uint64_t step, double inv_bs) {
  MlpAdam c;
  c.lr = 0.01;
  c.beta1 = 0.9;
  c.beta2 = 0.999;
  c.one_minus_beta1 = 1.0 - c.beta1;
  c.one_minus_beta2 = 1.0 - c.beta2;
  c.eps = 1e-8;
  c.bias1 = 1.0 - std::pow(c.beta1, static_cast<double>(step));
  c.bias2 = 1.0 - std::pow(c.beta2, static_cast<double>(step));
  c.inv_bs = inv_bs;
  c.lambda = 1e-3;
  return c;
}

/// Bitwise equality, so -0.0 differs from +0.0.
void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &want[i], sizeof(a));
    std::memcpy(&b, &got[i], sizeof(b));
    EXPECT_EQ(a, b) << what << "[" << i << "]: want " << want[i] << ", got "
                    << got[i];
  }
}

// -- Reference loops: the plain one-element-at-a-time algorithm. ---------

double Relu(double x) { return x > 0.0 ? x : 0.0; }

void AdamReference(const MlpAdam& c, bool decay, double g, double* p,
                   double* m, double* v) {
  double grad = g * c.inv_bs;
  if (decay) grad = grad + c.lambda * *p;
  *m = c.beta1 * *m + c.one_minus_beta1 * grad;
  *v = c.beta2 * *v + c.one_minus_beta2 * grad * grad;
  const double mhat = *m / c.bias1;
  const double vhat = *v / c.bias2;
  *p -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
}

/// A CSR of every (major, minor) pair of a major x minor delta matrix,
/// zeros included, minors ascending within each major.
struct DeltaLists {
  std::vector<uint32_t> start, index;
  std::vector<double> delta;
};

DeltaLists ListByMajor(const std::vector<double>& d, size_t major,
                       size_t minor, bool by_row) {
  DeltaLists lists;
  lists.start.push_back(0);
  for (size_t a = 0; a < major; ++a) {
    for (size_t b = 0; b < minor; ++b) {
      // Row-major d is rows x out: by row, major = row; by output,
      // major = output.
      lists.delta.push_back(by_row ? d[a * minor + b] : d[b * major + a]);
      lists.index.push_back(static_cast<uint32_t>(b));
    }
    lists.start.push_back(static_cast<uint32_t>(lists.index.size()));
  }
  return lists;
}

class MlpKernelParity : public testing::TestWithParam<Build> {
 protected:
  void SetUp() override {
    kernels_ = KernelsFor(GetParam());
    if (kernels_ == nullptr) GTEST_SKIP() << "this CPU has no AVX2";
  }

  const MlpKernels* kernels_ = nullptr;
};

TEST_P(MlpKernelParity, SparseForward) {
  Values values(11);
  for (size_t h1 : kWidths) {
    for (size_t rows : kBlockRows) {
      SCOPED_TRACE(testing::Message() << "h1=" << h1 << " rows=" << rows);
      const size_t dimension = 9, n_units = 4;
      const std::vector<double> b1 = values.Fill(h1);
      const std::vector<double> cols = values.Fill(dimension * h1);
      std::vector<uint32_t> units(rows * n_units);
      for (uint32_t& u : units) u = values.Below(dimension);
      std::vector<double> want(rows * h1), got(rows * h1);
      for (size_t r = 0; r < rows; ++r) {
        const uint32_t* row_units = units.data() + r * n_units;
        for (size_t k = 0; k < h1; ++k) {
          double z = b1[k];
          for (size_t j = 0; j < n_units; ++j) {
            z += cols[row_units[j] * h1 + k];
          }
          want[r * h1 + k] = Relu(z);
        }
        kernels_->sparse_forward(b1.data(), cols.data(), row_units, n_units,
                                 h1, got.data() + r * h1);
      }
      ExpectSameBits(want, got, "h");
    }
  }
}

TEST_P(MlpKernelParity, DenseForward) {
  Values values(12);
  for (size_t in : kWidths) {
    for (size_t rows : kBlockRows) {
      for (size_t out : {1, 5, 9}) {
        for (bool relu : {false, true}) {
          SCOPED_TRACE(testing::Message() << "in=" << in << " rows=" << rows
                                          << " out=" << out
                                          << " relu=" << relu);
          const size_t padded = (rows + simd::kMlpRowPad - 1) /
                                simd::kMlpRowPad * simd::kMlpRowPad;
          const std::vector<double> w = values.Fill(out * in);
          const std::vector<double> b = values.Fill(out);
          // Real rows hold values; the padding rows are zero.
          std::vector<double> x(in * padded, 0.0);
          for (size_t k = 0; k < in; ++k) {
            for (size_t r = 0; r < rows; ++r) x[k * padded + r] = values.Next();
          }
          std::vector<double> want(out * padded), got(out * padded);
          for (size_t o = 0; o < out; ++o) {
            for (size_t r = 0; r < padded; ++r) {
              double z = b[o];
              for (size_t k = 0; k < in; ++k) {
                z += w[o * in + k] * x[k * padded + r];
              }
              want[o * padded + r] = relu ? Relu(z) : z;
            }
          }
          kernels_->dense_forward(w.data(), b.data(), x.data(), in, out,
                                  padded, relu, got.data());
          ExpectSameBits(want, got, "z");
        }
      }
    }
  }
}

TEST_P(MlpKernelParity, WeightGrads) {
  Values values(13);
  for (size_t in : kWidths) {
    for (size_t rows : kBlockRows) {
      SCOPED_TRACE(testing::Message() << "in=" << in << " rows=" << rows);
      const size_t out = 5;
      const std::vector<double> a = values.Fill(rows * in);
      const DeltaLists by_out =
          ListByMajor(values.Fill(rows * out), out, rows, /*by_row=*/false);
      std::vector<double> want = values.Fill(out * in), got = want;
      for (size_t o = 0; o < out; ++o) {
        for (size_t k = 0; k < in; ++k) {
          double g = want[o * in + k];
          for (uint32_t e = by_out.start[o]; e < by_out.start[o + 1]; ++e) {
            g += by_out.delta[e] * a[by_out.index[e] * in + k];
          }
          want[o * in + k] = g;
        }
      }
      kernels_->weight_grads(a.data(), in, out, by_out.start.data(),
                             by_out.index.data(), by_out.delta.data(),
                             got.data());
      ExpectSameBits(want, got, "gw");
    }
  }
}

TEST_P(MlpKernelParity, InputDeltas) {
  Values values(14);
  for (size_t in : kWidths) {
    for (size_t rows : kBlockRows) {
      SCOPED_TRACE(testing::Message() << "in=" << in << " rows=" << rows);
      const size_t out = 5;
      const std::vector<double> w = values.Fill(out * in);
      // Post-ReLU activations, zeros among them, with row 0 dead
      // throughout.
      std::vector<double> a(rows * in);
      for (size_t i = 0; i < a.size(); ++i) {
        a[i] = i < in ? 0.0 : Relu(values.Next());
      }
      const DeltaLists by_row =
          ListByMajor(values.Fill(rows * out), rows, out, /*by_row=*/true);
      std::vector<double> want(rows * in), got(rows * in, 1.0);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t k = 0; k < in; ++k) {
          double acc = 0.0;
          for (uint32_t e = by_row.start[r]; e < by_row.start[r + 1]; ++e) {
            acc += by_row.delta[e] * w[by_row.index[e] * in + k];
          }
          want[r * in + k] = a[r * in + k] > 0.0 ? acc : 0.0;
        }
      }
      kernels_->input_deltas(w.data(), a.data(), in, rows,
                             by_row.start.data(), by_row.index.data(),
                             by_row.delta.data(), got.data());
      ExpectSameBits(want, got, "din");
    }
  }
}

TEST_P(MlpKernelParity, AdamStep) {
  Values values(15);
  for (size_t n : kWidths) {
    for (bool decay : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " decay=" << decay);
      const MlpAdam c = Coeffs(3, 1.0 / 11.0);
      const std::vector<double> g = values.Fill(n);
      std::vector<double> p = values.Fill(n), m = values.Fill(n), v(n);
      for (double& x : v) x = values.NextNonNegative();
      std::vector<double> want_p = p, want_m = m, want_v = v;
      for (size_t i = 0; i < n; ++i) {
        AdamReference(c, decay, g[i], &want_p[i], &want_m[i], &want_v[i]);
      }
      kernels_->adam_step(c, decay, g.data(), n, p.data(), m.data(),
                          v.data());
      ExpectSameBits(want_p, p, "p");
      ExpectSameBits(want_m, m, "m");
      ExpectSameBits(want_v, v, "v");
    }
  }
}

TEST_P(MlpKernelParity, ColumnAdamStep) {
  Values values(16);
  for (size_t width : kWidths) {
    for (size_t rows : kBlockRows) {
      for (bool decay : {false, true}) {
        SCOPED_TRACE(testing::Message() << "width=" << width << " rows="
                                        << rows << " decay=" << decay);
        const MlpAdam c = Coeffs(7, 1.0 / static_cast<double>(rows));
        const std::vector<double> deltas = values.Fill(rows * width);
        // Every other row, ascending, and row 0 always.
        std::vector<uint32_t> list;
        for (uint32_t r = 0; r < rows; r += 2) list.push_back(r);
        std::vector<double> p = values.Fill(width), m = values.Fill(width);
        std::vector<double> v(width);
        for (double& x : v) x = values.NextNonNegative();
        std::vector<double> want_p = p, want_m = m, want_v = v;
        for (size_t k = 0; k < width; ++k) {
          double g = 0.0;
          for (uint32_t r : list) g += deltas[r * width + k];
          AdamReference(c, decay, g, &want_p[k], &want_m[k], &want_v[k]);
        }
        kernels_->column_adam_step(c, decay, deltas.data(), width,
                                   list.data(), list.size(), p.data(),
                                   m.data(), v.data());
        ExpectSameBits(want_p, p, "p");
        ExpectSameBits(want_m, m, "m");
        ExpectSameBits(want_v, v, "v");
      }
    }
  }
}

/// The pooled first-layer gradient the MLP accumulated before: gradient
/// columns slotted in first-touch order and zeroed, then per row in
/// block order g_b1 += d1 and each active unit's column += d1.
struct PooledGradients {
  std::vector<uint32_t> units;  // slot s's unit
  std::vector<std::vector<double>> cols;
  std::vector<double> b1;
};

void SparseBackward(const double* d1, double* const* unit_grads,
                    size_t n_units, size_t h1, double* g_b1) {
  for (size_t k = 0; k < h1; ++k) {
    g_b1[k] += d1[k];
    for (size_t j = 0; j < n_units; ++j) unit_grads[j][k] += d1[k];
  }
}

PooledGradients PoolGradients(const std::vector<uint32_t>& units,
                              size_t rows, size_t d, size_t dimension,
                              const std::vector<double>& d1, size_t h1) {
  PooledGradients pool;
  std::vector<int> slot(dimension, -1);
  for (uint32_t u : units) {
    if (slot[u] < 0) {
      slot[u] = static_cast<int>(pool.units.size());
      pool.units.push_back(u);
    }
  }
  pool.cols.assign(pool.units.size(), std::vector<double>(h1, 0.0));
  pool.b1.assign(h1, 0.0);
  std::vector<double*> unit_grads(d);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < d; ++j) {
      unit_grads[j] = pool.cols[static_cast<size_t>(slot[units[r * d + j]])]
                          .data();
    }
    SparseBackward(d1.data() + r * h1, unit_grads.data(), d, h1,
                   pool.b1.data());
  }
  return pool;
}

TEST_P(MlpKernelParity, FirstLayerStepMatchesPooledGradients) {
  Values values(17);
  // Three features with one-hot ranges [0, 2), [2, 5) and [5, 7): small
  // domains, so in 11 rows every unit that occurs does so several times.
  const uint32_t offsets[] = {0, 2, 5, 7};
  const size_t d = 3, dimension = offsets[d];
  size_t most_rows = 0;
  for (size_t h1 : kWidths) {
    for (size_t rows : kBlockRows) {
      SCOPED_TRACE(testing::Message() << "h1=" << h1 << " rows=" << rows);
      std::vector<uint32_t> units(rows * d);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < d; ++j) {
          units[r * d + j] =
              offsets[j] + values.Below(offsets[j + 1] - offsets[j]);
        }
      }
      const std::vector<double> d1 = values.Fill(rows * h1);
      const MlpAdam c = Coeffs(5, 1.0 / static_cast<double>(rows));
      const std::vector<double> w0 = values.Fill(dimension * h1);
      std::vector<double> m0 = values.Fill(dimension * h1);
      std::vector<double> v0(dimension * h1);
      for (double& x : v0) x = values.NextNonNegative();
      const std::vector<double> b0 = values.Fill(h1);

      // Reference: pooled sums, then one Adam step per column.
      const PooledGradients pool =
          PoolGradients(units, rows, d, dimension, d1, h1);
      std::vector<double> want_w = w0, want_m = m0, want_v = v0;
      for (size_t s = 0; s < pool.units.size(); ++s) {
        const size_t at = pool.units[s] * h1;
        for (size_t k = 0; k < h1; ++k) {
          AdamReference(c, /*decay=*/true, pool.cols[s][k], &want_w[at + k],
                        &want_m[at + k], &want_v[at + k]);
        }
      }
      std::vector<double> want_b = b0, want_bm(h1, 0.0), want_bv(h1, 0.0);
      for (size_t k = 0; k < h1; ++k) {
        AdamReference(c, /*decay=*/false, pool.b1[k], &want_b[k],
                      &want_bm[k], &want_bv[k]);
      }

      // The MLP's path: the unit -> rows lists, one fused step per column,
      // and b1's over every row.
      ml::MlpUnitRows lists(dimension);
      lists.Build(units.data(), rows, d);
      ASSERT_EQ(lists.touched, pool.units);
      std::vector<double> w = w0, m = m0, v = v0;
      for (size_t s = 0; s < lists.touched.size(); ++s) {
        const size_t at = lists.touched[s] * h1;
        const uint32_t begin = lists.start[s];
        const size_t n_rows = lists.start[s + 1] - begin;
        most_rows = std::max(most_rows, n_rows);
        kernels_->column_adam_step(c, /*decay=*/true, d1.data(), h1,
                                   lists.row.data() + begin, n_rows,
                                   w.data() + at, m.data() + at,
                                   v.data() + at);
      }
      std::vector<uint32_t> all_rows(rows);
      for (size_t r = 0; r < rows; ++r) all_rows[r] = static_cast<uint32_t>(r);
      std::vector<double> b = b0, bm(h1, 0.0), bv(h1, 0.0);
      kernels_->column_adam_step(c, /*decay=*/false, d1.data(), h1,
                                 all_rows.data(), rows, b.data(), bm.data(),
                                 bv.data());

      ExpectSameBits(want_w, w, "w");
      ExpectSameBits(want_m, m, "m");
      ExpectSameBits(want_v, v, "v");
      ExpectSameBits(want_b, b, "b1");
      ExpectSameBits(want_bm, bm, "b1 m");
      ExpectSameBits(want_bv, bv, "b1 v");
    }
  }
  // Some column sums at least three rows, so its summation order matters.
  EXPECT_GE(most_rows, 3u);
}

TEST(MlpUnitRowsTest, ListsRowsAscendingPerUnitAndResetsBetweenBlocks) {
  ml::MlpUnitRows lists(6);
  // Two rows of two units: unit 4 in both, then 1 and 3.
  const uint32_t first[] = {4, 1, 4, 3};
  lists.Build(first, 2, 2);
  EXPECT_EQ(lists.touched, (std::vector<uint32_t>{4, 1, 3}));
  EXPECT_EQ(lists.start, (std::vector<uint32_t>{0, 2, 3, 4}));
  EXPECT_EQ(lists.row, (std::vector<uint32_t>{0, 1, 0, 1}));
  // A later block forgets the earlier one's units.
  const uint32_t second[] = {3, 0};
  lists.Build(second, 1, 2);
  EXPECT_EQ(lists.touched, (std::vector<uint32_t>{3, 0}));
  EXPECT_EQ(lists.start, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(lists.row, (std::vector<uint32_t>{0, 0}));
}

// No name generator: gtest_discover_tests names each case by the
// printed parameter (PrintTo above), e.g. .../SparseForward/avx2.
INSTANTIATE_TEST_SUITE_P(Builds, MlpKernelParity,
                         testing::Values(Build::kBaseline, Build::kAvx2));

}  // namespace
}  // namespace test
}  // namespace hamlet
