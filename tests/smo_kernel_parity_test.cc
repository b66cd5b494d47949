// Parity harness for the SMO scans in simd/.
//
// The contract under test: every backend this host can run — the public
// entry points, the portable scalar versions and, where the CPU has it,
// the AVX2 versions — returns the positions a plain reference loop
// returns and writes the same error bits, for random inputs and for the
// adversarial ones the vector code is most likely to get wrong: lengths
// around the four-lane block size, ties split across lanes and blocks,
// empty sets, the no-violator sentinel, gains one ulp apart at the WSS2
// prefilter bound, zero and subnormal products, -0 scores, and ties,
// signed zeros and NaN at the edges of the score scans' 32-position
// blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hamlet/simd/simd.h"
#include "hamlet/simd/simd_native.h"

namespace hamlet {
namespace test {
namespace {

using simd::kNoPosition;
using simd::SmoActiveView;
using simd::SmoExtremes;
using simd::SmoRefresh;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One backend's three scans (refresh == nullptr for the plain scan).
struct ScanBackend {
  std::string name;
  SmoExtremes (*scan)(const SmoActiveView&, const SmoRefresh*);
  size_t (*select_j)(const SmoActiveView&, const float*, double, double,
                     float*);
};

SmoExtremes DispatchScan(const SmoActiveView& view,
                         const SmoRefresh* refresh) {
  return refresh != nullptr ? simd::SmoRefreshScan(view, *refresh)
                            : simd::SmoScanScores(view);
}

/// The public entry points plus every backend this host can run, called
/// directly, so the scalar versions are covered on an AVX2 host.
std::vector<ScanBackend> HostBackends() {
  std::vector<ScanBackend> backends = {
      {"dispatch", &DispatchScan, &simd::SmoSelectJ},
      {"scalar", &simd::detail::SmoScanScalar,
       &simd::detail::SmoSelectJScalar},
  };
#ifdef HAMLET_X86_NATIVE
  if (simd::detail::Avx2Supported()) {
    backends.push_back({"avx2", &simd::detail::SmoScanAvx2,
                        &simd::detail::SmoSelectJAvx2});
  }
#endif
  return backends;
}

/// Owned active-order arrays plus the row values the scans read.
struct Problem {
  size_t n = 0;                 // original indices are [0, n)
  std::vector<int32_t> active;  // ascending
  std::vector<double> err, up_off, low_off, diag;
  std::vector<float> row_i;  // by original index
  std::vector<float> row_j;  // by original index
  double kii = 1.0;
  double up_best = 0.0;

  size_t count() const { return active.size(); }

  SmoActiveView View(std::vector<double>& errors) const {
    return {errors.data(), up_off.data(), low_off.data(),
            diag.data(),   active.data(), count()};
  }

  /// Row i in position order, as the WSS2 scan copies it out.
  std::vector<float> CompactRowI() const {
    std::vector<float> out(count());
    for (size_t k = 0; k < count(); ++k) out[k] = row_i[active[k]];
    return out;
  }
};

/// A problem over `count` positions: every point active at its own index
/// unless `n` is larger, in which case a random ascending subset. Each
/// point is in I_up / I_low with probability 2/3.
Problem RandomProblem(std::mt19937_64& rng, size_t count, size_t n) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  Problem p;
  p.n = std::max(n, count);
  for (size_t t = 0; t < p.n && p.active.size() < count; ++t) {
    const size_t left = p.n - t, need = count - p.active.size();
    if (left == need || rng() % p.n < count) {
      p.active.push_back(static_cast<int32_t>(t));
    }
  }
  for (size_t k = 0; k < count; ++k) {
    p.err.push_back(unit(rng));
    p.up_off.push_back(rng() % 3 == 0 ? -kInf : 0.0);
    p.low_off.push_back(rng() % 3 == 0 ? kInf : 0.0);
    p.diag.push_back(1.0 + 0.5 * unit(rng));
  }
  for (size_t t = 0; t < p.n; ++t) {
    p.row_i.push_back(static_cast<float>(0.5 + 0.5 * unit(rng)));
    p.row_j.push_back(static_cast<float>(0.5 + 0.5 * unit(rng)));
  }
  p.kii = 1.0;
  p.up_best = 0.5 * unit(rng);
  return p;
}

/// Reference scan: one position at a time over membership flags and
/// unmasked scores, the refresh written out in its fixed association.
SmoExtremes ReferenceScan(const Problem& p, std::vector<double>& err,
                          const SmoRefresh* r) {
  double up_best = -kInf, low_best = kInf;
  SmoExtremes out;
  for (size_t k = 0; k < p.count(); ++k) {
    if (r != nullptr) {
      const double gi = static_cast<double>(r->gi[k]);
      const double gj = static_cast<double>(r->gj[p.active[k]]);
      err[k] = err[k] + ((r->di * gi + r->dj * gj) + r->db);
    }
    const double score = -err[k];
    if (p.up_off[k] == 0.0 && score > up_best) {
      up_best = score;
      out.up = k;
    }
    if (p.low_off[k] == 0.0 && score < low_best) {
      low_best = score;
      out.low = k;
    }
  }
  return out;
}

/// Reference WSS2 j-step: from -inf, dividing at every position.
size_t ReferenceSelectJ(const Problem& p) {
  double best = -kInf;
  size_t best_k = kNoPosition;
  for (size_t k = 0; k < p.count(); ++k) {
    const double diff = p.up_best + p.err[k];
    double eta = p.kii + p.diag[k] -
                 2.0 * static_cast<double>(p.row_i[p.active[k]]);
    if (eta < 1e-12) eta = 1e-12;
    const double gain = diff * diff / eta;
    if (gain > best && diff > 0.0 && p.low_off[k] == 0.0) {
      best = gain;
      best_k = k;
    }
  }
  return best_k;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs every backend's three scans on `p` against the references.
void ExpectParity(const Problem& p, const std::string& label) {
  const std::vector<float> gi = p.CompactRowI();
  const SmoRefresh refresh{gi.data(), p.row_j.data(), 0.75, -1.25, 0.0625};
  std::vector<double> ref_scan_err = p.err;
  const SmoExtremes ref_scan = ReferenceScan(p, ref_scan_err, nullptr);
  std::vector<double> ref_err = p.err;
  const SmoExtremes ref_refresh = ReferenceScan(p, ref_err, &refresh);
  const size_t ref_j = ReferenceSelectJ(p);
  for (const ScanBackend& b : HostBackends()) {
    SCOPED_TRACE(label + " backend=" + b.name +
                 " count=" + std::to_string(p.count()));
    std::vector<double> err = p.err;
    const SmoExtremes scan = b.scan(p.View(err), nullptr);
    EXPECT_EQ(scan.up, ref_scan.up);
    EXPECT_EQ(scan.low, ref_scan.low);
    EXPECT_TRUE(SameBits(err, p.err)) << "the plain scan wrote err";

    const SmoExtremes fused = b.scan(p.View(err), &refresh);
    EXPECT_EQ(fused.up, ref_refresh.up);
    EXPECT_EQ(fused.low, ref_refresh.low);
    EXPECT_TRUE(SameBits(err, ref_err)) << "refreshed errors differ";

    err = p.err;
    std::vector<float> row_out(p.count(), -1.0f);
    EXPECT_EQ(b.select_j(p.View(err), p.row_i.data(), p.kii, p.up_best,
                         row_out.data()),
              ref_j);
    EXPECT_EQ(row_out, gi);
  }
}

TEST(SmoKernelParityTest, RandomInputsMatchReference) {
  std::mt19937_64 rng(20261017);
  for (size_t count = 0; count <= 40; ++count) {
    for (int rep = 0; rep < 8; ++rep) {
      ExpectParity(RandomProblem(rng, count, count + rep * 7), "random");
    }
  }
  for (size_t count : {413u, 1000u}) {
    ExpectParity(RandomProblem(rng, count, count + count / 5), "random");
  }
}

TEST(SmoKernelParityTest, LengthsAroundTheLaneBlock) {
  std::mt19937_64 rng(7);
  for (size_t count = 0; count <= 9; ++count) {
    ExpectParity(RandomProblem(rng, count, count), "short");
  }
  for (size_t m = 1; m <= 16; ++m) {
    ExpectParity(RandomProblem(rng, 4 * m - 1, 4 * m + 3), "4m-1");
    ExpectParity(RandomProblem(rng, 4 * m + 1, 4 * m + 3), "4m+1");
  }
}

TEST(SmoKernelParityTest, EqualScoresResolveToFirstPosition) {
  // Every member carries the same score, so the first member position
  // must win each scan, wherever the ties fall across lanes and blocks.
  std::mt19937_64 rng(11);
  for (size_t count : {5u, 8u, 13u, 33u}) {
    for (size_t first = 0; first < count; ++first) {
      Problem p = RandomProblem(rng, count, count);
      for (size_t k = 0; k < count; ++k) {
        p.err[k] = 0.25;
        p.up_off[k] = k >= first ? 0.0 : -kInf;
        p.low_off[k] = k >= first ? 0.0 : kInf;
      }
      std::vector<double> err = p.err;
      for (const ScanBackend& b : HostBackends()) {
        const SmoExtremes e = b.scan(p.View(err), nullptr);
        EXPECT_EQ(e.up, first) << b.name << " count=" << count;
        EXPECT_EQ(e.low, first) << b.name << " count=" << count;
      }
      ExpectParity(p, "equal scores");
    }
  }
}

TEST(SmoKernelParityTest, EqualGainsResolveToFirstPosition) {
  // Clone candidates (same error, diagonal and row entry) at position
  // pairs inside one block, across lanes and across blocks: the lower
  // position must win.
  const size_t count = 24;
  for (size_t a = 0; a < count; ++a) {
    for (size_t b = a + 1; b < count; b += 3) {
      Problem p;
      p.n = count;
      for (size_t k = 0; k < count; ++k) {
        p.active.push_back(static_cast<int32_t>(k));
        p.err.push_back(k == a || k == b ? 0.5 : 0.1);
        p.up_off.push_back(0.0);
        p.low_off.push_back(0.0);
        p.diag.push_back(1.0);
        p.row_i.push_back(0.2f);
        p.row_j.push_back(0.3f);
      }
      p.kii = 1.0;
      p.up_best = 1.0;
      for (const ScanBackend& bk : HostBackends()) {
        std::vector<double> err = p.err;
        std::vector<float> row_out(count);
        EXPECT_EQ(bk.select_j(p.View(err), p.row_i.data(), p.kii, p.up_best,
                              row_out.data()),
                  a)
            << bk.name << " b=" << b;
      }
      ExpectParity(p, "equal gains");
    }
  }
}

TEST(SmoKernelParityTest, EmptySetsAndNoViolator) {
  std::mt19937_64 rng(13);
  for (size_t count : {0u, 1u, 4u, 7u, 12u}) {
    // No member of either set: both extremes are kNoPosition and no
    // I_low candidate exists for the j-step.
    Problem p = RandomProblem(rng, count, count);
    for (size_t k = 0; k < count; ++k) {
      p.up_off[k] = -kInf;
      p.low_off[k] = kInf;
    }
    for (const ScanBackend& b : HostBackends()) {
      std::vector<double> err = p.err;
      std::vector<float> row_out(count);
      const SmoExtremes e = b.scan(p.View(err), nullptr);
      EXPECT_EQ(e.up, kNoPosition) << b.name;
      EXPECT_EQ(e.low, kNoPosition) << b.name;
      EXPECT_EQ(b.select_j(p.View(err), p.row_i.data(), p.kii, p.up_best,
                           row_out.data()),
                kNoPosition)
          << b.name;
    }
    ExpectParity(p, "no members");

    // Members everywhere, but every I_low score is at or above up_best:
    // nothing violates, so the j-step returns the sentinel.
    Problem q = RandomProblem(rng, count, count);
    for (size_t k = 0; k < count; ++k) {
      q.low_off[k] = 0.0;
      q.err[k] = -1.0 - 0.01 * static_cast<double>(k);
    }
    q.up_best = 1.0;
    for (const ScanBackend& b : HostBackends()) {
      std::vector<double> err = q.err;
      std::vector<float> row_out(count);
      EXPECT_EQ(b.select_j(q.View(err), q.row_i.data(), q.kii, q.up_best,
                           row_out.data()),
                kNoPosition)
          << b.name;
    }
    ExpectParity(q, "no violator");
  }
}

/// A j-step problem whose gain at position k is fl(fl(err_k^2) / eta_k):
/// up_best = 0, kii = 0 and K_ik = 0 make d = err_k and eta = diag_k.
Problem GainProblem(const std::vector<double>& d,
                    const std::vector<double>& eta) {
  Problem p;
  p.n = d.size();
  for (size_t k = 0; k < d.size(); ++k) {
    p.active.push_back(static_cast<int32_t>(k));
    p.err.push_back(d[k]);
    p.up_off.push_back(0.0);
    p.low_off.push_back(0.0);
    p.diag.push_back(eta[k]);
    p.row_i.push_back(0.0f);
    p.row_j.push_back(0.5f);
  }
  p.kii = 0.0;
  p.up_best = 0.0;
  return p;
}

/// An eta near d^2 / target with fl(fl(d^2) / eta) == target exactly, or
/// 0 when the neighbourhood has none.
double EtaForGain(double d, double target) {
  const double d2 = d * d;
  double eta = d2 / target;
  for (int step = 0; step < 64; ++step) {
    const double gain = d2 / eta;
    if (gain == target) return eta;
    eta = gain > target ? std::nextafter(eta, kInf)
                        : std::nextafter(eta, 0.0);
  }
  return 0.0;
}

TEST(SmoKernelParityTest, GainsOneUlpApartAtThePrefilterBound) {
  // Position 0 sets the running best G; a later candidate whose gain is
  // one ulp above G must still win (the prefilter may not skip it), one
  // at G or one ulp below must not. The later candidate sits in the same
  // lane block, another lane and the next block.
  int checked = 0;
  for (const double d0 : {0.7, 1.3, 3.0e-5, 2.5e7}) {
    const double best = d0 * d0;  // eta 1, so the gain is fl(d0^2)
    for (const double target :
         {std::nextafter(best, kInf), best, std::nextafter(best, 0.0)}) {
      const double d1 = 1.7 * d0;
      const double eta1 = EtaForGain(d1, target);
      if (eta1 == 0.0) continue;
      for (size_t pos : {1u, 3u, 4u, 6u, 9u}) {
        std::vector<double> d(12, 0.0), eta(12, 1.0);
        d[0] = d0;
        d[pos] = d1;
        eta[pos] = eta1;
        const Problem p = GainProblem(d, eta);
        const size_t want = target > best ? pos : 0;
        ASSERT_EQ(ReferenceSelectJ(p), want);
        for (const ScanBackend& b : HostBackends()) {
          std::vector<double> err = p.err;
          std::vector<float> row_out(p.count());
          EXPECT_EQ(b.select_j(p.View(err), p.row_i.data(), p.kii,
                               p.up_best, row_out.data()),
                    want)
              << b.name << " d0=" << d0 << " pos=" << pos;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 40);
}

TEST(SmoKernelParityTest, ZeroAndSubnormalProducts) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  // d^2 underflows to 0 for every candidate: no positive gain, so the
  // scan from -inf must still pick the first zero-gain violator.
  ExpectParity(GainProblem({1e-170, 2e-170, 3e-170, 1e-200, 5e-170},
                           {1.0, 1.0, 1.0, 1.0, 1.0}),
               "zero gains");
  // Subnormal and barely-normal best * eta products: the prefilter must
  // step aside and the exact division decide.
  ExpectParity(GainProblem({1e-160, 1.1e-160, 1e-160, 1.2e-160, 9e-161,
                            1.3e-160, 1e-160, 1.25e-160, 1.3e-160},
                           {1e-12, 1e-12, 2e-12, 1e-12, 1e-12, 1e-12, 4e-12,
                            1e-12, 1e-12}),
               "subnormal products");
  ExpectParity(GainProblem({std::sqrt(min_normal), std::sqrt(2 * min_normal),
                            std::sqrt(3 * min_normal), 1e-154, 2e-154},
                           {1.0, 1.0, 1.0, 1e-12, 1e-12}),
               "near DBL_MIN");
  ExpectParity(GainProblem({tiny, 2 * tiny, tiny, 0.0, 3 * tiny},
                           {1.0, 1.0, 1.0, 1.0, 1.0}),
               "subnormal diffs");
  // Where best * eta is subnormal, the bound is no longer below it: find
  // a best whose product with eta = tau rounds UP to p, then a later
  // candidate with d^2 == p. Its gain beats best, so it must win, though
  // d^2 <= p * (1 - 2^-50) (which rounds back to p) would skip it.
  const double eta = 1e-12;
  int found = 0;
  for (double d0 = 1.0e-154; d0 < 1.2e-154 && found < 4;
       d0 = std::nextafter(d0 + 1e-158, kInf)) {
    const double best = d0 * d0;  // eta 1
    const double p = best * eta;
    if (static_cast<long double>(best) * eta >= p) continue;  // not up
    double d1 = std::sqrt(p);
    for (int step = 0; step < 64 && d1 * d1 != p; ++step) {
      d1 = d1 * d1 < p ? std::nextafter(d1, kInf) : std::nextafter(d1, 0.0);
    }
    if (d1 * d1 != p || !(p / eta > best)) continue;
    const Problem q = GainProblem({d0, 0.0, d1, 0.0, 0.0}, {1.0, 1.0, eta,
                                                           1.0, 1.0});
    ASSERT_EQ(ReferenceSelectJ(q), 2u);
    ExpectParity(q, "subnormal bound");
    ++found;
  }
  EXPECT_GE(found, 1);
  // Huge products: best * eta overflows to inf.
  ExpectParity(GainProblem({1e150, 2e150, 1e150, 3e150, 1e154, 2e154},
                           {1e160, 1e160, 1e150, 1e160, 1e160, 1.0}),
               "overflowing products");
}

TEST(SmoKernelParityTest, NegativeZeroScores) {
  // -0 and +0 errors compare equal: the first member position wins
  // whichever zero it holds, and the refresh writes identical bits
  // (-0 + (0 + 0) is +0 on every backend).
  for (size_t count : {3u, 6u, 9u}) {
    for (size_t first = 0; first < count; ++first) {
      Problem p;
      p.n = count;
      for (size_t k = 0; k < count; ++k) {
        p.active.push_back(static_cast<int32_t>(k));
        p.err.push_back((k + first) % 2 == 0 ? -0.0 : 0.0);
        p.up_off.push_back(k >= first ? 0.0 : -kInf);
        p.low_off.push_back(k >= first ? 0.0 : kInf);
        p.diag.push_back(1.0);
        p.row_i.push_back(0.5f);
        p.row_j.push_back(0.5f);
      }
      for (const ScanBackend& b : HostBackends()) {
        std::vector<double> err = p.err;
        const SmoExtremes e = b.scan(p.View(err), nullptr);
        EXPECT_EQ(e.up, first) << b.name;
        EXPECT_EQ(e.low, first) << b.name;
        const std::vector<float> gi = p.CompactRowI();
        const SmoRefresh zero{gi.data(), p.row_j.data(), 0.0, 0.0, 0.0};
        std::vector<double> ref = p.err;
        ReferenceScan(p, ref, &zero);
        b.scan(p.View(err), &zero);
        EXPECT_TRUE(SameBits(err, ref)) << b.name;
      }
      ExpectParity(p, "signed zeros");
    }
  }
}

/// Every position a member of both sets, with the given errors and
/// constant kernel rows: a refresh then moves every error by the same
/// amount, so equal errors stay equal.
Problem FlatProblem(const std::vector<double>& err) {
  Problem p;
  p.n = err.size();
  for (size_t k = 0; k < err.size(); ++k) {
    p.active.push_back(static_cast<int32_t>(k));
    p.err.push_back(err[k]);
    p.up_off.push_back(0.0);
    p.low_off.push_back(0.0);
    p.diag.push_back(1.0);
    p.row_i.push_back(0.5f);
    p.row_j.push_back(0.25f);
  }
  return p;
}

/// Every backend's plain score scan puts the up (kUp) or low extreme
/// at `want`, and every backend's scans match the references.
template <bool kUp>
void ExpectExtreme(const Problem& p, size_t want, const std::string& label) {
  for (const ScanBackend& b : HostBackends()) {
    std::vector<double> err = p.err;
    const SmoExtremes e = b.scan(p.View(err), nullptr);
    EXPECT_EQ(kUp ? e.up : e.low, want) << label << " " << b.name;
  }
  ExpectParity(p, label);
}

TEST(SmoKernelParityTest, BlockEdgesTiesSignedZerosAndNaN) {
  // The AVX2 score scans reduce each 32-position block to one extreme and
  // rescan the first block that attains it. Put the deciding positions
  // a < b on both sides of the block edges, at counts around one and two
  // blocks (31 and 33 end in a scalar tail).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t count : {31u, 32u, 33u, 64u, 65u}) {
    std::vector<size_t> edges;
    for (const size_t k : {0u, 1u, 3u, 4u, 30u, 31u, 32u, 33u, 63u, 64u}) {
      if (k < count) edges.push_back(k);
    }
    // Background errors inside [-0.185, 0.185], none of them zero.
    std::vector<double> base(count);
    for (size_t k = 0; k < count; ++k) {
      base[k] = (k % 2 == 1 ? -1.0 : 1.0) *
                (0.125 + 0.01 * static_cast<double>(k % 7));
    }
    for (const size_t a : edges) {
      for (const size_t b : edges) {
        if (b <= a) continue;
        const std::string at = " count=" + std::to_string(count) +
                               " a=" + std::to_string(a) +
                               " b=" + std::to_string(b);
        // Ties: a and b share the max up score (the least error), then
        // the min low score (the greatest error).
        std::vector<double> err = base;
        err[a] = err[b] = -1.0;
        ExpectExtreme<true>(FlatProblem(err), a, "up tie" + at);
        err = base;
        err[a] = err[b] = 1.0;
        ExpectExtreme<false>(FlatProblem(err), a, "low tie" + at);

        // Signed zeros: every other error is on the far side of zero, so
        // the extreme is the zero at a, whichever zero a and b hold.
        for (const double za : {-0.0, 0.0}) {
          std::vector<double> zeros(count, 0.5);
          zeros[a] = za;
          zeros[b] = -za;
          ExpectExtreme<true>(FlatProblem(zeros), a, "up zero" + at);
          for (double& e : zeros) e = e == 0.5 ? -0.5 : e;
          ExpectExtreme<false>(FlatProblem(zeros), a, "low zero" + at);
        }

        // NaN errors never win: NaN at a and at every position before
        // it, the least error at b and the greatest right after it.
        err = base;
        for (size_t k = 0; k <= a; ++k) err[k] = nan;
        err[b] = -1.0;
        ExpectExtreme<true>(FlatProblem(err), b, "nan up" + at);
        if (b + 1 < count) {
          err[b + 1] = 1.0;
          ExpectExtreme<false>(FlatProblem(err), b + 1, "nan low" + at);
        }
      }
    }
    // All NaN: no position qualifies.
    const Problem all_nan = FlatProblem(std::vector<double>(count, nan));
    const std::string label = "all nan count=" + std::to_string(count);
    ExpectExtreme<true>(all_nan, kNoPosition, label);
    ExpectExtreme<false>(all_nan, kNoPosition, label);
  }
}

}  // namespace
}  // namespace test
}  // namespace hamlet
