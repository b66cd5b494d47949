// Tests for ml::KernelCache and the cached-row SMO parity contract: the
// lazy LRU row cache must serve rows bit-identical to ComputeGram, evict
// in LRU order under its byte budget, and leave the SMO solution (alpha,
// bias, iterations, predictions) bit-identical to the full-Gram adapter
// at any cache size and thread count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hamlet/common/counters.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/metrics.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/ml/svm/kernel_cache.h"
#include "hamlet/ml/svm/smo.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/simd/simd.h"
#include "gram_source.h"
#include "parity_util.h"
#include "smo_oracle.h"

namespace hamlet {
namespace ml {
namespace {

using counters::Counter;

constexpr size_t kUnbounded = std::numeric_limits<size_t>::max() / 2;

/// Cache budget that holds exactly `rows` rows of an n-point problem.
size_t BytesForRows(size_t rows, size_t n) { return rows * n * sizeof(float); }

/// The bit pattern of a double, so EXPECT_EQ compares bits.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// A small two-class problem with enough structure to need real SMO work.
struct SmoProblem {
  Dataset data;
  DataView train;
  DataView test;
  std::vector<int8_t> y;  // train labels in -1/+1

  explicit SmoProblem(uint64_t seed)
      : data(test::MakeParityDataset(72, {4, 3, 5, 2, 3}, seed)) {
    test::ParityViews views = test::MakeParityViews(data, seed + 1);
    train = views.train;
    test = views.test;
    const CodeMatrix m(train);
    y.resize(m.num_rows());
    for (size_t i = 0; i < m.num_rows(); ++i) {
      y[i] = m.label(i) == 1 ? 1 : -1;
    }
  }
};

const std::vector<KernelConfig>& AllKernels() {
  static const std::vector<KernelConfig> kernels = {
      {KernelType::kLinear, 0.0, 2},
      {KernelType::kPoly, 0.4, 2},
      {KernelType::kRbf, 0.3, 2},
  };
  return kernels;
}

// ------------------------------------------------------------ KernelCache --

TEST(KernelCacheTest, RowsBitIdenticalToComputeGram) {
  // Domain 6 packs into 4-bit fields, 16 per word, so 5, 27 and 43
  // features make kernel rows of 1, 2 and 3 packed words: both
  // straight-line count shapes and the per-word loop. Each shape is read
  // as full rows (a slab count) and as rows restricted to an active set
  // (an index-list count).
  for (const size_t d : {5u, 27u, 43u}) {
    const Dataset data =
        test::MakeParityDataset(72, std::vector<uint32_t>(d, 6), 11);
    const DataView train = test::MakeParityViews(data, 12).train;
    const CodeMatrix m(train);
    const size_t n = m.num_rows();
    ASSERT_EQ(simd::PackedLayout::ForDomains(m.domain_sizes().data(), d)
                  .words_per_row,
              (d + 15) / 16);
    std::vector<int32_t> odd;
    for (size_t t = 1; t < n; t += 2) odd.push_back(static_cast<int32_t>(t));
    for (const KernelConfig& kc : AllKernels()) {
      SCOPED_TRACE(std::string(KernelTypeName(kc.type)) +
                   " d=" + std::to_string(d));
      const std::vector<float> gram = test::ComputeGram(kc, m.codes(), n, d);
      // Capacity 1 forces a recompute on every access; recomputed rows
      // must still match the full Gram exactly.
      KernelCache cache(CodeMatrix(train), kc, BytesForRows(1, n));
      ASSERT_EQ(cache.size(), n);
      EXPECT_EQ(cache.capacity_rows(), 1u);
      for (size_t i = 0; i < n; ++i) {
        const float* row = cache.Row(i);
        for (size_t t = 0; t < n; ++t) {
          ASSERT_EQ(row[t], gram[i * n + t]) << "row " << i << " col " << t;
        }
      }
      EXPECT_EQ(cache.hits(), 0u);
      EXPECT_EQ(cache.misses(), n);

      KernelCache restricted(CodeMatrix(train), kc, BytesForRows(1, n));
      restricted.RestrictActive(odd.data(), odd.size());
      for (const int32_t i : odd) {
        const float* row = restricted.Row(static_cast<size_t>(i));
        for (const int32_t t : odd) {
          ASSERT_EQ(row[t], gram[static_cast<size_t>(i) * n +
                                 static_cast<size_t>(t)])
              << "restricted row " << i << " col " << t;
        }
      }
    }
  }
}

TEST(KernelCacheTest, EvictsLeastRecentlyUsedRow) {
  const SmoProblem p(12);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  KernelCache cache(CodeMatrix(p.train), AllKernels()[2],
                    BytesForRows(2, n));
  ASSERT_EQ(cache.capacity_rows(), 2u);

  cache.Row(0);
  cache.Row(1);
  EXPECT_TRUE(cache.Cached(0));
  EXPECT_TRUE(cache.Cached(1));
  EXPECT_EQ(cache.resident_rows(), 2u);

  cache.Row(2);  // evicts row 0 (least recently used)
  EXPECT_FALSE(cache.Cached(0));
  EXPECT_TRUE(cache.Cached(1));
  EXPECT_TRUE(cache.Cached(2));

  cache.Row(1);  // refresh row 1 so row 2 becomes the LRU victim
  cache.Row(3);
  EXPECT_TRUE(cache.Cached(1));
  EXPECT_FALSE(cache.Cached(2));
  EXPECT_TRUE(cache.Cached(3));

  EXPECT_EQ(cache.hits(), 1u);    // the Row(1) refresh
  EXPECT_EQ(cache.misses(), 4u);  // rows 0, 1, 2, 3
  EXPECT_EQ(cache.resident_rows(), 2u);
}

TEST(KernelCacheTest, UnboundedBudgetCachesEveryRowOnce) {
  const SmoProblem p(13);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  KernelCache cache(CodeMatrix(p.train), AllKernels()[0], kUnbounded);
  EXPECT_EQ(cache.capacity_rows(), n);  // clamped to the problem size
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) cache.Row(i);
  }
  EXPECT_EQ(cache.misses(), n);
  EXPECT_EQ(cache.hits(), n);
  EXPECT_EQ(cache.resident_rows(), n);
}

TEST(KernelCacheTest, TinyBudgetStillHoldsOneRow) {
  const SmoProblem p(14);
  KernelCache cache(CodeMatrix(p.train), AllKernels()[0], 1);
  EXPECT_EQ(cache.capacity_rows(), 1u);
  EXPECT_NE(cache.Row(0), nullptr);
}

TEST(KernelCacheTest, DiagMatchesGramDiagonal) {
  const SmoProblem p(16);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  const size_t d = probe.num_features();
  for (const KernelConfig& kc : AllKernels()) {
    const std::vector<float> gram = test::ComputeGram(kc, probe.codes(), n, d);
    // Every row matches itself in all d features.
    const float full_match =
        static_cast<float>(KernelValuesByMatches(kc, d)[d]);
    KernelCache cache(CodeMatrix(p.train), kc, kUnbounded);
    test::FullGramRowSource full(gram, n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cache.Diag()[i], gram[i * n + i])
          << KernelTypeName(kc.type) << " i=" << i;
      ASSERT_EQ(Bits(cache.Diag()[i]), Bits(full_match))
          << KernelTypeName(kc.type) << " i=" << i;
      ASSERT_EQ(full.Diag()[i], gram[i * n + i]);
    }
  }
}

TEST(KernelCacheTest, AtMatchesKernelEvalAndCountsOnlyComputedPairs) {
  // A one-row cache holding row 0: At(i, j) is a diagonal entry when
  // i == j, a resident read when i or j is 0, and a single packed match
  // count otherwise. Each kind of probe runs on its own cache so the
  // flushed packed counters show its cost: the constructor's n diagonal
  // evaluations and Row(0)'s n, plus one evaluation of words_per_row
  // words per computed pair.
  const SmoProblem p(20);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  const size_t d = probe.num_features();
  ASSERT_GE(n, 3u);
  const uint64_t words =
      simd::PackedLayout::ForDomains(probe.domain_sizes().data(), d)
          .words_per_row;
  const auto codes = [&](size_t i) { return probe.codes().data() + i * d; };
  enum class Probe { kDiagonal, kResident, kComputed };
  for (const KernelConfig& kc : AllKernels()) {
    for (const Probe kind :
         {Probe::kDiagonal, Probe::kResident, Probe::kComputed}) {
      SCOPED_TRACE(std::string(KernelTypeName(kc.type)) + " probe kind " +
                   std::to_string(static_cast<int>(kind)));
      uint64_t computed = 0;
      const counters::Snapshot start = counters::Read();
      {
        KernelCache cache(CodeMatrix(p.train), kc, BytesForRows(1, n));
        ASSERT_EQ(cache.capacity_rows(), 1u);
        cache.Row(0);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const Probe probe_kind = i == j             ? Probe::kDiagonal
                                     : i == 0 || j == 0 ? Probe::kResident
                                                        : Probe::kComputed;
            if (probe_kind != kind) continue;
            computed += kind == Probe::kComputed;
            ASSERT_EQ(Bits(cache.At(i, j)),
                      Bits(static_cast<float>(
                          KernelEval(kc, codes(i), codes(j), d))))
                << "i=" << i << " j=" << j;
          }
        }
        EXPECT_EQ(cache.hits(), 0u);
        EXPECT_EQ(cache.misses(), 1u);
      }
      const counters::Snapshot delta = counters::Read() - start;
      EXPECT_EQ(computed, kind == Probe::kComputed ? (n - 1) * (n - 2) : 0u);
      EXPECT_EQ(delta[Counter::kPackedEvals], 2 * n + computed);
      EXPECT_EQ(delta[Counter::kPackedEvalWords], (2 * n + computed) * words);
    }
  }
}

TEST(KernelCacheTest, RestrictActiveComputesOnlyActiveColumns) {
  const SmoProblem p(17);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  ASSERT_GE(n, 12u);
  const KernelConfig kc = AllKernels()[2];
  const std::vector<float> gram =
      test::ComputeGram(kc, probe.codes(), n, probe.num_features());
  KernelCache cache(CodeMatrix(p.train), kc, kUnbounded);

  // A row computed before any restriction is full and stays valid.
  cache.Row(0);
  EXPECT_EQ(cache.misses(), 1u);

  // Restrict to the even indices: a fresh fetch computes exactly those
  // entries (the gram comparison reads only restricted columns — the
  // rest of the buffer is unspecified by contract).
  std::vector<int32_t> evens;
  for (size_t t = 0; t < n; t += 2) evens.push_back(static_cast<int32_t>(t));
  cache.RestrictActive(evens.data(), evens.size());
  const float* partial = cache.Row(2);
  EXPECT_EQ(cache.misses(), 2u);
  for (const int32_t t : evens) {
    ASSERT_EQ(partial[t], gram[2 * n + static_cast<size_t>(t)]) << t;
  }

  // A narrower restriction in the same era is a subset of the computed
  // columns, so the partial row still serves hits.
  std::vector<int32_t> narrower;
  for (size_t t = 2; t < n; t += 4) {
    narrower.push_back(static_cast<int32_t>(t));
  }
  cache.RestrictActive(narrower.data(), narrower.size());
  cache.Row(2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  // Lifting the restriction closes the era: the full row keeps hitting,
  // the partial row recomputes (now fully) on its next fetch.
  cache.ClearActiveRestriction();
  cache.Row(0);
  EXPECT_EQ(cache.hits(), 2u);
  const float* recomputed = cache.Row(2);
  EXPECT_EQ(cache.misses(), 3u);
  for (size_t t = 0; t < n; ++t) {
    ASSERT_EQ(recomputed[t], gram[2 * n + t]) << t;
  }
}

TEST(KernelCacheTest, PeekRowServesOnlyResidentValidRowsWithoutCounting) {
  const SmoProblem p(19);
  const CodeMatrix probe(p.train);
  const size_t n = probe.num_rows();
  ASSERT_GE(n, 6u);
  const KernelConfig kc = AllKernels()[2];
  const std::vector<float> gram =
      test::ComputeGram(kc, probe.codes(), n, probe.num_features());
  KernelCache cache(CodeMatrix(p.train), kc, BytesForRows(2, n));
  auto same_bits = [&](const float* row, size_t i) {
    return std::memcmp(row, gram.data() + i * n, n * sizeof(float)) == 0;
  };

  EXPECT_EQ(cache.PeekRow(0), nullptr);  // never fetched
  cache.Row(0);
  cache.Row(1);
  const uint64_t hits = cache.hits(), misses = cache.misses();
  const float* peek0 = cache.PeekRow(0);
  ASSERT_NE(peek0, nullptr);
  EXPECT_TRUE(same_bits(peek0, 0));
  EXPECT_EQ(peek0, cache.PeekRow(0));
  EXPECT_EQ(cache.hits(), hits);  // peeks never count
  EXPECT_EQ(cache.misses(), misses);

  // Nor do they refresh recency: row 0 is still the LRU victim.
  cache.Row(2);
  EXPECT_FALSE(cache.Cached(0));
  EXPECT_EQ(cache.PeekRow(0), nullptr);  // evicted
  ASSERT_NE(cache.PeekRow(1), nullptr);
  EXPECT_TRUE(same_bits(cache.PeekRow(1), 1));

  // A partial row peeks like Row() within its restriction era (only the
  // restricted entries are specified), and goes stale when the era ends.
  std::vector<int32_t> evens;
  for (size_t t = 0; t < n; t += 2) evens.push_back(static_cast<int32_t>(t));
  cache.RestrictActive(evens.data(), evens.size());
  const float* partial = cache.Row(4);
  const float* peek4 = cache.PeekRow(4);
  EXPECT_EQ(peek4, partial);
  for (const int32_t t : evens) {
    ASSERT_EQ(std::memcmp(&peek4[t], &gram[4 * n + static_cast<size_t>(t)],
                          sizeof(float)),
              0)
        << t;
  }
  cache.ClearActiveRestriction();
  EXPECT_TRUE(cache.Cached(4));
  EXPECT_EQ(cache.PeekRow(4), nullptr);  // stale partial row
  ASSERT_NE(cache.PeekRow(2), nullptr);  // full rows stay valid
  EXPECT_TRUE(same_bits(cache.PeekRow(2), 2));

  test::FullGramRowSource full(gram, n);
  EXPECT_EQ(full.PeekRow(3), gram.data() + 3 * n);
  EXPECT_EQ(full.hits(), 0u);
}

TEST(KernelCacheTest, GlobalTotalsAccumulateOnDestruction) {
  const SmoProblem p(15);
  const counters::Snapshot start = counters::Read();
  {
    KernelCache cache(CodeMatrix(p.train), AllKernels()[2],
                      BytesForRows(2, CodeMatrix(p.train).num_rows()));
    cache.Row(0);
    cache.Row(0);
    cache.Row(1);
    const counters::Snapshot alive = counters::Read() - start;
    EXPECT_EQ(alive[Counter::kKernelCacheHits], 0u);  // flushed at the end
    EXPECT_EQ(alive[Counter::kKernelCacheMisses], 0u);
  }
  const counters::Snapshot d = counters::Read() - start;
  EXPECT_EQ(d[Counter::kKernelCacheHits], 1u);
  EXPECT_EQ(d[Counter::kKernelCacheMisses], 2u);
}

// --------------------------------------------------- HAMLET_SMO_CACHE_MB --

TEST(KernelCacheEnvTest, UnsetUsesDefault) {
  test::ScopedEnvVar env("HAMLET_SMO_CACHE_MB", nullptr);
  EXPECT_EQ(KernelCacheBytesFromEnv(), kDefaultKernelCacheBytes);
}

TEST(KernelCacheEnvTest, PositiveMibParses) {
  test::ScopedEnvVar env("HAMLET_SMO_CACHE_MB", "8");
  EXPECT_EQ(KernelCacheBytesFromEnv(), size_t{8} << 20);
}

TEST(KernelCacheEnvTest, GarbageAndZeroFallBackToDefault) {
  // Digits only: strtoull used to read "+8" and " 8" as 8 MiB, and
  // negate "-18446744073709551608" into 8 MiB.
  for (const char* bad : {"abc", "0", "-3", "12MB", "", "+8", " 8", "8 ",
                          "-18446744073709551608"}) {
    test::ScopedEnvVar env("HAMLET_SMO_CACHE_MB", bad);
    EXPECT_EQ(KernelCacheBytesFromEnv(), kDefaultKernelCacheBytes)
        << "value \"" << bad << "\"";
  }
}

// ------------------------------------------------------------- SMO parity --

/// The cached solver must be bit-identical to the full-Gram adapter:
/// same alpha bits, same bias, same iteration count, same support-vector
/// set, at every cache size — because the solver copies row i into
/// position order before fetching row j, never branches on cache
/// residency, and the cache serves
/// ComputeGram-identical floats (partial rows included: the restricted
/// entries are the only ones read).
TEST(SmoCacheParityTest, SolutionBitIdenticalAtAllCacheSizes) {
  const SmoProblem p(21);
  SmoConfig cfg;
  cfg.C = 5.0;
  for (const KernelConfig& kc : AllKernels()) {
    const CodeMatrix m(p.train);
    const size_t n = m.num_rows();
    const std::vector<float> gram =
        test::ComputeGram(kc, m.codes(), n, m.num_features());
    test::FullGramRowSource gram_rows(gram, n);
    const counters::Snapshot base_start = counters::Read();
    const Result<SmoSolution> base = SolveSmo(gram_rows, p.y, cfg);
    const counters::Snapshot base_work = counters::Read() - base_start;
    ASSERT_TRUE(base.ok());
    ASSERT_GT(base.value().num_support_vectors, 0u);

    for (size_t cache_bytes :
         {BytesForRows(1, n), BytesForRows(2, n), kUnbounded}) {
      KernelCache cache(CodeMatrix(p.train), kc, cache_bytes);
      const counters::Snapshot start = counters::Read();
      const Result<SmoSolution> cached = SolveSmo(cache, p.y, cfg);
      const counters::Snapshot work = counters::Read() - start;
      ASSERT_TRUE(cached.ok());
      const SmoSolution& a = base.value();
      const SmoSolution& b = cached.value();
      EXPECT_EQ(a.alpha, b.alpha) << KernelTypeName(kc.type);  // bitwise
      EXPECT_EQ(a.bias, b.bias) << KernelTypeName(kc.type);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.converged, b.converged);
      EXPECT_EQ(a.num_support_vectors, b.num_support_vectors);
      for (Counter c : {Counter::kSmoIterations, Counter::kSmoShrinks,
                        Counter::kSmoUnshrinks}) {
        EXPECT_EQ(base_work[c], work[c]) << static_cast<size_t>(c);
      }
      // Identical iterate sequences fetch identical row sequences: the
      // adapter counts every fetch as a hit, the cache splits the same
      // total into hits + misses.
      EXPECT_EQ(gram_rows.hits(), cache.hits() + cache.misses());
      EXPECT_GT(cache.misses(), 0u);
    }
  }
}

/// Exhausting the iteration budget while the active set is shrunk must
/// not hand the caller-owned source back with the restriction still
/// installed: a later solve on the SAME cache has to see fully valid
/// rows again (stale partial slots recompute via the era bump), and so
/// must be bit-identical to a solve on a fresh cache.
TEST(SmoCacheParityTest, BudgetExhaustedWhileShrunkLeavesSourceReusable) {
  const SmoProblem p(24);
  const CodeMatrix probe(p.train);
  const KernelConfig kc = AllKernels()[2];
  SmoConfig starved;
  starved.C = 5.0;
  starved.tolerance = 1e-6;  // prolong the solve past the shrink pass
  starved.max_iterations = probe.num_rows() + 10;

  KernelCache cache(CodeMatrix(p.train), kc, kUnbounded);
  const counters::Snapshot start = counters::Read();
  const Result<SmoSolution> aborted = SolveSmo(cache, p.y, starved);
  const counters::Snapshot work = counters::Read() - start;
  ASSERT_TRUE(aborted.ok());
  // Precondition for the scenario: a shrink happened and was never
  // undone, so the abort fired while the active set was restricted.
  ASSERT_GT(work[Counter::kSmoShrinks], 0u);
  ASSERT_EQ(work[Counter::kSmoUnshrinks], 0u);
  ASSERT_FALSE(aborted.value().converged);

  SmoConfig full = starved;
  full.max_iterations = 200000;
  const Result<SmoSolution> reused = SolveSmo(cache, p.y, full);
  ASSERT_TRUE(reused.ok());
  KernelCache fresh(CodeMatrix(p.train), kc, kUnbounded);
  const Result<SmoSolution> baseline = SolveSmo(fresh, p.y, full);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(reused.value().alpha, baseline.value().alpha);  // bitwise
  EXPECT_EQ(reused.value().bias, baseline.value().bias);
  EXPECT_EQ(reused.value().iterations, baseline.value().iterations);
}

/// Forwards every call to a row source and remembers the active
/// restriction each ClearActiveRestriction lifts, so a test can read the
/// inactive set a solve left behind.
class RestrictionSpy : public KernelRowSource {
 public:
  explicit RestrictionSpy(KernelRowSource& inner) : inner_(inner) {}

  const float* Row(size_t i) override {
    ++rows_since_clear_;
    return inner_.Row(i);
  }
  float At(size_t i, size_t j) const override { return inner_.At(i, j); }
  const float* PeekRow(size_t i) const override { return inner_.PeekRow(i); }
  const float* Diag() const override { return inner_.Diag(); }
  size_t size() const override { return inner_.size(); }
  void RestrictActive(const int32_t* indices, size_t count) override {
    restriction_.assign(indices, indices + count);
    inner_.RestrictActive(indices, count);
  }
  void ClearActiveRestriction() override {
    lifted_ = restriction_;
    restriction_.clear();
    rows_since_clear_ = 0;
    inner_.ClearActiveRestriction();
  }

  /// True when the last call was a ClearActiveRestriction that lifted a
  /// restriction: the solve returned while shrunk, with lifted() active.
  bool EndedShrunk() const {
    return !lifted_.empty() && rows_since_clear_ == 0;
  }
  const std::vector<int32_t>& lifted() const { return lifted_; }

 private:
  KernelRowSource& inner_;
  std::vector<int32_t> restriction_;
  std::vector<int32_t> lifted_;
  size_t rows_since_clear_ = 0;
};

/// The compacted gradient reconstruction (ml::ReconstructErrors, which
/// Unshrink runs) against the all-t loop it replaced
/// (test::ReconstructErrorsAllT). SolveSmo is deterministic, so a solve
/// cut at max_iterations = m returns the iterate the uncut solve starts
/// iteration m from; where that solve returns shrunk, its alpha, bias and
/// inactive set are the input an unshrink at iteration m reconstructs
/// from. At every such m of seeded solves that shrink and unshrink, on a
/// 1-row and a default-budget cache warmed alike, the two must give
/// every inactive point the same error bits and the same cache hit and
/// miss deltas (the same Row sequence).
TEST(SmoUnshrinkOracleTest, CompactedReconstructionMatchesAllTLoop) {
  test::ScopedEnvVar default_budget("HAMLET_SMO_CACHE_MB", nullptr);
  size_t checked = 0;
  for (const uint64_t seed : {24u, 31u}) {
    const SmoProblem p(seed);
    const size_t n = p.y.size();
    for (const KernelConfig& kc : {AllKernels()[0], AllKernels()[2]}) {
      SCOPED_TRACE(std::string(KernelTypeName(kc.type)) +
                   " seed=" + std::to_string(seed));
      SmoConfig cfg;
      cfg.C = 5.0;
      cfg.tolerance = 1e-6;  // prolong the solve past several shrinks
      KernelCache full_cache(CodeMatrix(p.train), kc, 0);
      const counters::Snapshot start = counters::Read();
      const Result<SmoSolution> full = SolveSmo(full_cache, p.y, cfg);
      const counters::Snapshot work = counters::Read() - start;
      ASSERT_TRUE(full.ok());
      ASSERT_GT(work[Counter::kSmoShrinks], 0u);
      ASSERT_GT(work[Counter::kSmoUnshrinks], 0u);

      size_t shrunk_exits = 0;
      for (size_t m = 1; m <= full.value().iterations; ++m) {
        KernelCache cache(CodeMatrix(p.train), kc, kUnbounded);
        RestrictionSpy spy(cache);
        SmoConfig cut = cfg;
        cut.max_iterations = m;
        const Result<SmoSolution> sol = SolveSmo(spy, p.y, cut);
        ASSERT_TRUE(sol.ok());
        if (!spy.EndedShrunk()) continue;
        ++shrunk_exits;
        const std::vector<double>& alpha = sol.value().alpha;
        std::vector<uint8_t> is_inactive(n, 1);
        for (const int32_t t : spy.lifted()) is_inactive[t] = 0;
        std::vector<int32_t> inactive;
        for (size_t t = 0; t < n; ++t) {
          if (is_inactive[t]) inactive.push_back(static_cast<int32_t>(t));
        }
        ASSERT_FALSE(inactive.empty());
        size_t first_sv = 0;
        while (alpha[first_sv] == 0.0) ++first_sv;

        for (const size_t budget : {BytesForRows(1, n), size_t{0}}) {
          // Both caches start holding the first support vector's row, so
          // a reconstruction that fetches rows in another order shows up
          // in the 1-row cache's hits.
          KernelCache compact_rows(CodeMatrix(p.train), kc, budget);
          KernelCache oracle_rows(CodeMatrix(p.train), kc, budget);
          compact_rows.Row(first_sv);
          oracle_rows.Row(first_sv);
          std::vector<double> compact(inactive.size());
          ReconstructErrors(compact_rows, p.y, alpha, sol.value().bias,
                            inactive.data(), inactive.size(),
                            compact.data());
          const std::vector<double> oracle = test::ReconstructErrorsAllT(
              oracle_rows, p.y, alpha, sol.value().bias, is_inactive);
          for (size_t k = 0; k < inactive.size(); ++k) {
            EXPECT_EQ(Bits(compact[k]),
                      Bits(oracle[static_cast<size_t>(inactive[k])]))
                << "m=" << m << " t=" << inactive[k];
          }
          EXPECT_EQ(compact_rows.hits(), oracle_rows.hits()) << "m=" << m;
          EXPECT_EQ(compact_rows.misses(), oracle_rows.misses())
              << "m=" << m;
        }
      }
      EXPECT_GT(shrunk_exits, 0u);
      checked += shrunk_exits;
    }
  }
  EXPECT_GE(checked, 100u);
}

/// A problem that used to get stuck: a pair update left an alpha a
/// rounding error below C, WSS2 kept selecting a pair that could not
/// move, and the fallback scan burned the whole 5000-iteration budget.
/// With the derived alpha snapped onto its bound the solve converges to
/// the full-problem optimum, and the solution stays bit-identical across
/// the full cache, a 1-row cache and the full Gram matrix.
TEST(SmoStuckPairRegressionTest, SnappedAlphaConvergesOnEverySource) {
  const Dataset data =
      test::MakeParityDataset(240, {6, 4, 2, 5, 3, 2, 4}, 4);
  const test::ParityViews views = test::MakeParityViews(data, 5);
  const CodeMatrix m(views.train);
  const size_t n = m.num_rows();
  std::vector<int8_t> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = m.label(i) == 1 ? 1 : -1;
  const KernelConfig kc{KernelType::kRbf, 0.1, 2};
  const std::vector<float> gram =
      test::ComputeGram(kc, m.codes(), n, m.num_features());

  test::ScopedEnvVar full_budget("HAMLET_SMO_CACHE_MB", "64");
  SmoConfig cfg;
  cfg.C = 1.0;
  cfg.max_iterations = 5000;
  KernelCache full_cache(CodeMatrix(views.train), kc, 0);
  KernelCache one_row(CodeMatrix(views.train), kc, BytesForRows(1, n));
  test::FullGramRowSource full_gram(gram, n);
  ASSERT_EQ(full_cache.capacity_rows(), n);
  ASSERT_EQ(one_row.capacity_rows(), 1u);
  const Result<SmoSolution> reference = SolveSmo(full_cache, y, cfg);
  ASSERT_TRUE(reference.ok());
  const SmoSolution& r = reference.value();
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, cfg.max_iterations);
  EXPECT_LT(test::FullProblemViolation(gram, y, r.alpha, cfg.C),
            cfg.tolerance + 1e-6);
  KernelRowSource* others[] = {&one_row, &full_gram};
  for (KernelRowSource* source : others) {
    const Result<SmoSolution> sol = SolveSmo(*source, y, cfg);
    ASSERT_TRUE(sol.ok());
    const SmoSolution& s = sol.value();
    const std::string where =
        source == &one_row ? "source=one_row" : "source=full_gram";
    EXPECT_EQ(s.alpha, r.alpha) << where;  // bitwise
    EXPECT_EQ(s.bias, r.bias) << where;
    EXPECT_EQ(s.iterations, r.iterations) << where;
    EXPECT_EQ(s.converged, r.converged) << where;
  }
}

/// With the first-order loop gone there is no second solver to compare
/// against; the reference is the solver-independent full-problem KKT
/// check instead. Every solve must converge, and its alpha must be
/// tolerance-optimal on the full problem recomputed from scratch — for
/// all three kernels, with a 1-row cache and an unbounded one.
TEST(SmoOptimalityTest, ConvergesToFullProblemOptimumAcrossKernelsAndCaches) {
  const SmoProblem p(23);
  const CodeMatrix m(p.train);
  const size_t n = m.num_rows();
  SmoConfig cfg;
  cfg.C = 5.0;
  for (const KernelConfig& kc : AllKernels()) {
    const std::vector<float> gram =
        test::ComputeGram(kc, m.codes(), n, m.num_features());
    for (size_t cache_bytes : {BytesForRows(1, n), kUnbounded}) {
      KernelCache cache(CodeMatrix(p.train), kc, cache_bytes);
      const Result<SmoSolution> sol = SolveSmo(cache, p.y, cfg);
      ASSERT_TRUE(sol.ok());
      const std::string where = std::string(KernelTypeName(kc.type)) +
                                " cache_bytes=" + std::to_string(cache_bytes);
      EXPECT_TRUE(sol.value().converged) << where;
      EXPECT_GT(sol.value().iterations, 0u) << where;
      // Small slack for the float drift between the solver's incremental
      // error cache and the from-scratch recomputation.
      EXPECT_LT(test::FullProblemViolation(gram, p.y, sol.value().alpha,
                                           cfg.C),
                cfg.tolerance + 1e-6)
          << where;
    }
  }
}

/// End-to-end through KernelSvm: predictions, support-vector count and
/// accuracy must agree bitwise between a 1-row cache, a 2-row cache and
/// the default budget, at HAMLET_THREADS=1 and 4 (PredictAll fans rows
/// out over the pool), for all three kernels.
TEST(SmoCacheParityTest, KernelSvmBitIdenticalAcrossCacheSizesAndThreads) {
  const SmoProblem p(22);
  const CodeMatrix m(p.train);
  const size_t n = m.num_rows();
  for (const KernelConfig& kc : AllKernels()) {
    std::vector<uint8_t> reference_preds;
    double reference_acc = 0.0;
    for (const char* threads : {"1", "4"}) {
      test::ScopedThreads scoped(threads);
      std::vector<std::vector<uint8_t>> all_preds;
      for (size_t cache_bytes :
           {BytesForRows(1, n), BytesForRows(2, n), size_t{0}}) {
        SvmConfig cfg;
        cfg.kernel = kc;
        cfg.C = 5.0;
        cfg.smo_cache_bytes = cache_bytes;
        KernelSvm svm(cfg);
        const counters::Snapshot start = counters::Read();
        ASSERT_TRUE(svm.Fit(p.train).ok());
        const counters::Snapshot fit = counters::Read() - start;
        EXPECT_GT(svm.num_support_vectors(), 0u);
        all_preds.push_back(svm.PredictAll(p.test));
        if (cache_bytes == BytesForRows(1, n)) {
          // The tightest cache recomputes constantly; the looser ones
          // must see strictly fewer misses for the same fetch sequence.
          EXPECT_GT(fit[Counter::kKernelCacheMisses], 0u);
        }
        const double acc = Accuracy(svm, p.test);
        if (reference_preds.empty()) {
          reference_preds = all_preds.back();
          reference_acc = acc;
        } else {
          EXPECT_EQ(all_preds.back(), reference_preds)
              << KernelTypeName(kc.type) << " threads=" << threads
              << " cache_bytes=" << cache_bytes;
          EXPECT_DOUBLE_EQ(acc, reference_acc);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
