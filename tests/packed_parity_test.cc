// Parity harness for the packed-code hot loops.
//
// The contract under test: simd::PackedMatchCounts and both routines the
// CPU can select behind it — hardware popcount and the portable SWAR
// fallback — return the definitional integer count for every input, over
// a slab and over an index list, whichever of them this host's dispatch
// picks; the SVM kernel table read at a packed match count gives the
// scalar KernelEval's bits; and every learner family fits and predicts
// bit-identically at any thread count.
// The NB and tree counting helpers must equal their plain row-order
// loops. Plus the PackedCodeMatrix layout/round-trip/bounds edge cases
// and the pinned 1-NN block-scan + tie-break semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hamlet/common/counters.h"
#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/simd/simd.h"
#include "hamlet/simd/simd_native.h"
#include "parity_util.h"

namespace hamlet {
namespace test {
namespace {

/// The definitional mismatch count every packed routine must reproduce.
size_t ReferenceMismatch(const uint32_t* a, const uint32_t* b, size_t d) {
  size_t mismatches = 0;
  for (size_t j = 0; j < d; ++j) mismatches += a[j] != b[j];
  return mismatches;
}

/// A match-count routine under test (simd::PackedMatchCounts's
/// signature).
struct BatchRoutine {
  const char* name;
  void (*counts)(const simd::PackedLayout&, const uint64_t*, const uint64_t*,
                 const int32_t*, size_t, uint32_t*);
};

/// The public entry point plus every routine behind it that this host
/// can run, called directly — so the SWAR fallback is covered on a
/// POPCNT host.
std::vector<BatchRoutine> HostBatchRoutines() {
  std::vector<BatchRoutine> routines = {
      {"dispatch", &simd::PackedMatchCounts},
      {"swar", &simd::detail::MatchCountsSwar},
  };
  if (simd::detail::NativeSupported()) {
    routines.push_back({"popcount", &simd::detail::MatchCountsPopcount});
  }
  return routines;
}

/// The bit pattern of a double: EXPECT_EQ on the bits, not the values,
/// is the "same bits" check.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}


/// Random row-major codes for `rows` rows over per-feature domains.
std::vector<uint32_t> RandomCodes(Rng& rng, size_t rows,
                                  const std::vector<uint32_t>& domains) {
  std::vector<uint32_t> codes;
  codes.reserve(rows * domains.size());
  for (size_t i = 0; i < rows; ++i) {
    for (const uint32_t domain : domains) {
      codes.push_back(static_cast<uint32_t>(rng.UniformInt(domain)));
    }
  }
  return codes;
}

/// Dataset with explicit rows, for handcrafted 1-NN fixtures.
Dataset MakeDatasetFromRows(const std::vector<uint32_t>& domains,
                            const std::vector<std::vector<uint32_t>>& rows,
                            const std::vector<uint8_t>& labels) {
  std::vector<FeatureSpec> specs;
  specs.reserve(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    FeatureSpec spec;
    spec.name = "f" + std::to_string(j);
    spec.domain_size = domains[j];
    spec.role = FeatureRole::kHome;
    spec.dim_index = -1;
    specs.push_back(std::move(spec));
  }
  Dataset data(std::move(specs));
  for (size_t i = 0; i < rows.size(); ++i) {
    data.AppendRowUnchecked(rows[i], labels[i]);
  }
  return data;
}

// ---------------------------------------------------------------------
// PackedLayout shape math.

TEST(PackedLayoutTest, FieldGeometryAcrossDomainWidths) {
  // domain 2 -> 1 value bit + guard = 2-bit fields, 32 per word.
  const simd::PackedLayout two = simd::PackedLayout::ForMaxCode(1, 64);
  EXPECT_EQ(two.field_bits, 2u);
  EXPECT_EQ(two.fields_per_word, 32u);
  EXPECT_EQ(two.words_per_row, 2u);

  // domain 9 (max code 8) -> 4 value bits + guard = 5-bit fields.
  const simd::PackedLayout nine = simd::PackedLayout::ForMaxCode(8, 13);
  EXPECT_EQ(nine.field_bits, 5u);
  EXPECT_EQ(nine.fields_per_word, 12u);
  EXPECT_EQ(nine.words_per_row, 2u);

  // Max 32-bit code -> 32 value bits + guard = 33-bit fields, one per
  // word.
  const simd::PackedLayout huge =
      simd::PackedLayout::ForMaxCode(0xFFFFFFFEu, 3);
  EXPECT_EQ(huge.field_bits, 33u);
  EXPECT_EQ(huge.fields_per_word, 1u);
  EXPECT_EQ(huge.words_per_row, 3u);

  // Zero features pack to zero words.
  const simd::PackedLayout empty = simd::PackedLayout::ForMaxCode(5, 0);
  EXPECT_EQ(empty.words_per_row, 0u);

  // Every guard bit sits above its field's value bits.
  for (const auto& layout : {two, nine, huge}) {
    EXPECT_EQ(layout.guard_mask & layout.add_mask, 0u);
    EXPECT_EQ(static_cast<size_t>(64 / layout.field_bits),
              layout.fields_per_word);
  }
}

TEST(PackedLayoutTest, ForDomainsUsesLargestDomain) {
  const std::vector<uint32_t> domains = {2, 17, 3, 9};
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), domains.size());
  // Max code 16 -> 5 value bits + guard.
  EXPECT_EQ(layout.field_bits, 6u);
  EXPECT_EQ(layout.num_features, 4u);
}

// ---------------------------------------------------------------------
// PackedCodeMatrix round trip and edges.

TEST(PackedCodeMatrixTest, RoundTripMatchesCodeMatrix) {
  Rng rng(2024);
  const std::vector<uint32_t> domains = {4, 2, 33, 7, 2, 1000, 3};
  const Dataset data = MakeParityDataset(57, domains, 11);
  const CodeMatrix m((DataView(&data)));
  const PackedCodeMatrix packed(m);
  ASSERT_EQ(packed.num_rows(), m.num_rows());
  for (size_t i = 0; i < m.num_rows(); ++i) {
    for (size_t j = 0; j < m.num_features(); ++j) {
      EXPECT_EQ(packed.code_at(i, j), m.at(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedCodeMatrixTest, ZeroRowAndZeroFeatureBuilds) {
  const simd::PackedLayout layout = simd::PackedLayout::ForMaxCode(3, 5);
  const PackedCodeMatrix no_rows(layout, nullptr, 0);
  EXPECT_EQ(no_rows.num_rows(), 0u);
  EXPECT_EQ(no_rows.num_words(), 0u);

  // Zero features: rows exist but span zero words, and comparisons see
  // zero matches (and zero mismatches).
  const simd::PackedLayout no_features = simd::PackedLayout::ForMaxCode(0, 0);
  const PackedCodeMatrix empty_rows(no_features, nullptr, 2);
  EXPECT_EQ(empty_rows.num_rows(), 2u);
  EXPECT_EQ(empty_rows.num_words(), 0u);
  for (const BatchRoutine& routine : HostBatchRoutines()) {
    std::vector<uint32_t> counts(2, 7);
    routine.counts(no_features, empty_rows.row(0), empty_rows.data(), nullptr,
                   2, counts.data());
    EXPECT_EQ(counts, std::vector<uint32_t>(2, 0)) << routine.name;
  }
}

#if !defined(NDEBUG) || defined(HAMLET_CHECK_BOUNDS)
TEST(PackedCodeMatrixDeathTest, OutOfBoundsAborts) {
  // Threadsafe style re-executes the binary for the death assertion, so
  // any pool threads other tests spawned don't confuse the forked child.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<uint32_t> domains = {4, 4};
  const Dataset data = MakeParityDataset(3, domains, 5);
  const CodeMatrix m((DataView(&data)));
  const PackedCodeMatrix packed(m);
  EXPECT_DEATH((void)packed.row(3), "out of bounds");
  EXPECT_DEATH((void)packed.code_at(0, 2), "out of bounds");
}
#else
TEST(PackedCodeMatrixDeathTest, OutOfBoundsAborts) {
  GTEST_SKIP() << "bounds checks compiled out (NDEBUG without "
                  "HAMLET_CHECK_BOUNDS)";
}
#endif

// ---------------------------------------------------------------------
// Every word routine against the definitional count.

TEST(PackedPrimitiveParity, MismatchCountsAgreeAcrossShapes) {
  Rng rng(77);
  // Shapes stress the layout edges: no features, one feature, feature
  // counts that are not a multiple of the word lane count, a single row,
  // max-domain codes (one 33-bit field per word), and long rows of 9 and
  // 23 words. Every row is a query against the whole slab and against
  // the ascending index list of the even rows.
  const std::vector<std::pair<size_t, std::vector<uint32_t>>> shapes = {
      {3, {}},
      {6, std::vector<uint32_t>(1, 2)},
      {9, {2, 3, 5, 2, 9, 4, 2}},
      {1, {17, 3, 3, 8, 2}},
      {5, {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}},
      {4, {0xFFFFFFFFu, 0xFFFFFFFFu, 7}},
      {3, std::vector<uint32_t>(300, 2)},
      {3, std::vector<uint32_t>(517, 23)},
  };
  for (const auto& [rows, domains] : shapes) {
    const size_t d = domains.size();
    std::vector<uint32_t> codes = RandomCodes(rng, rows, domains);
    const simd::PackedLayout layout =
        simd::PackedLayout::ForDomains(domains.data(), d);
    const PackedCodeMatrix packed(layout, codes.data(), rows);
    std::vector<int32_t> even;
    for (size_t j = 0; j < rows; j += 2) even.push_back(static_cast<int32_t>(j));
    for (const BatchRoutine& routine : HostBatchRoutines()) {
      for (const bool indexed : {false, true}) {
        const size_t n = indexed ? even.size() : rows;
        for (size_t i = 0; i < rows; ++i) {
          std::vector<uint32_t> counts(n);
          routine.counts(layout, packed.row(i), packed.data(),
                         indexed ? even.data() : nullptr, n, counts.data());
          for (size_t k = 0; k < n; ++k) {
            const size_t j = indexed ? static_cast<size_t>(even[k]) : k;
            EXPECT_EQ(counts[k], d - ReferenceMismatch(codes.data() + i * d,
                                                       codes.data() + j * d,
                                                       d))
                << "d=" << d << " routine=" << routine.name
                << (indexed ? " indexed" : " slab") << " i=" << i
                << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(PackedPrimitiveParity, AllEqualRowsHaveZeroMismatches) {
  const std::vector<uint32_t> domains = {5, 9, 2, 1000};
  std::vector<uint32_t> codes;
  for (size_t i = 0; i < 4; ++i) {
    codes.insert(codes.end(), {4, 8, 1, 999});
  }
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), domains.size());
  const PackedCodeMatrix packed(layout, codes.data(), 4);
  for (const BatchRoutine& routine : HostBatchRoutines()) {
    std::vector<uint32_t> counts(4);
    routine.counts(layout, packed.row(0), packed.data(), nullptr, 4,
                   counts.data());
    EXPECT_EQ(counts, std::vector<uint32_t>(4, domains.size()))
        << routine.name;
  }
}

TEST(PackedPrimitiveParity, KernelValuesBitIdentical) {
  Rng rng(404);
  const std::vector<uint32_t> domains = {4, 23, 2, 7, 9, 2, 61, 3};
  const size_t d = domains.size();
  const size_t rows = 12;
  const std::vector<uint32_t> codes = RandomCodes(rng, rows, domains);
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), d);
  const PackedCodeMatrix packed(layout, codes.data(), rows);

  std::vector<ml::KernelConfig> configs(3);
  configs[0].type = ml::KernelType::kLinear;
  configs[1].type = ml::KernelType::kPoly;
  configs[1].gamma = 0.3;
  configs[1].degree = 2;
  configs[2].type = ml::KernelType::kRbf;
  configs[2].gamma = 0.07;

  for (const ml::KernelConfig& config : configs) {
    const std::vector<double> table = ml::KernelValuesByMatches(config, d);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<uint32_t> matches(rows);
      simd::PackedMatchCounts(layout, packed.row(i), packed.data(), nullptr,
                              rows, matches.data());
      for (size_t j = 0; j < rows; ++j) {
        const double scalar_value =
            ml::KernelEval(config, codes.data() + i * d, codes.data() + j * d, d);
        // Bits, not NEAR: the table and KernelEval share the kernel float
        // math, so equal match counts must give the same bits.
        EXPECT_EQ(Bits(table[matches[j]]), Bits(scalar_value))
            << ml::KernelTypeName(config.type);
      }
    }
  }
}

TEST(PackedPrimitiveParity, KernelTableCoversEveryMatchCount) {
  std::vector<ml::KernelConfig> configs;
  ml::KernelConfig linear;
  linear.type = ml::KernelType::kLinear;
  configs.push_back(linear);
  for (int degree = 1; degree <= ml::kMaxKernelDegree; ++degree) {
    ml::KernelConfig poly;
    poly.type = ml::KernelType::kPoly;
    poly.gamma = 0.3;
    poly.degree = degree;
    configs.push_back(poly);
  }
  ml::KernelConfig rbf;
  rbf.type = ml::KernelType::kRbf;
  rbf.gamma = 0.07;
  configs.push_back(rbf);
  // exp(-2 * gamma) is already below the smallest subnormal, so every
  // entry but the full match underflows to exactly 0.
  ml::KernelConfig rbf_underflow = rbf;
  rbf_underflow.gamma = 1000.0;
  configs.push_back(rbf_underflow);

  for (const size_t d : {size_t{1}, size_t{7}, size_t{64}, size_t{257}}) {
    for (const ml::KernelConfig& config : configs) {
      SCOPED_TRACE(std::string(ml::KernelTypeName(config.type)) +
                   " degree=" + std::to_string(config.degree) +
                   " gamma=" + std::to_string(config.gamma) +
                   " d=" + std::to_string(d));
      const std::vector<double> table = ml::KernelValuesByMatches(config, d);
      ASSERT_EQ(table.size(), d + 1);
      // A pair with exactly m matches: equal codes on the first m
      // features, different on the rest.
      const std::vector<uint32_t> a(d, 0);
      for (size_t m = 0; m <= d; ++m) {
        std::vector<uint32_t> b(d, 0);
        for (size_t j = m; j < d; ++j) b[j] = 1;
        EXPECT_EQ(Bits(table[m]),
                  Bits(ml::KernelEval(config, a.data(), b.data(), d)))
            << "m=" << m;
      }
      if (config.type == ml::KernelType::kPoly) continue;
      EXPECT_EQ(table[d], 1.0);
      if (config.type == ml::KernelType::kLinear) {
        EXPECT_EQ(table[0], 0.0);
      }
      if (config.gamma == rbf_underflow.gamma) {
        for (size_t m = 0; m < d; ++m) EXPECT_EQ(Bits(table[m]), Bits(0.0));
      }
    }
  }
}

TEST(PackedPrimitiveParity, BatchedMatchCountsMatchPerPairCounts) {
  Rng rng(58);
  constexpr uint32_t kUntouched = 0xDEADBEEFu;
  // Rows of 1 and 2 words take the straight-line loops, 3, 8 and 9 words
  // the per-word loop, each with and without an index list. Domain 2
  // packs 32 two-bit fields per word, 6 packs 16 four-bit fields and 200
  // packs 7 nine-bit fields; a full last word and one with padding
  // fields are both in play.
  for (const uint32_t domain : {2u, 6u, 200u}) {
    const size_t fields = 64 / simd::PackedLayout::ForMaxCode(domain - 1, 1)
                                   .field_bits;
    for (const size_t words : {1, 2, 3, 8, 9}) {
      for (const size_t padding : {size_t{0}, fields / 2}) {
        const std::vector<uint32_t> domains(fields * words - padding, domain);
        const size_t d = domains.size();
        const simd::PackedLayout layout =
            simd::PackedLayout::ForDomains(domains.data(), d);
        ASSERT_EQ(layout.fields_per_word, fields);
        ASSERT_EQ(layout.words_per_row, words);
        for (const size_t n : {0, 1, 3, 17}) {
          // A slab of 2n + 1 rows: the slab form counts its first n
          // rows, the index-list form the odd rows 1, 3, ..., 2n - 1.
          const size_t slab_rows = 2 * n + 1;
          const std::vector<uint32_t> codes =
              RandomCodes(rng, slab_rows, domains);
          const PackedCodeMatrix slab(layout, codes.data(), slab_rows);
          // The query repeats slab row 0 with a few fields changed, so
          // the counts range from all-but-a-few to chance matches.
          std::vector<uint32_t> query_codes(codes.begin(),
                                            codes.begin() + d);
          for (size_t j = 0; j < d; j += 5) {
            query_codes[j] = (query_codes[j] + 1) % domain;
          }
          std::vector<uint64_t> query(words);
          layout.PackRow(query_codes.data(), query.data());
          std::vector<int32_t> odd(n);
          for (size_t k = 0; k < n; ++k) {
            odd[k] = static_cast<int32_t>(2 * k + 1);
          }

          for (const BatchRoutine& routine : HostBatchRoutines()) {
            for (const bool indexed : {false, true}) {
              SCOPED_TRACE(std::string(routine.name) +
                           (indexed ? " indexed" : " slab") +
                           " domain=" + std::to_string(domain) +
                           " words=" + std::to_string(words) +
                           " d=" + std::to_string(d) +
                           " n=" + std::to_string(n));
              // One spare entry past n must stay untouched; the rest
              // start non-zero so a routine that accumulates instead of
              // overwriting fails.
              std::vector<uint32_t> counts(n + 1, kUntouched);
              routine.counts(layout, query.data(), slab.data(),
                             indexed ? odd.data() : nullptr, n,
                             counts.data());
              for (size_t k = 0; k < n; ++k) {
                const size_t r = indexed ? 2 * k + 1 : k;
                EXPECT_EQ(counts[k],
                          d - ReferenceMismatch(query_codes.data(),
                                                codes.data() + r * d, d))
                    << "k=" << k;
              }
              EXPECT_EQ(counts[n], kUntouched);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// NB and tree counting against plain row-order loops.

TEST(PackedPrimitiveParity, CodeLabelCountsMatchRowOrderLoop) {
  Rng rng(515);
  const std::vector<uint32_t> domains = {3, 1, 7, 2, 12};
  const size_t d = domains.size();
  std::vector<size_t> offsets(d + 1, 0);
  for (size_t j = 0; j < d; ++j) offsets[j + 1] = offsets[j] + 2 * domains[j];
  // Row counts on both sides of the lane split's minimum, with tails
  // that are not a multiple of the lane count.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{15},
                         size_t{16}, size_t{17}, size_t{38}}) {
    const std::vector<uint32_t> codes = RandomCodes(rng, n, domains);
    std::vector<uint8_t> labels(n);
    for (auto& label : labels) label = static_cast<uint8_t>(rng.Bernoulli(0.4));
    // Both buffers start non-zero: the routine adds to what is there.
    std::vector<uint32_t> expected(offsets[d]);
    for (size_t k = 0; k < expected.size(); ++k) {
      expected[k] = static_cast<uint32_t>(k % 5);
    }
    std::vector<uint32_t> counts = expected;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        ++expected[offsets[j] + codes[i * d + j] * 2 + labels[i]];
      }
    }
    simd::CountCodeLabelPairs(codes.data(), labels.data(), n, d,
                              offsets.data(), counts.data());
    EXPECT_EQ(counts, expected) << "n=" << n;
  }
}

TEST(PackedPrimitiveParity, SplitStatsScanMatchesRowOrderLoop) {
  Rng rng(616);
  const std::vector<uint32_t> domains = {5, 9, 2};
  const size_t d = domains.size();
  const size_t rows = 40;
  const std::vector<uint32_t> codes = RandomCodes(rng, rows, domains);
  std::vector<uint8_t> labels(rows);
  for (auto& label : labels) label = static_cast<uint8_t>(rng.Bernoulli(0.5));
  for (size_t feature = 0; feature < d; ++feature) {
    // Node row subsets in scrambled order, with lengths that leave every
    // possible tail after the four-row unroll.
    for (const size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{6},
                           size_t{7}, size_t{29}}) {
      std::vector<uint32_t> row_ids(n);
      for (auto& id : row_ids) id = static_cast<uint32_t>(rng.UniformInt(rows));
      const uint32_t domain = domains[feature];
      std::vector<uint32_t> expected_count(domain, 0), expected_pos(domain, 0);
      std::vector<uint32_t> expected_touched;
      for (const uint32_t r : row_ids) {
        const uint32_t c = codes[r * d + feature];
        if (expected_count[c] == 0) expected_touched.push_back(c);
        ++expected_count[c];
        expected_pos[c] += labels[r];
      }
      std::vector<uint32_t> count(domain, 0), pos(domain, 0), touched;
      simd::SplitStatsScan(codes.data(), d, labels.data(), row_ids.data(), n,
                           feature, count.data(), pos.data(), touched);
      EXPECT_EQ(count, expected_count) << "feature=" << feature << " n=" << n;
      EXPECT_EQ(pos, expected_pos) << "feature=" << feature << " n=" << n;
      EXPECT_EQ(touched, expected_touched)
          << "feature=" << feature << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------
// Pinned 1-NN semantics under packing.

TEST(PackedOneNnSemantics, TieBreaksToLowestIndex) {
  // Rows 1 and 3 are identical; both are nearest to the query. The scan
  // must return index 1 at every thread count.
  const std::vector<uint32_t> domains = {4, 4, 4};
  const Dataset data = MakeDatasetFromRows(
      domains,
      {{0, 0, 0}, {2, 1, 3}, {3, 3, 3}, {2, 1, 3}, {2, 1, 0}},
      {0, 1, 0, 1, 0});
  for (const char* threads : {"1", "4"}) {
    ScopedThreads threads_env(threads);
    ml::OneNearestNeighbor model;
    ASSERT_TRUE(model.Fit(DataView(&data)).ok());
    const uint32_t query[] = {2, 1, 3};
    EXPECT_EQ(model.NearestIndexOfCodes(query), 1u) << threads;
    // A query matching row 0 exactly must short-circuit to index 0 even
    // though later rows tie at distance 0.
    const uint32_t zero_query[] = {0, 0, 0};
    EXPECT_EQ(model.NearestIndexOfCodes(zero_query), 0u) << threads;
  }
}

/// The first training row at the least Hamming distance from `query`:
/// the exhaustive scalar scan the packed 1-NN scan must reproduce.
size_t BruteForceNearest(const std::vector<std::vector<uint32_t>>& rows,
                         const std::vector<uint32_t>& query) {
  size_t best = 0;
  size_t best_dist = query.size() + 1;
  for (size_t r = 0; r < rows.size(); ++r) {
    const size_t dist =
        ReferenceMismatch(rows[r].data(), query.data(), query.size());
    if (dist < best_dist) {
      best_dist = dist;
      best = r;
    }
  }
  return best;
}

TEST(PackedOneNnSemantics, EarlyExitMatchesBruteForceScan) {
  // The packed scan counts the training rows in blocks and stops after
  // the block holding the first exact match; the winner (and its
  // tie-break toward the earliest row) must still match an exhaustive
  // argmin at every thread count.
  const std::vector<uint32_t> domains = {6, 6, 3, 9, 2, 17, 4, 6, 2, 5,
                                         3, 7, 2};
  const size_t d = domains.size();
  const auto random_row = [&](Rng& rng) {
    std::vector<uint32_t> row(d);
    for (size_t j = 0; j < d; ++j) {
      row[j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
    }
    return row;
  };
  // `row` with its first k features moved to another code: a row at
  // Hamming distance exactly k from it.
  const auto moved = [&](std::vector<uint32_t> row, size_t k) {
    for (size_t j = 0; j < k; ++j) row[j] = (row[j] + 1) % domains[j];
    return row;
  };
  const auto expect_brute_force =
      [&](const std::vector<std::vector<uint32_t>>& rows,
          const std::vector<std::vector<uint32_t>>& queries,
          const std::string& what) {
        const std::vector<uint8_t> labels(rows.size(), 0);
        const Dataset data = MakeDatasetFromRows(domains, rows, labels);
        for (const char* threads : {"1", "4"}) {
          ScopedThreads threads_env(threads);
          ml::OneNearestNeighbor model;
          ASSERT_TRUE(model.Fit(DataView(&data)).ok());
          for (size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(model.NearestIndexOfCodes(queries[q].data()),
                      BruteForceNearest(rows, queries[q]))
                << what << " n=" << rows.size() << " threads=" << threads
                << " query=" << q;
          }
        }
      };

  // Random rows and queries, a cloned row (a duplicate-distance tie),
  // and some queries that coincide with training rows (distance 0).
  {
    Rng rng(909);
    std::vector<std::vector<uint32_t>> rows(64);
    for (auto& row : rows) row = random_row(rng);
    rows[40] = rows[7];
    Rng query_rng(4242);
    std::vector<std::vector<uint32_t>> queries(48);
    for (size_t q = 0; q < queries.size(); ++q) {
      queries[q] = random_row(query_rng);
      if (q % 8 == 0) queries[q] = rows[q % rows.size()];
    }
    expect_brute_force(rows, queries, "random");
  }

  // Block edges. The scan counts kBlock training rows per call; training
  // sets of one row, a block less one, a block, a block plus one and two
  // blocks plus one put exact copies, pairs of copies and near-ties on
  // either side of every boundary.
  constexpr size_t kBlock = 256;
  for (const size_t n : {size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                         2 * kBlock + 1}) {
    Rng rng(1000 + n);
    const std::vector<uint32_t> query = random_row(rng);
    // Every background row is at least 4 features from the query, so
    // the placed rows below decide the answer.
    std::vector<std::vector<uint32_t>> base(n);
    for (auto& row : base) {
      row = random_row(rng);
      for (size_t j = d - 4; j < d; ++j) {
        row[j] = (query[j] + 1) % domains[j];
      }
    }
    std::vector<size_t> edges;
    for (const size_t r : {size_t{0}, kBlock - 1, kBlock, kBlock + 1, n - 1}) {
      if (r < n && (edges.empty() || edges.back() < r)) edges.push_back(r);
    }
    // One exact copy at each edge, with a near-tie (distance 1) in the
    // rows before it.
    for (const size_t r : edges) {
      auto rows = base;
      rows[r] = query;
      if (r > 0) rows[r / 2] = moved(query, 1);
      expect_brute_force(rows, {query},
                         "exact copy at row " + std::to_string(r));
    }
    // Two exact copies in different blocks: the first wins.
    for (size_t a = 0; a < edges.size(); ++a) {
      for (size_t b = a + 1; b < edges.size(); ++b) {
        if (edges[a] / kBlock == edges[b] / kBlock) continue;
        auto rows = base;
        rows[edges[a]] = query;
        rows[edges[b]] = query;
        expect_brute_force(rows, {query},
                           "exact copies at rows " + std::to_string(edges[a]) +
                               " and " + std::to_string(edges[b]));
      }
    }
    // Near-ties with no exact match: distance-1 rows at every edge (the
    // first wins), then a distance-2 row at the first edge and
    // distance-1 rows at the later ones (the second edge wins).
    {
      auto rows = base;
      for (const size_t r : edges) rows[r] = moved(query, 1);
      expect_brute_force(rows, {query}, "distance-1 ties");
      rows[edges[0]] = moved(query, 2);
      expect_brute_force(rows, {query}, "distance-2 then distance-1 ties");
    }
  }
}

// ---------------------------------------------------------------------
// The backend report follows the CPU.

TEST(SimdBackendTest, ReportsTheCpuPopcount) {
  const simd::Backend backend = simd::ActiveBackend();
  EXPECT_EQ(backend == simd::Backend::kNative,
            simd::detail::NativeSupported());
  EXPECT_STREQ(simd::BackendName(simd::Backend::kNative), "native");
  EXPECT_STREQ(simd::BackendName(simd::Backend::kSwar), "swar");
}

// ---------------------------------------------------------------------
// Packed stats plumbing.

TEST(PackedStatsTest, CountersAccumulate) {
  using counters::Counter;
  const std::vector<uint32_t> domains = {4, 9, 3};
  const Dataset data = MakeParityDataset(40, domains, 21);
  const ParityViews views = MakeParityViews(data, 3);

  const counters::Snapshot start = counters::Read();
  ml::OneNearestNeighbor model;
  ASSERT_TRUE(model.Fit(views.train).ok());
  (void)model.PredictAll(views.test);
  const counters::Snapshot d = counters::Read() - start;
  EXPECT_GE(d[Counter::kPackedBuilds], 1u);
  EXPECT_GE(d[Counter::kPackedRows], views.train.num_rows());
  EXPECT_GT(d[Counter::kPackedBuildWords], 0u);
  // Every test query scanned the packed training rows.
  EXPECT_GE(d[Counter::kPackedEvals],
            views.test.num_rows() * views.train.num_rows());
  EXPECT_GT(d[Counter::kPackedEvalWords], 0u);
}

// ---------------------------------------------------------------------
// Every learner family, multiple thread counts.

TEST(PackedBackendParity, LearnersBitIdenticalAcrossThreads) {
  const std::vector<uint32_t> domains = {4, 9, 3, 17, 2, 33, 5};
  const Dataset data = MakeParityDataset(180, domains, 0xBADC0DE);
  const ParityViews views = MakeParityViews(data, 99);

  for (const ParityLearner& learner : ParityLearners()) {
    std::vector<uint8_t> baseline;
    bool have_baseline = false;
    for (const char* threads : {"1", "2", "4"}) {
      ScopedThreads threads_env(threads);
      auto model = learner.make();
      ASSERT_TRUE(model->Fit(views.train).ok()) << learner.name;
      const std::vector<uint8_t> predictions =
          ExpectPredictParity(*model, views.test);
      if (!have_baseline) {
        baseline = predictions;
        have_baseline = true;
      } else {
        EXPECT_EQ(predictions, baseline)
            << learner.name << " diverges at threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace test
}  // namespace hamlet
