// Tests for hamlet/common: env knobs, the work-counter registry,
// Status/Result, RNG, string helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <string>

#include "hamlet/common/counters.h"
#include "hamlet/common/crc32.h"
#include "hamlet/common/env.h"
#include "hamlet/common/rng.h"
#include "hamlet/common/status.h"
#include "hamlet/common/stringx.h"
#include "hamlet/ml/svm/kernel_cache.h"
#include "hamlet/simd/simd.h"
#include "parity_util.h"

namespace hamlet {
namespace {

// ------------------------------------------------------------------- env --

// The warned-about set is process-wide, so every test below reads its
// own variable names, which no other test (and no knob) uses.

using test::ScopedEnvVar;

/// UnsignedFromEnv(name, lo, hi) with `name` set to `value` (nullptr
/// unsets it); the stderr it prints goes to `warning`.
std::optional<uint64_t> ReadUnsigned(const char* name, const char* value,
                                     uint64_t lo, uint64_t hi,
                                     std::string* warning = nullptr) {
  ScopedEnvVar env(name, value);
  testing::internal::CaptureStderr();
  const std::optional<uint64_t> n = UnsignedFromEnv(name, lo, hi);
  const std::string err = testing::internal::GetCapturedStderr();
  if (warning != nullptr) *warning = err;
  return n;
}

TEST(EnvTest, UnsignedAcceptsDigitsInRangeOnly) {
  const char* kName = "HAMLET_ENVTEST_UNSIGNED";
  EXPECT_EQ(ReadUnsigned(kName, nullptr, 2, 9), std::nullopt);
  EXPECT_EQ(ReadUnsigned(kName, "", 2, 9), std::nullopt);
  EXPECT_EQ(ReadUnsigned(kName, "2", 2, 9), 2u);
  EXPECT_EQ(ReadUnsigned(kName, "9", 2, 9), 9u);
  EXPECT_EQ(ReadUnsigned(kName, "007", 2, 9), 7u);
  for (const char* bad : {"1", "10", "+5", "-5", " 5", "5 ", "\t5", "5x",
                          "0x5", "5.0", "-18446744073709551611",
                          "18446744073709551621"}) {
    std::string warning;
    EXPECT_EQ(ReadUnsigned(kName, bad, 2, 9, &warning), std::nullopt)
        << "value \"" << bad << "\"";
    EXPECT_NE(warning, "") << "value \"" << bad << "\"";
  }
  // The full uint64 range is representable; one past it overflows.
  EXPECT_EQ(ReadUnsigned(kName, "18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(ReadUnsigned(kName, "18446744073709551616", 0, UINT64_MAX),
            std::nullopt);
}

TEST(EnvTest, ChoiceMatchesExactly) {
  const char* kName = "HAMLET_ENVTEST_CHOICE";
  const auto read = [&](const char* value) {
    ScopedEnvVar env(kName, value);
    testing::internal::CaptureStderr();
    const std::optional<size_t> i = ChoiceFromEnv(kName, {"abort", "skip"});
    (void)testing::internal::GetCapturedStderr();
    return i;
  };
  EXPECT_EQ(read(nullptr), std::nullopt);
  EXPECT_EQ(read(""), std::nullopt);
  EXPECT_EQ(read("abort"), 0u);
  EXPECT_EQ(read("skip"), 1u);
  for (const char* bad : {"Skip", "SKIP", " skip", "skip ", "ski", "skips"}) {
    EXPECT_EQ(read(bad), std::nullopt) << "value \"" << bad << "\"";
  }
}

TEST(EnvTest, StringIsVerbatimAndEmptyWhenUnset) {
  const char* kName = "HAMLET_ENVTEST_STRING";
  {
    ScopedEnvVar env(kName, nullptr);
    EXPECT_EQ(StringFromEnv(kName), "");
  }
  ScopedEnvVar env(kName, " seed=7; io.load.open:p=0.5 ");
  EXPECT_EQ(StringFromEnv(kName), " seed=7; io.load.open:p=0.5 ");
}

TEST(EnvTest, WarnsOncePerDistinctNameAndValue) {
  const char* kName = "HAMLET_ENVTEST_WARN";
  std::string warning;
  // Alternating distinct values warn exactly once each.
  ReadUnsigned(kName, "abc", 1, 8, &warning);
  EXPECT_EQ(warning,
            "hamlet: invalid HAMLET_ENVTEST_WARN=\"abc\" (want an integer "
            "in [1, 8]); using the default\n");
  ReadUnsigned(kName, "0", 1, 8, &warning);
  EXPECT_NE(warning.find("HAMLET_ENVTEST_WARN=\"0\""), std::string::npos)
      << warning;
  ReadUnsigned(kName, "abc", 1, 8, &warning);
  EXPECT_EQ(warning, "");
  ReadUnsigned(kName, "0", 1, 8, &warning);
  EXPECT_EQ(warning, "");
  ReadUnsigned(kName, "abc", 1, 8, &warning);
  EXPECT_EQ(warning, "");
  // Valid values never warn.
  ReadUnsigned(kName, "3", 1, 8, &warning);
  EXPECT_EQ(warning, "");

  // The same value under another name is a distinct pair.
  ReadUnsigned("HAMLET_ENVTEST_WARN_OTHER", "abc", 1, 8, &warning);
  EXPECT_NE(warning.find("HAMLET_ENVTEST_WARN_OTHER=\"abc\""),
            std::string::npos)
      << warning;

  // A choice knob's warning lists the accepted choices.
  ScopedEnvVar env("HAMLET_ENVTEST_WARN_CHOICE", "fulll");
  testing::internal::CaptureStderr();
  EXPECT_EQ(ChoiceFromEnv("HAMLET_ENVTEST_WARN_CHOICE",
                          {"smoke", "quick", "full"}),
            std::nullopt);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "hamlet: invalid HAMLET_ENVTEST_WARN_CHOICE=\"fulll\" (want one "
            "of \"smoke\", \"quick\", \"full\"); using the default\n");

  // WarnInvalidEnv shares the set with the readers.
  testing::internal::CaptureStderr();
  WarnInvalidEnv("HAMLET_ENVTEST_WARN", "abc", "anything");
  WarnInvalidEnv("HAMLET_ENVTEST_SPEC", "x;y", "a spec");
  WarnInvalidEnv("HAMLET_ENVTEST_SPEC", "x;y", "a spec");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "hamlet: invalid HAMLET_ENVTEST_SPEC=\"x;y\" (want a spec); "
            "using the default\n");
}

// -------------------------------------------------------------- counters --

using counters::Counter;
using counters::kNumCounters;

TEST(CountersTest, ConcurrentAddsSumExactly) {
  test::ScopedThreads threads("4");
  constexpr size_t kAdds = 20000;
  const counters::Snapshot start = counters::Read();
  parallel::ParallelFor(kAdds, [](size_t i) {
    counters::Add(static_cast<Counter>(i % kNumCounters), i);
  });
  const counters::Snapshot d = counters::Read() - start;
  for (size_t c = 0; c < kNumCounters; ++c) {
    uint64_t want = 0;
    for (size_t i = c; i < kAdds; i += kNumCounters) want += i;
    EXPECT_EQ(d[static_cast<Counter>(c)], want) << "counter " << c;
  }
}

TEST(CountersTest, SnapshotSubtractsEntryWise) {
  const counters::Snapshot before = counters::Read();
  counters::Add(Counter::kPackedEvals, 3);
  counters::Add(Counter::kSmoFits, 1);
  const counters::Snapshot after = counters::Read();
  const counters::Snapshot d = after - before;
  for (size_t c = 0; c < kNumCounters; ++c) {
    const Counter counter = static_cast<Counter>(c);
    const uint64_t want = counter == Counter::kPackedEvals ? 3
                          : counter == Counter::kSmoFits   ? 1
                                                           : 0;
    EXPECT_EQ(d[counter], want) << "counter " << c;
    EXPECT_EQ(after[counter], before[counter] + want) << "counter " << c;
    EXPECT_EQ((after - after)[counter], 0u) << "counter " << c;
  }
}

TEST(CountersTest, PerfbenchViewsEqualTheRegistry) {
  // One SVM fit and one 1-NN prediction move every count but
  // unconverged; the three struct views must report the registry as is.
  const Dataset data = test::MakeParityDataset(60, {4, 3, 5}, 11);
  const test::ParityViews views = test::MakeParityViews(data, 2);
  const counters::Snapshot start = counters::Read();
  ml::KernelSvm svm;
  ASSERT_TRUE(svm.Fit(views.train).ok());
  ml::OneNearestNeighbor knn;
  ASSERT_TRUE(knn.Fit(views.train).ok());
  EXPECT_LE(knn.Predict(views.test, 0), 1);
  const counters::Snapshot now = counters::Read();
  const counters::Snapshot d = now - start;
  EXPECT_EQ(d[Counter::kSmoFits], 1u);
  for (Counter moved :
       {Counter::kSmoIterations, Counter::kKernelCacheMisses,
        Counter::kPackedBuilds, Counter::kPackedRows,
        Counter::kPackedBuildWords, Counter::kPackedEvals,
        Counter::kPackedEvalWords}) {
    EXPECT_GT(d[moved], 0u) << static_cast<size_t>(moved);
  }

  const ml::SmoTotals smo = ml::GlobalSmoTotals();
  EXPECT_EQ(smo.fits, now[Counter::kSmoFits]);
  EXPECT_EQ(smo.iterations, now[Counter::kSmoIterations]);
  EXPECT_EQ(smo.shrink_events, now[Counter::kSmoShrinks]);
  EXPECT_EQ(smo.unshrink_events, now[Counter::kSmoUnshrinks]);
  EXPECT_EQ(smo.unconverged, now[Counter::kSmoUnconverged]);
  const ml::KernelCacheTotals cache = ml::GlobalKernelCacheTotals();
  EXPECT_EQ(cache.hits, now[Counter::kKernelCacheHits]);
  EXPECT_EQ(cache.misses, now[Counter::kKernelCacheMisses]);
  const simd::PackedStats packed = simd::GlobalPackedStats();
  EXPECT_EQ(packed.builds, now[Counter::kPackedBuilds]);
  EXPECT_EQ(packed.rows, now[Counter::kPackedRows]);
  EXPECT_EQ(packed.build_words, now[Counter::kPackedBuildWords]);
  EXPECT_EQ(packed.evals, now[Counter::kPackedEvals]);
  EXPECT_EQ(packed.eval_words, now[Counter::kPackedEvalWords]);
}

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad row");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad row");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad row");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(), Status::FailedPrecondition("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 5u);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, FromCodePreservesTheCode) {
  const Status st = Status::FromCode(StatusCode::kDataLoss, "bits rotted");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "bits rotted");
  EXPECT_TRUE(Status::FromCode(StatusCode::kOk, "ignored").ok());
  EXPECT_EQ(Status::Unavailable("later").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DataLoss("gone").code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32Finalize(Crc32Feed(kCrc32Init, "123456789", 9)),
            0xCBF43926u);
}

TEST(Crc32Test, IncrementalFeedMatchesOneShot) {
  const char data[] = "hamlet model bytes";
  const size_t n = sizeof(data) - 1;
  auto one_shot = [](const void* bytes, size_t len) {
    return Crc32Finalize(Crc32Feed(kCrc32Init, bytes, len));
  };
  uint32_t state = kCrc32Init;
  state = Crc32Feed(state, data, 5);
  state = Crc32Feed(state, data + 5, n - 5);
  EXPECT_EQ(Crc32Finalize(state), one_shot(data, n));
  // Sensitive to every byte.
  EXPECT_NE(one_shot(data, n), one_shot(data, n - 1));
  EXPECT_EQ(one_shot("", 0), Crc32Finalize(kCrc32Init));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailsThenPropagates() {
  HAMLET_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  Status st = FailsThenPropagates();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "inner");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(13), 13u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, 4 * std::sqrt(n / 8.0));
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMomentsAreStandard) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork(1);
  Rng a2(42);
  Rng child2 = a2.Fork(1);
  // Same fork is reproducible...
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.Next(), child2.Next());
  // ...and differs from another stream.
  Rng a3(42);
  Rng other = a3.Fork(2);
  int equal = 0;
  Rng a4(42);
  Rng base = a4.Fork(1);
  for (int i = 0; i < 64; ++i) equal += base.Next() == other.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  }
}

// --------------------------------------------------------------- stringx --

TEST(StringxTest, SplitString) {
  EXPECT_EQ(SplitString("a,b,c", ',').size(), 3u);
  EXPECT_EQ(SplitString("a,,c", ',')[1], "");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
  EXPECT_EQ(SplitString("trailing,", ',').size(), 2u);
}

TEST(StringxTest, SplitJoinRoundTrip) {
  const std::string s = "x,y,,z";
  const std::vector<std::string> parts = SplitString(s, ',');
  std::string joined = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) joined += "," + parts[i];
  EXPECT_EQ(joined, s);
}

TEST(StringxTest, TrimString) {
  EXPECT_EQ(TrimString("  hi  "), "hi");
  EXPECT_EQ(TrimString("\t\nhi"), "hi");
  EXPECT_EQ(TrimString("hi"), "hi");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(StringxTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.85371, 4), "0.8537");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
  EXPECT_EQ(FormatDouble(-0.5, 2), "-0.50");
}

TEST(StringxTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcdef", 4), "abcd");
  EXPECT_EQ(PadLeft("abcdef", 4), "abcd");
}

TEST(StringxTest, ParseUnsignedAcceptsPlainDigits) {
  EXPECT_EQ(ParseUnsigned("0").value(), 0u);
  EXPECT_EQ(ParseUnsigned("42").value(), 42u);
  EXPECT_EQ(ParseUnsigned("007").value(), 7u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615").value(), UINT64_MAX);
}

TEST(StringxTest, ParseUnsignedRejectsWhatStrtoullSilentlyAccepts) {
  // The whole point of the helper: strtoull("banana") = 0 with no error
  // and strtoull("-1") wraps to UINT64_MAX — both must fail loudly here.
  for (const char* bad :
       {"", "banana", "-1", "+1", " 1", "1 ", "12abc", "0x10", "1.5"}) {
    SCOPED_TRACE(bad);
    const auto parsed = ParseUnsigned(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message names the offending string so CLI errors are
    // actionable.
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos);
  }
  // One past UINT64_MAX overflows.
  const auto over = ParseUnsigned("18446744073709551616");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace hamlet
