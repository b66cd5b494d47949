// Tests for hamlet/ml/ann: MLP with Adam and sparse one-hot input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/metrics.h"

namespace hamlet {
namespace ml {
namespace {

Dataset MakeSeparable(size_t n, uint64_t seed) {
  Dataset d({{"sig", 2, FeatureRole::kHome, -1},
             {"noise", 3, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({s, static_cast<uint32_t>(rng.UniformInt(3))},
                         static_cast<uint8_t>(s));
  }
  return d;
}

Dataset MakeXor(size_t n, uint64_t seed) {
  Dataset d({{"a", 2, FeatureRole::kHome, -1},
             {"b", 2, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(2));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(2));
    d.AppendRowUnchecked({a, b}, static_cast<uint8_t>(a ^ b));
  }
  return d;
}

MlpConfig SmallConfig() {
  MlpConfig cfg;
  cfg.hidden_sizes = {16, 8};  // small nets keep tests fast
  cfg.learning_rate = 0.01;
  cfg.l2 = 1e-4;
  cfg.epochs = 40;
  cfg.seed = 3;
  return cfg;
}

TEST(MlpTest, LearnsLinearSignal) {
  Dataset data = MakeSeparable(300, 1);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  EXPECT_GE(Accuracy(mlp, view), 0.98);
}

TEST(MlpTest, LearnsXor) {
  Dataset data = MakeXor(400, 2);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  EXPECT_GE(Accuracy(mlp, view), 0.98);
}

TEST(MlpTest, GeneralisesXorOutOfSample) {
  Dataset train = MakeXor(400, 3);
  Dataset test = MakeXor(200, 4);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(DataView(&train)).ok());
  EXPECT_GE(Accuracy(mlp, DataView(&test)), 0.98);
}

TEST(MlpTest, ProbabilitiesAreCalibratedToUnitInterval) {
  Dataset data = MakeXor(200, 5);
  DataView view(&data);
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    const double p = mlp.ProbabilityOfCodes(m.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_EQ(mlp.Predict(view, i), p >= 0.5 ? 1 : 0);
  }
}

TEST(MlpTest, DeterministicInSeed) {
  Dataset data = MakeXor(200, 6);
  DataView view(&data);
  Mlp a(SmallConfig()), b(SmallConfig());
  ASSERT_TRUE(a.Fit(view).ok());
  ASSERT_TRUE(b.Fit(view).ok());
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(a.ProbabilityOfCodes(m.row(i)),
                     b.ProbabilityOfCodes(m.row(i)));
  }
}

TEST(MlpTest, EmptyTrainingFails) {
  Dataset data = MakeXor(10, 7);
  DataView empty(&data, {}, {0, 1});
  Mlp mlp(SmallConfig());
  EXPECT_FALSE(mlp.Fit(empty).ok());
}

TEST(MlpTest, RejectsNoHiddenLayers) {
  MlpConfig cfg = SmallConfig();
  cfg.hidden_sizes = {};
  Mlp mlp(cfg);
  Dataset data = MakeXor(50, 8);
  EXPECT_FALSE(mlp.Fit(DataView(&data)).ok());
}

TEST(MlpTest, StrongL2ShrinksConfidence) {
  Dataset data = MakeSeparable(300, 9);
  DataView view(&data);
  MlpConfig weak = SmallConfig();
  weak.l2 = 1e-5;
  MlpConfig strong = SmallConfig();
  strong.l2 = 1.0;  // heavy penalty keeps weights near zero
  Mlp mw(weak), ms(strong);
  ASSERT_TRUE(mw.Fit(view).ok());
  ASSERT_TRUE(ms.Fit(view).ok());
  double conf_weak = 0.0, conf_strong = 0.0;
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    conf_weak += std::abs(mw.ProbabilityOfCodes(m.row(i)) - 0.5);
    conf_strong += std::abs(ms.ProbabilityOfCodes(m.row(i)) - 0.5);
  }
  EXPECT_GT(conf_weak, conf_strong);
}

TEST(MlpTest, HandlesLargeFkDomainInput) {
  // One-hot dimension ~500: exercises the sparse first-layer path.
  Rng rng(10);
  Dataset d({{"fk", 500, FeatureRole::kForeignKey, 0}});
  std::vector<uint8_t> fk_label(500);
  for (auto& v : fk_label) v = static_cast<uint8_t>(rng.UniformInt(2));
  for (int i = 0; i < 600; ++i) {
    const uint32_t fk = static_cast<uint32_t>(rng.UniformInt(500));
    d.AppendRowUnchecked({fk}, fk_label[fk]);
  }
  MlpConfig cfg = SmallConfig();
  cfg.epochs = 60;
  Mlp mlp(cfg);
  ASSERT_TRUE(mlp.Fit(DataView(&d)).ok());
  EXPECT_GE(Accuracy(mlp, DataView(&d)), 0.9);
}

// Sweep the paper's tuning grid corners: training must stay stable (no
// NaNs, accuracy above majority) for every (lr, l2) combination.
class MlpGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MlpGridTest, StableAcrossTuningGrid) {
  const auto [lr, l2] = GetParam();
  Dataset data = MakeSeparable(200, 11);
  DataView view(&data);
  MlpConfig cfg = SmallConfig();
  cfg.learning_rate = lr;
  cfg.l2 = l2;
  cfg.epochs = 20;
  Mlp mlp(cfg);
  ASSERT_TRUE(mlp.Fit(view).ok());
  const double acc = Accuracy(mlp, view);
  EXPECT_TRUE(std::isfinite(acc));
  EXPECT_GE(acc, 0.45);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, MlpGridTest,
    ::testing::Combine(::testing::Values(1e-3, 1e-2, 1e-1),
                       ::testing::Values(1e-4, 1e-3, 1e-2)));

/// 64-bit FNV-1a over a byte string. The pin test below compares whole
/// model files and probability bit patterns by digest.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

/// A four-feature dataset with a large foreign-key column and a label that
/// mixes two home features, the FK and 10% noise: a small stand-in for
/// the JoinAll views the grid search fits.
Dataset MakeMixed(size_t n, uint64_t seed) {
  Dataset d({{"a", 4, FeatureRole::kHome, -1},
             {"b", 7, FeatureRole::kHome, -1},
             {"fk", 60, FeatureRole::kForeignKey, 0},
             {"c", 3, FeatureRole::kHome, -1}});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(4));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(7));
    const uint32_t fk = static_cast<uint32_t>(rng.UniformInt(60));
    const uint32_t c = static_cast<uint32_t>(rng.UniformInt(3));
    uint8_t y = static_cast<uint8_t>(((a + fk % 3) % 2) ^ (b == 6 ? 1 : 0));
    if (rng.UniformInt(10) == 0) y ^= 1;
    d.AppendRowUnchecked({a, b, fk, c}, y);
  }
  return d;
}

/// The exact bytes io::SaveModel writes for `model`.
std::string SavedBytes(const Mlp& model) {
  std::ostringstream os;
  EXPECT_TRUE(io::SaveModel(model, os).ok());
  return os.str();
}

/// FNV-1a over the little-endian IEEE-754 bit patterns of
/// ProbabilityOfCodes for every row of `view`.
uint64_t ProbabilityBitsHash(const Mlp& model, const DataView& view) {
  std::string bytes;
  const CodeMatrix m(view);
  for (size_t i = 0; i < view.num_rows(); ++i) {
    const double p = model.ProbabilityOfCodes(m.row(i));
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<char>((bits >> (8 * b)) & 0xff));
    }
  }
  return Fnv1a(bytes);
}

struct PinnedFit {
  const char* name;
  MlpConfig config;
  size_t train_rows;
  uint64_t model_hash;  // Fnv1a of the SaveModel bytes
  uint64_t proba_hash;  // Fnv1a of the held-out probability bits
};

MlpConfig PinConfig(std::vector<size_t> hidden, double lr, double l2,
                    size_t epochs, size_t batch, uint64_t seed) {
  MlpConfig cfg;
  cfg.hidden_sizes = std::move(hidden);
  cfg.learning_rate = lr;
  cfg.l2 = l2;
  cfg.epochs = epochs;
  cfg.batch_size = batch;
  cfg.seed = seed;
  return cfg;
}

// The digests were recorded with the straightforward per-row MLP (one
// serial add chain per dot product, vector-of-vector columns) before its
// training and inference loops were restructured; every later layout,
// blocking or ISA change must reproduce them bit for bit. The cases
// cover the paper's 256/64 architecture with a ragged last minibatch
// (203 = 6 x 32 + 11), a deeper net at the top of the learning-rate grid
// where many ReLU units die (so many deltas are exactly zero), a single
// hidden layer with batch size 1, and, through the loaded copy, the
// save -> load -> predict round trip.
TEST(MlpTest, FitBitsPinnedFromParent) {
  const PinnedFit cases[] = {
      {"paper-256-64", PinConfig({256, 64}, 1e-2, 1e-3, 3, 32, 5), 203,
       0xca08095a1e81fa5cull, 0xff194ce9ffb3880aull},
      {"dead-relu-deep", PinConfig({24, 12, 6}, 1e-1, 1e-4, 6, 10, 7), 157,
       0xaf77a819f699e622ull, 0xde1ec34663c26666ull},
      {"single-hidden-batch1", PinConfig({32}, 1e-2, 1e-2, 2, 1, 9), 50,
       0xfb799ea8b3699afeull, 0xfb4f3ff753b5518cull},
  };
  const Dataset held_out = MakeMixed(97, 1234);
  const DataView eval(&held_out);
  for (const PinnedFit& pin : cases) {
    SCOPED_TRACE(pin.name);
    const Dataset train = MakeMixed(pin.train_rows, 77);
    Mlp mlp(pin.config);
    ASSERT_TRUE(mlp.Fit(DataView(&train)).ok());
    const std::string bytes = SavedBytes(mlp);
    EXPECT_EQ(Fnv1a(bytes), pin.model_hash);
    EXPECT_EQ(ProbabilityBitsHash(mlp, eval), pin.proba_hash);

    std::istringstream is(bytes);
    auto loaded = io::LoadModel(is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto* restored = dynamic_cast<const Mlp*>(loaded.value().get());
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(ProbabilityBitsHash(*restored, eval), pin.proba_hash);
    EXPECT_EQ(Fnv1a(SavedBytes(*restored)), pin.model_hash);
  }
}

TEST(MlpTest, PredictAllMatchesPerRowPredict) {
  // 700 rows: eleven 64-row chunks fan out on the pool, and the last
  // chunk is ragged (700 = 10 x 64 + 60).
  const Dataset train = MakeMixed(300, 21);
  const Dataset test = MakeMixed(700, 22);
  Mlp mlp(PinConfig({32, 8}, 1e-2, 1e-3, 5, 32, 4));
  ASSERT_TRUE(mlp.Fit(DataView(&train)).ok());
  const DataView view(&test);
  const std::vector<uint8_t> all = mlp.PredictAll(view);
  ASSERT_EQ(all.size(), view.num_rows());
  size_t ones = 0;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    EXPECT_EQ(all[i], mlp.Predict(view, i)) << "row " << i;
    ones += all[i];
  }
  // Both classes occur, so the comparison is not vacuous.
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, all.size());
}

TEST(MlpTest, OutOfDomainCodeClampsWithinItsOwnFeature) {
  // Training domains {3, 4}: feature 0 owns units 0-2, feature 1 units 3-6.
  Dataset train({{"a", 3, FeatureRole::kHome, -1},
                 {"b", 4, FeatureRole::kHome, -1}});
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.UniformInt(3));
    const uint32_t b = static_cast<uint32_t>(rng.UniformInt(4));
    train.AppendRowUnchecked({a, b}, static_cast<uint8_t>((a + b) % 2));
  }
  Mlp mlp(SmallConfig());
  ASSERT_TRUE(mlp.Fit(DataView(&train)).ok());

  // Feature 0's codes 4 and 9 lie past its domain. Unclamped, 4 would
  // read unit 4 (feature 1's code 1) and 9 would run off the table; both
  // must score exactly like feature 0's last in-domain code, 2.
  Dataset query({{"a", 10, FeatureRole::kHome, -1},
                 {"b", 4, FeatureRole::kHome, -1}});
  query.AppendRowUnchecked({2, 0}, 0);
  query.AppendRowUnchecked({4, 0}, 0);
  query.AppendRowUnchecked({9, 0}, 0);
  const DataView view(&query);
  const CodeMatrix m(view);
  const double clamped = mlp.ProbabilityOfCodes(m.row(0));
  EXPECT_EQ(mlp.ProbabilityOfCodes(m.row(1)), clamped);
  EXPECT_EQ(mlp.ProbabilityOfCodes(m.row(2)), clamped);
  const std::vector<uint8_t> all = mlp.PredictAll(view);
  EXPECT_EQ(all[1], all[0]);
  EXPECT_EQ(all[2], all[0]);
}

}  // namespace
}  // namespace ml
}  // namespace hamlet
