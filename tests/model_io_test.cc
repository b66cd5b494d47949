// Model serialization round-trip and malformed-input tests.
//
// The contract under test (docs/ARCHITECTURE.md, "The model format"):
// Fit -> SaveModel -> LoadModel -> PredictAll is bit-identical to the
// in-memory model at any thread count; the on-disk bytes are
// little-endian regardless of host; and every corrupt, truncated or
// version-skewed input fails with a Status — never a crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hamlet/io/model_io.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/majority.h"
#include "hamlet/ml/nb/backward_selection.h"
#include "hamlet/ml/svm/svm.h"
#include "parity_util.h"

namespace hamlet {
namespace {

using test::MakeParityDataset;
using test::MakeParityViews;
using test::ParityLearner;
using test::ParityLearners;
using test::ScopedThreads;

/// Serializes `model` to an in-memory byte string, asserting success.
std::string SaveToString(const ml::Classifier& model) {
  std::ostringstream os(std::ios::binary);
  const Status st = io::SaveModel(model, os);
  EXPECT_TRUE(st.ok()) << model.name() << ": " << st.ToString();
  return os.str();
}

Result<std::unique_ptr<ml::Classifier>> LoadFromString(
    const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return io::LoadModel(is);
}

TEST(ModelIoTest, RoundTripIsBitIdenticalForEveryFamily) {
  const Dataset data = MakeParityDataset(240, {7, 4, 9, 3, 5}, 17);
  const auto views = MakeParityViews(data, 18);

  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    auto model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    ASSERT_NE(model->family(), ml::ModelFamily::kUnsupported);
    ASSERT_FALSE(model->train_domain_sizes().empty());

    const std::string bytes = SaveToString(*model);
    auto loaded = LoadFromString(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ(loaded.value()->name(), model->name());
    EXPECT_EQ(loaded.value()->family(), model->family());
    EXPECT_EQ(loaded.value()->train_domain_sizes(),
              model->train_domain_sizes());

    // Bit-identical batch predictions, serial and pooled.
    for (const char* threads : {"1", "4"}) {
      ScopedThreads scoped(threads);
      const std::vector<uint8_t> expected = model->PredictAll(views.test);
      const std::vector<uint8_t> got =
          loaded.value()->PredictAll(views.test);
      EXPECT_EQ(got, expected) << "threads=" << threads;
    }

    // Saving the loaded model reproduces the byte stream exactly: the
    // format has no nondeterministic or host-dependent fields.
    EXPECT_EQ(SaveToString(*loaded.value()), bytes);
  }
}

/// A loaded SVM rebuilds its packed support vectors and kernel table
/// (LoadBody -> PackSupportVectors): its decision values must be the
/// fitted model's bits, and both must equal the scalar sum
/// bias + sum_s coeff_s * KernelEval(sv_s, x) taken in support-vector
/// order.
TEST(ModelIoTest, SvmDecisionValuesSurviveRoundTripBitForBit) {
  const Dataset data = MakeParityDataset(200, {6, 3, 8, 4, 5}, 23);
  const auto views = MakeParityViews(data, 29);
  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  for (const ml::KernelType type :
       {ml::KernelType::kLinear, ml::KernelType::kPoly,
        ml::KernelType::kRbf}) {
    SCOPED_TRACE(ml::KernelTypeName(type));
    ml::SvmConfig cfg;
    cfg.kernel.type = type;
    cfg.kernel.gamma = type == ml::KernelType::kPoly ? 0.4 : 0.15;
    ml::KernelSvm model(cfg);
    ASSERT_TRUE(model.Fit(views.train).ok());
    ASSERT_GT(model.num_support_vectors(), 0u);

    auto loaded = LoadFromString(SaveToString(model));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto* svm = dynamic_cast<const ml::KernelSvm*>(loaded.value().get());
    ASSERT_NE(svm, nullptr);

    const size_t d = views.test.num_features();
    const std::vector<uint32_t>& sv = model.support_vector_codes();
    const std::vector<double>& coeff = model.coefficients();
    std::vector<uint32_t> query(d);
    for (size_t i = 0; i < views.test.num_rows(); ++i) {
      for (size_t j = 0; j < d; ++j) query[j] = views.test.feature(i, j);
      double oracle = model.bias();
      for (size_t s = 0; s < coeff.size(); ++s) {
        oracle += coeff[s] *
                  ml::KernelEval(cfg.kernel, sv.data() + s * d, query.data(), d);
      }
      const double fitted = model.DecisionValueOfCodes(query.data());
      EXPECT_EQ(bits(fitted), bits(oracle)) << "row " << i;
      EXPECT_EQ(bits(svm->DecisionValueOfCodes(query.data())), bits(fitted))
          << "row " << i;
    }
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  const Dataset data = MakeParityDataset(120, {5, 6, 4}, 3);
  const auto views = MakeParityViews(data, 4);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(views.train).ok());

  const std::string path =
      testing::TempDir() + "/hamlet_model_io_test.hmlm";
  ASSERT_TRUE(io::SaveModelToFile(model, path).ok());
  auto loaded = io::LoadModelFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->PredictAll(views.test),
            model.PredictAll(views.test));
  std::remove(path.c_str());

  // Failure Statuses name the offending path (and the errno reason), so
  // an operator reading one log line knows which file to look at.
  const auto missing = io::LoadModelFromFile(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find(path + ".does-not-exist"),
            std::string::npos);
}

TEST(ModelIoTest, SaveToUnwritablePathNamesThePath) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::string path =
      testing::TempDir() + "/hamlet-no-such-dir/model.hmlm";
  const Status st = io::SaveModelToFile(model, path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(path), std::string::npos);
}

TEST(ModelIoTest, HeaderBytesArePinnedLittleEndian) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::string bytes = SaveToString(model);

  // magic, version=2, family=kMajority(7), domains=[3,2] — byte-exact,
  // so a model written on any host loads on any other. v2 appends a
  // CRC-32 u32 between the body and the footer.
  const unsigned char expected_header[] = {
      'H', 'M', 'L', 'M',       // magic
      2,   0,   0,   0,         // version u32 LE
      7,   0,   0,   0,         // family u32 LE
      2,   0,   0,   0, 0, 0, 0, 0,  // domain-count u64 LE
      3,   0,   0,   0,         // domain[0]
      2,   0,   0,   0,         // domain[1]
  };
  // header + at least the 4-byte checksum + 4-byte footer.
  ASSERT_GE(bytes.size(), sizeof(expected_header) + 8);
  for (size_t i = 0; i < sizeof(expected_header); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected_header[i])
        << "header byte " << i;
  }
  EXPECT_EQ(bytes.substr(bytes.size() - 4), "MLMH");
}

/// Rewrites v2 bytes as the v1 layout: version field 1, no checksum
/// field before the footer. This is byte-exact what PR 6 builds wrote.
std::string AsV1Bytes(const std::string& v2) {
  std::string v1 = v2;
  v1[4] = 1;                          // version u32 LE, low byte
  v1.erase(v1.size() - 8, 4);         // drop the CRC ahead of the footer
  return v1;
}

TEST(ModelIoTest, V1ModelStillLoads) {
  // Forward compatibility: model files written before the checksum
  // existed (format v1) must keep loading, with identical predictions.
  const Dataset data = MakeParityDataset(240, {7, 4, 9, 3, 5}, 17);
  const auto views = MakeParityViews(data, 18);
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    auto model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    const std::string v1 = AsV1Bytes(SaveToString(*model));
    const auto loaded = LoadFromString(v1);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->PredictAll(views.test),
              model->PredictAll(views.test));
    // Re-saving writes the current (v2) format.
    EXPECT_EQ(SaveToString(*loaded.value())[4], 2);
  }
}

/// The low `width` bytes of `v`, little-endian: the model format's
/// integer encoding.
std::string Le(uint64_t v, size_t width) {
  std::string out(width, '\0');
  for (size_t b = 0; b < width; ++b) {
    out[b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
  return out;
}

/// A double's model-format encoding: its IEEE-754 bits as a u64.
std::string LeF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return Le(bits, 8);
}

/// Crafted SVM bodies in a v1 file, which has no checksum: only the
/// body validation stands between the bytes and a loaded model. A huge
/// poly degree would make every prediction loop ~2e9 times, and a
/// non-finite gamma, bias or coefficient would poison every decision
/// value; each must fail the load with InvalidArgument instead.
TEST(ModelIoTest, CraftedSvmKernelAndCoefficientsAreRejected) {
  const Dataset data = MakeParityDataset(120, {4, 3, 5}, 41);
  ml::SvmConfig cfg;
  cfg.kernel.type = ml::KernelType::kPoly;
  cfg.kernel.gamma = 0.5;
  ml::KernelSvm model(cfg);
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  ASSERT_GT(model.num_support_vectors(), 0u);
  const std::string v1 = AsV1Bytes(SaveToString(model));

  // Header: magic, version, family, domain count, 3 domains. The body
  // follows: kernel type u32, gamma f64, degree i32, d u64, three u8
  // flags, bias f64, coefficient count u64, coefficients f64 ...
  const size_t body = 20 + 4 * 3;
  const size_t gamma_at = body + 4, degree_at = body + 12,
               d_at = body + 16, bias_at = body + 27, coeff_at = body + 43;
  ASSERT_EQ(v1.substr(body, 4),
            Le(static_cast<uint64_t>(ml::KernelType::kPoly), 4));
  ASSERT_EQ(v1.substr(gamma_at, 8), LeF64(0.5));
  ASSERT_EQ(v1.substr(degree_at, 4), Le(2, 4));
  ASSERT_EQ(v1.substr(d_at, 8), Le(3, 8));
  ASSERT_EQ(v1.substr(coeff_at - 8, 8), Le(model.num_support_vectors(), 8));

  const auto expect_rejected = [](const std::string& bytes,
                                  const std::string& field) {
    const auto loaded = LoadFromString(bytes);
    ASSERT_FALSE(loaded.ok()) << field;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(loaded.status().message().find(field), std::string::npos)
        << loaded.status().ToString();
  };
  for (const int32_t degree :
       {0, -1, ml::kMaxKernelDegree + 1,
        std::numeric_limits<int32_t>::max()}) {
    std::string bad = v1;
    bad.replace(degree_at, 4, Le(static_cast<uint32_t>(degree), 4));
    expect_rejected(bad, "degree");
  }
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    std::string bad_gamma = v1, bad_bias = v1, bad_coeff = v1;
    bad_gamma.replace(gamma_at, 8, LeF64(v));
    bad_bias.replace(bias_at, 8, LeF64(v));
    bad_coeff.replace(coeff_at, 8, LeF64(v));
    expect_rejected(bad_gamma, "gamma");
    expect_rejected(bad_bias, "bias");
    expect_rejected(bad_coeff, "coefficient");
  }

  // The largest accepted degree still loads and predicts.
  std::string max_degree = v1;
  max_degree.replace(degree_at, 4, Le(ml::kMaxKernelDegree, 4));
  const auto loaded = LoadFromString(max_degree);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->PredictAll(DataView(&data)).size(),
            data.num_rows());
}

TEST(ModelIoTest, EverySingleBitFlipIsRejected) {
  // Bit-rot detection: flip each bit of the stream in turn; every
  // variant must fail to load. Flips inside the checksummed region
  // (family tag through body) that survive structural validation
  // surface as kDataLoss; flips the reader rejects structurally keep
  // their original codes. Not one flip may load silently.
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::string bytes = SaveToString(model);

  size_t dataloss = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = bytes;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      const auto loaded = LoadFromString(bad);
      ASSERT_FALSE(loaded.ok()) << "byte " << i << " bit " << bit;
      if (loaded.status().code() == StatusCode::kDataLoss) ++dataloss;
    }
  }
  // The CRC must be doing real work: a healthy share of the flips are
  // only catchable by the checksum.
  EXPECT_GT(dataloss, 0u);
}

TEST(ModelIoTest, ChecksumFieldFlipIsDataLoss) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  std::string bytes = SaveToString(model);
  // The stored CRC sits in the 4 bytes ahead of the 4-byte footer.
  bytes[bytes.size() - 8] = static_cast<char>(bytes[bytes.size() - 8] ^ 1);
  const auto loaded = LoadFromString(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(ModelIoTest, SaveBeforeFitFails) {
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    auto model = learner.make();
    std::ostringstream os(std::ios::binary);
    const Status st = io::SaveModel(*model, os);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ModelIoTest, UnsupportedWrapperFamilyIsRejected) {
  const Dataset data = MakeParityDataset(90, {4, 3, 5}, 21);
  const auto views = MakeParityViews(data, 22);
  ml::BackwardSelectionClassifier model(views.test);
  ASSERT_TRUE(model.Fit(views.train).ok());
  EXPECT_EQ(model.family(), ml::ModelFamily::kUnsupported);
  std::ostringstream os(std::ios::binary);
  const Status st = io::SaveModel(model, os);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoTest, VersionMismatchNamesBothVersions) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  std::string bytes = SaveToString(model);
  bytes[4] = 99;  // version field, low byte
  const auto loaded = LoadFromString(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("99"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(ModelIoTest, CorruptMagicFamilyAndFooterAreRejected) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::string bytes = SaveToString(model);

  {
    std::string bad = bytes;
    bad[0] = 'X';
    const auto loaded = LoadFromString(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::string bad = bytes;
    bad[8] = static_cast<char>(200);  // family tag: unknown value
    const auto loaded = LoadFromString(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("family"), std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[bad.size() - 1] = 'X';  // footer
    const auto loaded = LoadFromString(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ModelIoTest, EveryTruncationFailsWithStatusForEveryFamily) {
  // Small dataset keeps the byte streams short enough to sweep every
  // prefix for every family (the MLP model is the largest at ~50 KiB
  // with the tiny test architecture, so stride the long middle).
  const Dataset data = MakeParityDataset(90, {4, 3, 5}, 31);
  const auto views = MakeParityViews(data, 32);
  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    auto model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    const std::string bytes = SaveToString(*model);

    for (size_t len = 0; len < bytes.size();
         len += (len > 256 && bytes.size() - len > 512) ? 37 : 1) {
      const auto loaded = LoadFromString(bytes.substr(0, len));
      ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    }
  }
}

TEST(ModelIoTest, ImplausibleVectorLengthIsRejectedWithoutAllocating) {
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  std::string bytes = SaveToString(model);
  // Blow up the domain-count u64 (offset 12) far past kMaxVectorElements;
  // the reader must refuse before resizing.
  for (size_t i = 12; i < 20; ++i) bytes[i] = static_cast<char>(0xff);
  const auto loaded = LoadFromString(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("implausible"),
            std::string::npos);
}

/// A v1 (checksum-free) decision-tree file whose unseen-code policy
/// field holds `policy`. The tree body opens with criterion u32,
/// minsplit u64, cp f64 and max_depth u64, then the policy u32.
std::string TreeFileWithPolicy(uint32_t policy) {
  const Dataset data = MakeParityDataset(120, {4, 3, 5}, 61);
  ml::DecisionTree model;
  EXPECT_TRUE(model.Fit(DataView(&data)).ok());
  std::string v1 = AsV1Bytes(SaveToString(model));
  const size_t policy_at = 20 + 4 * 3 + 4 + 8 + 8 + 8;
  EXPECT_EQ(v1.substr(policy_at, 4), Le(1, 4));  // majority branch
  v1.replace(policy_at, 4, Le(policy, 4));
  return v1;
}

TEST(ModelIoTest, TreeErrorPolicyIsRejected) {
  // 0 was the removed error policy, whose Predict answered unseen codes
  // with the root majority: loading it as the majority branch would
  // silently change the file's answers.
  const auto loaded = LoadFromString(TreeFileWithPolicy(0));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("policy 0"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoTest, TreeUnknownPolicyIsRejected) {
  for (const uint32_t policy : {2u, 0xffffffffu}) {
    const auto loaded = LoadFromString(TreeFileWithPolicy(policy));
    ASSERT_FALSE(loaded.ok()) << policy;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << policy;
  }
  // The one policy the tree has still loads.
  EXPECT_TRUE(LoadFromString(TreeFileWithPolicy(1)).ok());
}

TEST(ModelIoTest, BodyHeaderDisagreementIsRejected) {
  // A naive-bayes body whose likelihood tables cover domains {3,2} must
  // not load under a header claiming wider domains: the load would
  // otherwise index past the tables at predict time.
  const Dataset data = MakeParityDataset(60, {3, 2}, 9);
  ml::NaiveBayes model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  std::string bytes = SaveToString(model);
  ASSERT_EQ(bytes[20], 3);  // domain[0] low byte
  bytes[20] = 5;
  const auto loaded = LoadFromString(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hamlet
