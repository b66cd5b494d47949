// Fault-injection subsystem tests, and the fault sweeps that exercise
// the crash-safe model lifecycle end to end: every injection site is
// fired in turn across save -> load -> serve, and the contract is the
// same each time — a clean Status (never a crash), no partial or temp
// file left observable, and the pipeline succeeding once the transient
// fault clears.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hamlet/common/fault.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/majority.h"
#include "hamlet/ml/nb/naive_bayes.h"
#include "hamlet/serve/server.h"
#include "parity_util.h"

namespace hamlet {
namespace {

using test::MakeParityDataset;
using test::MakeParityViews;
using test::ScopedEnvVar;

/// Clears the process-wide fault spec on scope exit, so a failing
/// assertion can't leak an armed spec into later tests.
struct FaultGuard {
  ~FaultGuard() { fault::Clear(); }
};

/// The temp sibling SaveModelToFile writes before the atomic rename.
std::string TempSiblingOf(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(FaultSpecTest, EmptySpecDisablesInjection) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("").ok());
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail(fault::kSiteSaveWrite));
}

TEST(FaultSpecTest, MalformedSpecsAreInvalidArgument) {
  FaultGuard guard;
  const char* bad[] = {
      "io.save.write",            // no trigger
      "io.save.write:often",      // unknown trigger
      "io.save.write:nth=zero",   // non-numeric nth
      "io.save.write:nth=0",      // nth is 1-based
      "io.save.write:p=1.5",      // probability outside [0,1]
      "io.save.write:p=x",        // non-numeric probability
      "seed=donut",               // non-numeric seed
      "seed=-1",                  // signed seed (strtoull wrapped it)
      "io.save.write:nth=+3",     // signed nth
      "io.no.such.site:always",   // unknown site
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    const Status st = fault::InstallSpec(spec);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fault::Enabled());
  }
  // Unknown-site errors name the roster so the typo is findable.
  const Status st = fault::InstallSpec("io.no.such.site:always");
  EXPECT_NE(st.message().find(fault::kSiteSaveWrite), std::string::npos);
}

TEST(FaultSpecTest, NthFiresExactlyOnce) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.save.write:nth=3").ok());
  EXPECT_TRUE(fault::Enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(fault::ShouldFail(fault::kSiteSaveWrite));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(fault::CallCount(fault::kSiteSaveWrite), 6u);
  EXPECT_EQ(fault::FireCount(fault::kSiteSaveWrite), 1u);
}

TEST(FaultSpecTest, AlwaysAndProbabilityEndpoints) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.load.read:always").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fault::ShouldFail(fault::kSiteLoadRead));
  }

  ASSERT_TRUE(fault::InstallSpec("io.load.read:p=1").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(fault::ShouldFail(fault::kSiteLoadRead));
  }

  ASSERT_TRUE(fault::InstallSpec("io.load.read:p=0").ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(fault::ShouldFail(fault::kSiteLoadRead));
  }
}

TEST(FaultSpecTest, ProbabilityScheduleIsSeedDeterministic) {
  FaultGuard guard;
  auto schedule = [](const char* spec) {
    EXPECT_TRUE(fault::InstallSpec(spec).ok());
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(fault::ShouldFail(fault::kSiteLoadRead));
    }
    return fires;
  };
  const auto a = schedule("seed=42;io.load.read:p=0.5");
  const auto b = schedule("seed=42;io.load.read:p=0.5");
  const auto c = schedule("seed=43;io.load.read:p=0.5");
  EXPECT_EQ(a, b);          // same spec, same schedule — reproducible
  EXPECT_NE(a, c);          // the seed actually feeds the draw
  // An unbiased-ish coin: p=0.5 over 200 draws lands well inside 40-160.
  const size_t fires = static_cast<size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 40u);
  EXPECT_LT(fires, 160u);
}

TEST(FaultSpecTest, InjectReturnsUnavailableWithSiteAndDetail) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.save.open:always").ok());
  const Status st = fault::Inject(fault::kSiteSaveOpen, "/tmp/x.hmlm");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("io.save.open"), std::string::npos);
  EXPECT_NE(st.message().find("/tmp/x.hmlm"), std::string::npos);
  EXPECT_TRUE(fault::Inject(fault::kSiteSaveRename).ok());
}

TEST(FaultSpecTest, PassiveSitesAreCountedWhileEnabled) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.save.open:nth=100").ok());
  EXPECT_FALSE(fault::ShouldFail(fault::kSiteLoadOpen));
  EXPECT_FALSE(fault::ShouldFail(fault::kSiteLoadOpen));
  EXPECT_EQ(fault::CallCount(fault::kSiteLoadOpen), 2u);
  EXPECT_EQ(fault::FireCount(fault::kSiteLoadOpen), 0u);
}

TEST(FaultSpecTest, LoadSpecFromEnv) {
  FaultGuard guard;
  {
    ScopedEnvVar env("HAMLET_FAULT_SPEC", "io.save.open:nth=1");
    ASSERT_TRUE(fault::LoadSpecFromEnv().ok());
    EXPECT_TRUE(fault::Enabled());
    EXPECT_TRUE(fault::ShouldFail(fault::kSiteSaveOpen));
    EXPECT_FALSE(fault::ShouldFail(fault::kSiteSaveOpen));
  }
  {
    ScopedEnvVar env("HAMLET_FAULT_SPEC", nullptr);
    ASSERT_TRUE(fault::LoadSpecFromEnv().ok());
    EXPECT_FALSE(fault::Enabled());
  }
  {
    // A typo'd env spec warns (once) and leaves injection disabled
    // rather than failing the process that inherited the variable.
    ScopedEnvVar env("HAMLET_FAULT_SPEC", "io.typo:always");
    ASSERT_FALSE(fault::LoadSpecFromEnv().ok());
    EXPECT_FALSE(fault::Enabled());
  }
}

TEST(FaultSpecTest, KnownSitesRosterIsComplete) {
  const std::vector<std::string>& sites = fault::KnownSites();
  for (const char* site :
       {fault::kSiteSaveOpen, fault::kSiteSaveWrite, fault::kSiteSaveFsync,
        fault::kSiteSaveRename, fault::kSiteLoadOpen, fault::kSiteLoadRead}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
  EXPECT_EQ(sites.size(), 6u);
}

TEST(FaultStreambufTest, WriteSiteFailsThePut) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.save.write:nth=2").ok());
  std::ostringstream os;
  fault::FaultInjectingStreambuf buf(os.rdbuf(), fault::kSiteSaveWrite,
                                     nullptr);
  std::ostream faulty(&buf);
  faulty.write("aaaa", 4);
  EXPECT_TRUE(faulty.good());
  faulty.write("bbbb", 4);  // second put: the site fires
  EXPECT_FALSE(faulty.good());
  EXPECT_EQ(os.str(), "aaaa");
}

TEST(FaultStreambufTest, ReadSiteTruncatesTheGet) {
  FaultGuard guard;
  ASSERT_TRUE(fault::InstallSpec("io.load.read:nth=2").ok());
  std::istringstream is("aaaabbbb");
  fault::FaultInjectingStreambuf buf(is.rdbuf(), nullptr,
                                     fault::kSiteLoadRead);
  std::istream faulty(&buf);
  char block[4];
  faulty.read(block, 4);
  EXPECT_TRUE(faulty.good());
  EXPECT_EQ(std::string(block, 4), "aaaa");
  faulty.read(block, 4);  // second get: the site fires, short read
  EXPECT_FALSE(faulty.good());
}

// ------------------------------------------------- lifecycle sweeps --

/// Non-trivial model + expectations for the lifecycle sweeps: naive
/// bayes gives row-dependent predictions, so served output actually
/// checks the loaded model.
struct Lifecycle {
  Lifecycle()
      : data(MakeParityDataset(160, {5, 4, 6}, 77)),
        views(MakeParityViews(data, 78)) {
    EXPECT_TRUE(model.Fit(views.train).ok());
    expected = model.PredictAll(views.test);
  }

  Dataset data;
  test::ParityViews views;
  ml::NaiveBayes model;
  std::vector<uint8_t> expected;
};

/// Serves `views.test` through `served` and returns the predictions.
std::vector<uint8_t> ServePredictions(const ml::Classifier& served,
                                      const DataView& view) {
  std::ostringstream requests;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    for (size_t j = 0; j < view.num_features(); ++j) {
      if (j > 0) requests << ' ';
      requests << view.feature(i, j);
    }
    requests << '\n';
  }
  std::istringstream in(requests.str());
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.batch_size = 32;
  const auto summary = serve::ServeStream(served, in, out, err, config);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  std::vector<uint8_t> preds;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    preds.push_back(static_cast<uint8_t>(line == "1" ? 1 : 0));
  }
  return preds;
}

TEST(FaultSweepTest, EverySaveFaultLeavesTheOldModelIntact) {
  FaultGuard guard;
  Lifecycle fx;
  const std::string path =
      testing::TempDir() + "/hamlet_fault_save_sweep.hmlm";
  const std::string tmp = TempSiblingOf(path);

  for (const char* site :
       {fault::kSiteSaveOpen, fault::kSiteSaveWrite, fault::kSiteSaveFsync,
        fault::kSiteSaveRename}) {
    SCOPED_TRACE(site);
    // A good previous model version is on disk.
    fault::Clear();
    ASSERT_TRUE(io::SaveModelToFile(fx.model, path).ok());

    // The new save hits a persistent fault at this site.
    ASSERT_TRUE(fault::InstallSpec(std::string(site) + ":always").ok());
    const Status st = io::SaveModelToFile(fx.model, path);
    ASSERT_FALSE(st.ok());
    EXPECT_GE(fault::FireCount(site), 1u);

    // Clean failure: no temp sibling survives, and the previous file
    // still loads and predicts — a crashed save never corrupts serving.
    fault::Clear();
    EXPECT_FALSE(FileExists(tmp)) << st.ToString();
    auto loaded = io::LoadModelFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->PredictAll(fx.views.test), fx.expected);
  }
  std::remove(path.c_str());
}

TEST(FaultSweepTest, TransientLoadFaultsAreAbsorbedByRetry) {
  FaultGuard guard;
  Lifecycle fx;
  const std::string path =
      testing::TempDir() + "/hamlet_fault_load_retry.hmlm";
  ASSERT_TRUE(io::SaveModelToFile(fx.model, path).ok());

  for (const char* site : {fault::kSiteLoadOpen, fault::kSiteLoadRead}) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(fault::InstallSpec(std::string(site) + ":nth=1").ok());

    // The plain load surfaces the transient fault as a Status...
    auto direct = io::LoadModelFromFile(path);
    ASSERT_FALSE(direct.ok());

    // ...and with the fault armed again, the retry wrapper absorbs it.
    ASSERT_TRUE(fault::InstallSpec(std::string(site) + ":nth=1").ok());
    auto retried = io::LoadModelFromFileWithRetry(path);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(fault::FireCount(site), 1u);
    EXPECT_EQ(retried.value()->PredictAll(fx.views.test), fx.expected);
  }
  std::remove(path.c_str());
}

TEST(FaultSweepTest, RetryGivesUpOnPersistentFaults) {
  FaultGuard guard;
  Lifecycle fx;
  const std::string path =
      testing::TempDir() + "/hamlet_fault_retry_exhaust.hmlm";
  ASSERT_TRUE(io::SaveModelToFile(fx.model, path).ok());
  ASSERT_TRUE(fault::InstallSpec("io.load.open:always").ok());

  io::LoadRetryConfig config;
  config.max_attempts = 2;
  config.initial_backoff = std::chrono::milliseconds(0);
  const auto loaded = io::LoadModelFromFileWithRetry(path, config);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(loaded.status().message().find("after 2 attempts"),
            std::string::npos);
  EXPECT_EQ(fault::CallCount(fault::kSiteLoadOpen), 2u);
  fault::Clear();
  std::remove(path.c_str());
}

TEST(FaultSweepTest, PermanentFailuresAreNotRetried) {
  FaultGuard guard;
  Lifecycle fx;
  const std::string path =
      testing::TempDir() + "/hamlet_fault_permanent.hmlm";
  ASSERT_TRUE(io::SaveModelToFile(fx.model, path).ok());

  // Corrupt the stored checksum: the load fails with kDataLoss, which
  // the retry wrapper must treat as permanent — exactly one attempt.
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    std::string bytes = ss.str();
    bytes[bytes.size() - 8] =
        static_cast<char>(bytes[bytes.size() - 8] ^ 0x10);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  // Arm a far-off rule just to enable the passive call counters.
  ASSERT_TRUE(fault::InstallSpec("io.save.open:nth=1000").ok());
  const auto loaded = io::LoadModelFromFileWithRetry(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(fault::CallCount(fault::kSiteLoadOpen), 1u);
  std::remove(path.c_str());
}

TEST(FaultSweepTest, EverySiteClearsThroughTheFullLifecycle) {
  // The headline sweep: for each known site, arm a one-shot fault and
  // run save -> load-with-retry -> serve. The transient fault fires
  // exactly once somewhere in the pipeline; the pipeline's own recovery
  // (re-save after a failed save, retrying load) absorbs it, and the
  // served predictions still match the in-memory model bit for bit.
  FaultGuard guard;
  Lifecycle fx;
  const std::string path =
      testing::TempDir() + "/hamlet_fault_lifecycle.hmlm";
  const std::string tmp = TempSiblingOf(path);

  for (const std::string& site : fault::KnownSites()) {
    SCOPED_TRACE(site);
    std::remove(path.c_str());
    ASSERT_TRUE(fault::InstallSpec(site + ":nth=1").ok());

    Status saved = io::SaveModelToFile(fx.model, path);
    if (!saved.ok()) {
      // A save-site fault: clean failure, then the operator's natural
      // reaction — save again — succeeds with the fault consumed.
      EXPECT_FALSE(FileExists(tmp));
      saved = io::SaveModelToFile(fx.model, path);
    }
    ASSERT_TRUE(saved.ok()) << saved.ToString();

    auto loaded = io::LoadModelFromFileWithRetry(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(fault::FireCount(site), 1u) << "site never fired";

    EXPECT_EQ(ServePredictions(*loaded.value(), fx.views.test),
              fx.expected);
    EXPECT_FALSE(FileExists(tmp));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hamlet
