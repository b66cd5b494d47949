// Serving-layer tests: request parsing/validation (including a seeded
// differential fuzz of the request and unsigned parsers against
// parse_oracle.h), batching, stats, and parity between served
// predictions and the in-process PredictAll path (including through a
// Save/Load round trip, which is how hamlet_serve actually gets its
// model).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/common/stringx.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/majority.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/serve/server.h"
#include "hamlet/serve/stats.h"
#include "parity_util.h"
#include "parse_oracle.h"

namespace hamlet {
namespace {

using test::MakeParityDataset;
using test::MakeParityViews;
using test::ParityLearner;
using test::ParityLearners;
using test::ScopedEnvVar;
using test::ScopedThreads;

/// Renders `view`'s rows as request lines in the serve wire format.
std::string RequestLines(const DataView& view) {
  std::ostringstream os;
  for (size_t i = 0; i < view.num_rows(); ++i) {
    for (size_t j = 0; j < view.num_features(); ++j) {
      if (j > 0) os << ' ';
      os << view.feature(i, j);
    }
    os << '\n';
  }
  return os.str();
}

/// Parses serve output ("0\n1\n...") back into a label vector.
std::vector<uint8_t> ParsePredictions(const std::string& out) {
  std::vector<uint8_t> preds;
  for (char c : out) {
    if (c == '0' || c == '1') preds.push_back(c == '1' ? 1 : 0);
  }
  return preds;
}

TEST(ServeTest, ServedPredictionsMatchPredictAllThroughSaveLoad) {
  const Dataset data = MakeParityDataset(200, {6, 4, 7, 3}, 41);
  const auto views = MakeParityViews(data, 42);
  const std::string requests = RequestLines(views.test);

  for (const ParityLearner& learner : ParityLearners()) {
    SCOPED_TRACE(learner.name);
    auto model = learner.make();
    ASSERT_TRUE(model->Fit(views.train).ok());
    const std::vector<uint8_t> expected = model->PredictAll(views.test);

    // Round-trip through the model format, as hamlet_serve does.
    std::ostringstream saved(std::ios::binary);
    ASSERT_TRUE(io::SaveModel(*model, saved).ok());
    std::istringstream loaded_is(saved.str(), std::ios::binary);
    auto loaded = io::LoadModel(loaded_is);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    for (const char* threads : {"1", "4"}) {
      ScopedThreads scoped(threads);
      std::istringstream in(requests);
      std::ostringstream out, err;
      serve::ServeConfig config;
      config.batch_size = 64;  // multiple batches over 67 test rows
      const auto summary =
          serve::ServeStream(*loaded.value(), in, out, err, config);
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      EXPECT_EQ(ParsePredictions(out.str()), expected)
          << "threads=" << threads;
      EXPECT_EQ(summary.value().rows, views.test.num_rows());
      EXPECT_EQ(summary.value().batches,
                (views.test.num_rows() + 63) / 64);
      EXPECT_GE(summary.value().p99_us, summary.value().p50_us);
    }
  }
}

TEST(ServeTest, SkipsBlanksAndCommentsAndAcceptsSeparators) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  std::istringstream in(
      "# header comment\n"
      "\n"
      "1 2\n"
      "  \t\n"
      "3,1\r\n"
      "0\t3\n");
  std::ostringstream out, err;
  const auto summary = serve::ServeStream(model, in, out, err);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 3u);
  EXPECT_EQ(ParsePredictions(out.str()).size(), 3u);
}

TEST(ServeTest, MalformedRequestsFailWithLineNumbers) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  struct Case {
    const char* request;
    StatusCode code;
  };
  const Case cases[] = {
      {"1 2\nnope 3\n", StatusCode::kInvalidArgument},  // non-numeric
      {"1\n", StatusCode::kInvalidArgument},            // too few fields
      {"1 2 3\n", StatusCode::kInvalidArgument},        // too many fields
      {"9 2\n", StatusCode::kOutOfRange},               // out of domain
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.request);
    std::istringstream in(c.request);
    std::ostringstream out, err;
    const auto summary = serve::ServeStream(model, in, out, err);
    ASSERT_FALSE(summary.ok());
    EXPECT_EQ(summary.status().code(), c.code);
    EXPECT_NE(summary.status().message().find("line"), std::string::npos);
  }
}

TEST(ServeTest, UnfittedModelIsRejected) {
  ml::MajorityClassifier model;
  std::istringstream in("1 2\n");
  std::ostringstream out, err;
  const auto summary = serve::ServeStream(model, in, out, err);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServeTest, BatchSizeEnvKnob) {
  {
    ScopedEnvVar env("HAMLET_SERVE_BATCH", "2");
    EXPECT_EQ(serve::ConfiguredBatchSize(), 2u);
  }
  {
    ScopedEnvVar env("HAMLET_SERVE_BATCH", nullptr);
    EXPECT_EQ(serve::ConfiguredBatchSize(), 2048u);
  }
  // Invalid values warn (once) and fall back to the default. Digits
  // only: strtol used to read "+2" and " 2" as 2.
  for (const char* bad : {"zero", "0", "10000001", "+2", " 2", "2 "}) {
    ScopedEnvVar env("HAMLET_SERVE_BATCH", bad);
    EXPECT_EQ(serve::ConfiguredBatchSize(), 2048u) << "value \"" << bad
                                                   << "\"";
  }

  // The knob drives batching end to end.
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  ScopedEnvVar env("HAMLET_SERVE_BATCH", "2");
  std::istringstream in("1 2\n3 1\n0 3\n");
  std::ostringstream out, err;
  const auto summary = serve::ServeStream(model, in, out, err);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().batches, 2u);
}

TEST(ServeTest, StatsSummaryPercentilesAreNearestRank) {
  serve::LatencyStats stats;
  // 100 batches at 1..100 us (recorded in seconds).
  for (int us = 1; us <= 100; ++us) {
    stats.RecordBatch(10, static_cast<double>(us) * 1e-6);
  }
  const serve::StatsSummary s = stats.Summarize();
  EXPECT_EQ(s.rows, 1000u);
  EXPECT_EQ(s.batches, 100u);
  EXPECT_NEAR(s.p50_us, 50.0, 1e-6);
  EXPECT_NEAR(s.p99_us, 99.0, 1e-6);
  EXPECT_GT(s.preds_per_sec, 0.0);
}

TEST(ServeTest, ZeroBatchSummaryIsAllZeros) {
  // No served batches (empty stream, all-comment stream, all-error
  // stream): every summary field must be a plain zero — no NaN from
  // 0/0, no garbage percentile from an empty sample vector.
  serve::LatencyStats stats;
  stats.RecordError();
  const serve::StatsSummary s = stats.Summarize();
  EXPECT_EQ(s.rows, 0u);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.model_seconds, 0.0);
  EXPECT_EQ(s.preds_per_sec, 0.0);
  EXPECT_EQ(s.p50_us, 0.0);
  EXPECT_EQ(s.p99_us, 0.0);
}

/// Splits serve output into its lines (predictions and ERR lines).
std::vector<std::string> OutputLines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(ServeTest, OutOfDomainErrQuotesTheCodeAsSent) {
  // strtoull saturates at 2^64 - 1, so the message must quote the digit
  // run from the request, not the parsed value.
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  std::istringstream in(
      "18446744073709551616 0\n"
      "1 99999999999999999999999\n"
      "0007 1\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(OutputLines(out.str()),
            (std::vector<std::string>{
                "ERR 1: code 18446744073709551616 outside feature 0's "
                "domain [0, 5)",
                "ERR 2: code 99999999999999999999999 outside feature 1's "
                "domain [0, 4)",
                "ERR 3: code 0007 outside feature 0's domain [0, 5)"}));
}

TEST(ServeTest, ResilientModeEmitsErrLinesInRequestOrder) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  // Good and bad lines interleaved; one output line per request, in
  // request order, even though predictions flush in batches.
  std::istringstream in(
      "1 2\n"
      "oops\n"   // line 2: non-numeric
      "3 1\n"
      "9 2\n"    // line 4: out of domain
      "0 3\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.batch_size = 64;  // all valid rows would fit one batch
  config.on_error = serve::OnError::kSkip;
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 3u);
  EXPECT_EQ(summary.value().errors, 2u);

  const std::vector<std::string> lines = OutputLines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(lines[0] == "0" || lines[0] == "1");
  EXPECT_EQ(lines[1].rfind("ERR 2: ", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("unsigned integer"), std::string::npos);
  EXPECT_TRUE(lines[2] == "0" || lines[2] == "1");
  EXPECT_EQ(lines[3].rfind("ERR 4: ", 0), 0u) << lines[3];
  EXPECT_NE(lines[3].find("domain"), std::string::npos);
  EXPECT_TRUE(lines[4] == "0" || lines[4] == "1");
}

TEST(ServeTest, ResilientModeAllErrorStreamServesZeroRows) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  std::istringstream in("bad\nalso bad\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 0u);
  EXPECT_EQ(summary.value().batches, 0u);
  EXPECT_EQ(summary.value().errors, 2u);
  EXPECT_EQ(summary.value().preds_per_sec, 0.0);
  const std::vector<std::string> lines = OutputLines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR 1: ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ERR 2: ", 0), 0u);
}

TEST(ServeTest, ErrorBudgetAbortsTheRun) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  std::istringstream in("bad1\n1 2\nbad2\nbad3\n2 3\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  config.max_errors = 2;
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(summary.status().message().find("error budget exceeded"),
            std::string::npos);
  // The first two rejects still produced ERR lines before the abort.
  const std::vector<std::string> lines = OutputLines(out.str());
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR 1: ", 0), 0u);
}

TEST(ServeTest, OnErrorEnvKnobs) {
  {
    ScopedEnvVar env("HAMLET_SERVE_ON_ERROR", "skip");
    EXPECT_EQ(serve::ConfiguredOnError(), serve::OnError::kSkip);
  }
  {
    ScopedEnvVar env("HAMLET_SERVE_ON_ERROR", "abort");
    EXPECT_EQ(serve::ConfiguredOnError(), serve::OnError::kAbort);
  }
  {
    ScopedEnvVar env("HAMLET_SERVE_ON_ERROR", nullptr);
    EXPECT_EQ(serve::ConfiguredOnError(), serve::OnError::kAbort);
  }
  // Invalid values warn (once) and fall back to strict.
  for (const char* bad : {"retry", "Skip", " skip", "skip "}) {
    ScopedEnvVar env("HAMLET_SERVE_ON_ERROR", bad);
    EXPECT_EQ(serve::ConfiguredOnError(), serve::OnError::kAbort)
        << "value \"" << bad << "\"";
  }
  {
    ScopedEnvVar env("HAMLET_SERVE_MAX_ERRORS", "3");
    EXPECT_EQ(serve::ConfiguredMaxErrors(), 3u);
  }
  {
    ScopedEnvVar env("HAMLET_SERVE_MAX_ERRORS", nullptr);
    EXPECT_EQ(serve::ConfiguredMaxErrors(), serve::kUnlimitedErrors);
  }
  // Invalid values warn (once) and mean unlimited. Digits only, and no
  // overflow: strtol used to read "+3" and " 3" as 3, and clamp
  // "99999999999999999999" to LONG_MAX.
  for (const char* bad : {"-1", "many", "+3", " 3", "99999999999999999999"}) {
    ScopedEnvVar env("HAMLET_SERVE_MAX_ERRORS", bad);
    EXPECT_EQ(serve::ConfiguredMaxErrors(), serve::kUnlimitedErrors)
        << "value \"" << bad << "\"";
  }
  {
    // 0 is a real budget (tolerate no errors), not the old "invalid,
    // fall back to unlimited" — a zero-tolerance deployment must be
    // expressible.
    ScopedEnvVar env("HAMLET_SERVE_MAX_ERRORS", "0");
    EXPECT_EQ(serve::ConfiguredMaxErrors(), 0u);
  }

  // The env drives ServeStream end to end when the config says kEnv.
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  ScopedEnvVar env("HAMLET_SERVE_ON_ERROR", "skip");
  std::istringstream in("nope\n1 2\n");
  std::ostringstream out, err;
  const auto summary = serve::ServeStream(model, in, out, err);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().errors, 1u);
  EXPECT_EQ(summary.value().rows, 1u);
}

/// Fits a MajorityClassifier over domains {5, 4} whose constant
/// prediction is `label`.
std::unique_ptr<ml::MajorityClassifier> MakeConstantModel(uint8_t label) {
  std::vector<FeatureSpec> specs(2);
  specs[0] = {"f0", 5, FeatureRole::kHome};
  specs[1] = {"f1", 4, FeatureRole::kHome};
  Dataset data(std::move(specs));
  data.Reserve(8);
  for (size_t i = 0; i < 8; ++i) {
    data.AppendRowUnchecked({static_cast<uint32_t>(i % 5),
                             static_cast<uint32_t>(i % 4)},
                            label);
  }
  auto model = std::make_unique<ml::MajorityClassifier>();
  EXPECT_TRUE(model->Fit(DataView(&data)).ok());
  return model;
}

TEST(ServeTest, ZeroErrorBudgetAbortsOnFirstRejectedLine) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  std::istringstream in("1 2\nbad\n3 1\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  config.max_errors = 0;  // explicitly zero, not "unset"
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(summary.status().message().find("error budget exceeded"),
            std::string::npos);
}

TEST(ServeTest, LiveTickerFinishBlanksTheWidestPaintedLine) {
  std::ostringstream os;
  serve::LiveTicker ticker(os, /*enabled=*/true,
                           std::chrono::milliseconds(0));
  serve::LatencyStats stats;
  // A huge rows count and a tiny batch time make ops/s astronomically
  // wide: the painted line overflows the 100 columns the old Finish
  // blanked, which left stale ticker text on screen after the summary.
  stats.RecordBatch(static_cast<size_t>(1) << 60, 1e-12);
  ticker.MaybeTick(stats);
  const size_t width = ticker.painted_width();
  EXPECT_GT(width, 100u);
  const size_t before = os.str().size();
  ticker.Finish();
  // Finish must blank exactly the widest painted line, no more, no less.
  EXPECT_EQ(os.str().substr(before),
            "\r" + std::string(width, ' ') + "\r");
}

/// MajorityClassifier that reports its destruction: the probe for the
/// hot-reload lifetime contract (a displaced model must outlive the
/// poll call that displaced it).
class DestructionProbe : public ml::MajorityClassifier {
 public:
  explicit DestructionProbe(bool* destroyed) : destroyed_(destroyed) {}
  ~DestructionProbe() override { *destroyed_ = true; }

 private:
  bool* destroyed_;
};

/// Fits a DestructionProbe over domains {5, 4} predicting `label`.
std::unique_ptr<DestructionProbe> MakeConstantProbe(uint8_t label,
                                                    bool* destroyed) {
  std::vector<FeatureSpec> specs(2);
  specs[0] = {"f0", 5, FeatureRole::kHome};
  specs[1] = {"f1", 4, FeatureRole::kHome};
  Dataset data(std::move(specs));
  data.Reserve(8);
  for (size_t i = 0; i < 8; ++i) {
    data.AppendRowUnchecked({static_cast<uint32_t>(i % 5),
                             static_cast<uint32_t>(i % 4)},
                            label);
  }
  auto model = std::make_unique<DestructionProbe>(destroyed);
  EXPECT_TRUE(model->Fit(DataView(&data)).ok());
  return model;
}

TEST(ServeTest, ModelSlotKeepsDisplacedModelAliveUntilNextSwap) {
  bool a_destroyed = false, b_destroyed = false, c_destroyed = false;
  serve::ModelSlot slot(MakeConstantProbe(0, &a_destroyed));
  const ml::Classifier* a = slot.current();

  const ml::Classifier* b =
      slot.Swap(MakeConstantProbe(1, &b_destroyed));
  EXPECT_EQ(slot.current(), b);
  EXPECT_NE(a, b);
  // The regression: the old reload hook did `current = move(fresh)`,
  // destroying A inside the poll call while ServeStream still held the
  // raw pointer it polled with. The slot must park A instead.
  EXPECT_FALSE(a_destroyed);

  slot.Swap(MakeConstantProbe(0, &c_destroyed));
  EXPECT_TRUE(a_destroyed);   // retired by the *following* swap only
  EXPECT_FALSE(b_destroyed);  // now parked in the retired slot
  EXPECT_FALSE(c_destroyed);
}

TEST(ServeTest, ModelSlotSwapAndCurrentAreThreadSafeUnderTsan) {
  // Regression (TSan-visible): ModelSlot::current()/Swap() used to
  // touch the unique_ptr members with no synchronization, so a reload
  // thread swapping while the serving loop polled current() raced on
  // the pointer itself. ModelSlot now locks internally; under
  // -DHAMLET_TSAN=ON this test drives that exact interleaving and must
  // come up clean. The poller only compares pointers — dereferencing
  // is governed by the separate park-until-next-swap contract covered
  // by the two tests around this one.
  bool scratch = false;  // outlives the slot; every probe dtor hits it
  serve::ModelSlot slot(MakeConstantProbe(0, &scratch));
  // Poll through const — the overload the serving loop uses.
  const serve::ModelSlot& reader_view = slot;
  std::atomic<bool> done{false};
  size_t null_polls = 0;
  std::thread poller([&] {
    while (!done.load()) {
      if (reader_view.current() == nullptr) ++null_polls;
    }
  });
  for (int i = 0; i < 500; ++i) {
    slot.Swap(MakeConstantProbe(static_cast<uint8_t>(i % 2), &scratch));
  }
  done.store(true);
  poller.join();
  EXPECT_EQ(null_polls, 0u);
}

TEST(ServeTest, ModelSlotReloadPollKeepsServingModelValidMidCall) {
  bool a_destroyed = false, b_destroyed = false;
  serve::ModelSlot slot(MakeConstantProbe(0, &a_destroyed));

  std::istringstream in("1 2\n3 1\n0 3\n2 0\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.batch_size = 2;
  size_t polls = 0;
  config.model_poll = [&]() -> const ml::Classifier* {
    if (++polls != 2) return nullptr;
    // Swap mid-call, the way hamlet_serve's SIGHUP hook does. Under
    // ASan this is also a use-after-free canary: ServeStream's `active`
    // pointer (model A) must still be alive right now.
    const ml::Classifier* fresh =
        slot.Swap(MakeConstantProbe(1, &b_destroyed));
    EXPECT_FALSE(a_destroyed);
    return fresh;
  };
  const auto summary = serve::ServeStream(*slot.current(), in, out, err,
                                          config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(polls, 2u);
  // Batch 1 served by A (label 0), batch 2 by the swapped-in B.
  EXPECT_EQ(OutputLines(out.str()),
            (std::vector<std::string>{"0", "0", "1", "1"}));
  EXPECT_FALSE(a_destroyed);  // still parked in the slot
  EXPECT_FALSE(b_destroyed);
}

TEST(ServeTest, ModelPollHotSwapsAtBatchBoundary) {
  auto model_a = MakeConstantModel(0);
  auto model_b = MakeConstantModel(1);

  // Six requests, batch size 2: poll fires at each of the three batch
  // boundaries; the second poll swaps in model B mid-stream.
  std::istringstream in("1 2\n3 1\n0 3\n2 0\n4 1\n1 1\n");
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.batch_size = 2;
  size_t polls = 0;
  config.model_poll = [&]() -> const ml::Classifier* {
    ++polls;
    return polls == 2 ? model_b.get() : nullptr;
  };
  const auto summary = serve::ServeStream(*model_a, in, out, err, config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(polls, 3u);
  EXPECT_EQ(summary.value().rows, 6u);
  // Batch 1 served by A (label 0), batches 2 and 3 by B (label 1).
  EXPECT_EQ(OutputLines(out.str()),
            (std::vector<std::string>{"0", "0", "1", "1", "1", "1"}));
}

TEST(ServeTest, ValidateReloadedModelChecksDomains) {
  auto current = MakeConstantModel(0);

  // Identical domains: safe to swap.
  EXPECT_TRUE(
      serve::ValidateReloadedModel(*current, *MakeConstantModel(1)).ok());

  // Unfitted candidate: no metadata, rejected.
  ml::MajorityClassifier unfitted;
  const Status no_meta = serve::ValidateReloadedModel(*current, unfitted);
  ASSERT_FALSE(no_meta.ok());
  EXPECT_EQ(no_meta.code(), StatusCode::kFailedPrecondition);

  // Differently-shaped candidate: rejected, old model kept.
  const Dataset other = MakeParityDataset(60, {3, 2, 6}, 11);
  ml::MajorityClassifier mismatched;
  ASSERT_TRUE(mismatched.Fit(DataView(&other)).ok());
  const Status st = serve::ValidateReloadedModel(*current, mismatched);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("keeping the old model"), std::string::npos);
}

TEST(ServeTest, BatcherRefusesOutOfDomainRowsAndReusesItsBatch) {
  const Dataset data = MakeParityDataset(200, {6, 4, 7, 3}, 41);
  ml::DecisionTree model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::vector<uint32_t> domains = model.train_domain_sizes();

  serve::LatencyStats stats;
  std::vector<std::pair<size_t, uint8_t>> emitted;
  serve::RequestBatcher batcher(
      model, domains, 3, nullptr, stats,
      [&emitted](size_t row, uint8_t p) -> Status {
        emitted.emplace_back(row, p);
        return Status::OK();
      });
  const std::vector<uint32_t> bad = {0, 4, 0, 0};  // feature 1 is [0, 4)
  const Status refused = batcher.Add(bad.data());
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(refused.message(), "code out of domain for feature 'f1'");
  EXPECT_EQ(batcher.pending(), 0u);

  // Seven rows at batch size 3: two full batches flush inside Add, the
  // last row on Flush. Every prediction matches the model's own, and
  // carries its row's index in its batch.
  const DataView view(&data);
  for (size_t i = 0; i < 7; ++i) {
    const std::vector<uint32_t> row = test::RowCodes(view, i);
    ASSERT_TRUE(batcher.Add(row.data()).ok());
  }
  EXPECT_EQ(batcher.pending(), 1u);
  ASSERT_TRUE(batcher.Flush().ok());
  ASSERT_EQ(emitted.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(emitted[i].first, i % 3);
    EXPECT_EQ(emitted[i].second, model.Predict(view, i)) << "row " << i;
  }
  EXPECT_EQ(stats.Summarize().batches, 3u);
}

TEST(ServeTest, BatcherRefusedRowTakesNoBatchIndex) {
  const Dataset data = MakeParityDataset(120, {5, 4, 3}, 17);
  ml::DecisionTree model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  serve::LatencyStats stats;
  std::vector<std::pair<size_t, uint8_t>> emitted;
  serve::RequestBatcher batcher(
      model, model.train_domain_sizes(), 8, nullptr, stats,
      [&emitted](size_t row, uint8_t p) -> Status {
        emitted.emplace_back(row, p);
        return Status::OK();
      });
  // good, refused, good: the two staged rows are indices 0 and 1.
  const DataView view(&data);
  const std::vector<uint32_t> first = test::RowCodes(view, 0);
  const std::vector<uint32_t> bad = {0, 0, 3};  // feature 2 is [0, 3)
  const std::vector<uint32_t> second = test::RowCodes(view, 1);
  ASSERT_TRUE(batcher.Add(first.data()).ok());
  EXPECT_EQ(batcher.Add(bad.data()).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(batcher.Add(second.data()).ok());
  EXPECT_EQ(batcher.pending(), 2u);
  ASSERT_TRUE(batcher.Flush().ok());
  EXPECT_EQ(batcher.pending(), 0u);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].first, 0u);
  EXPECT_EQ(emitted[0].second, model.Predict(view, 0));
  EXPECT_EQ(emitted[1].first, 1u);
  EXPECT_EQ(emitted[1].second, model.Predict(view, 1));
  EXPECT_EQ(stats.Summarize().batches, 1u);
}

TEST(ServeTest, NulByteLineIsRejectedAndItsNeighboursServed) {
  // A C-string walk would stop at the NUL and serve "1 2".
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const std::string requests =
      "1 2\n" + std::string("1 2\0junk\n", 9) + "3 1\n";

  std::istringstream in(requests);
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  const auto summary = serve::ServeStream(model, in, out, err, config);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 2u);
  EXPECT_EQ(summary.value().errors, 1u);
  const std::vector<std::string> lines = OutputLines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[0] == "0" || lines[0] == "1");
  EXPECT_EQ(lines[1], "ERR 2: request line contains a NUL byte");
  EXPECT_TRUE(lines[2] == "0" || lines[2] == "1");

  std::istringstream strict_in(requests);
  std::ostringstream strict_out, strict_err;
  const auto strict =
      serve::ServeStream(model, strict_in, strict_out, strict_err);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(strict.status().message(),
            "request line 2: request line contains a NUL byte");
}

// ------------------------------------------------------ parser fuzzing --

/// `s` with every byte outside printable ASCII written as \xNN, for
/// failure messages.
std::string Printable(const std::string& s) {
  std::string out;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      const char* hex = "0123456789abcdef";
      out += "\\x";
      out += hex[u >> 4];
      out += hex[u & 15];
    }
  }
  return out;
}

/// Seeded request lines aimed at the parser's edges: every separator,
/// CR, signs and base prefixes, digit runs of 19-25 digits around 2^64,
/// field counts from none to two too many, out-of-domain codes, and
/// byte mutations (NUL included) on top.
class RequestLineFuzzer {
 public:
  RequestLineFuzzer(uint64_t seed, std::vector<uint32_t> domains)
      : rng_(seed), domains_(std::move(domains)) {}

  /// One field for position `j` (which may be past the last feature).
  std::string Token(size_t j) {
    const uint64_t domain = j < domains_.size() ? domains_[j] : 5;
    switch (rng_.UniformInt(10)) {
      case 0:
      case 1:
      case 2:
        return std::to_string(rng_.UniformInt(domain));
      case 3:  // just past the domain, or past 32 bits
        return std::to_string(rng_.Bernoulli(0.5)
                                  ? domain + rng_.UniformInt(3)
                                  : (uint64_t{1} << 32) + rng_.UniformInt(3));
      case 4:
        return LongDigitRun(domain);
      case 5: {
        static const char* const kPrefixes[] = {"+", "-", "0x", "0X", "-0"};
        return kPrefixes[rng_.UniformInt(5)] +
               std::to_string(rng_.UniformInt(domain));
      }
      case 6: {
        static const char* const kJunk[] = {"abc", "1.5", "1e3", "nope",
                                            "#",   "/x",  "7a",  "\r"};
        return kJunk[rng_.UniformInt(8)];
      }
      case 7:
        return std::to_string(rng_.UniformInt(domain)) + "\r";
      default:
        return std::string(1 + rng_.UniformInt(3), '0') +
               std::to_string(rng_.UniformInt(domain));
    }
  }

  std::string Line() {
    const size_t n = domains_.size();
    const size_t fields = rng_.Bernoulli(0.5) ? n : rng_.UniformInt(n + 3);
    std::string line;
    if (rng_.Bernoulli(0.2)) line += Separator();
    for (size_t j = 0; j < fields; ++j) {
      if (j > 0) line += Separator();
      line += Token(j);
    }
    if (rng_.Bernoulli(0.2)) line += Separator();
    if (rng_.Bernoulli(0.1)) line += '\r';
    if (rng_.Bernoulli(0.3)) Mutate(line);
    return line;
  }

 private:
  /// A 19-25 digit run: 2^64 - 1 or 2^64 with an optional tail, leading
  /// zeros in front of an in-domain code, or random digits.
  std::string LongDigitRun(uint64_t domain) {
    const size_t length = 19 + rng_.UniformInt(7);
    switch (rng_.UniformInt(4)) {
      case 0:
        return std::string("18446744073709551615").substr(0, length) +
               std::string(length > 20 ? length - 20 : 0, '0');
      case 1:
        return "18446744073709551616" +
               std::string(length > 20 ? length - 20 : 0, '9');
      case 2: {
        const std::string code = std::to_string(rng_.UniformInt(domain));
        return std::string(length - code.size(), '0') + code;
      }
      default: {
        std::string run;
        for (size_t k = 0; k < length; ++k) {
          run += static_cast<char>('0' + rng_.UniformInt(10));
        }
        return run;
      }
    }
  }

  std::string Separator() {
    static const char kSeparators[] = {' ', '\t', ','};
    std::string sep(1, kSeparators[rng_.UniformInt(3)]);
    if (rng_.Bernoulli(0.25)) sep += kSeparators[rng_.UniformInt(3)];
    return sep;
  }

  char RandomByte() {
    return rng_.Bernoulli(0.2) ? '\0'
                               : static_cast<char>(rng_.UniformInt(256));
  }

  void Mutate(std::string& line) {
    const size_t ops = 1 + rng_.UniformInt(3);
    for (size_t k = 0; k < ops; ++k) {
      const size_t at = rng_.UniformInt(line.size() + 1);
      switch (rng_.UniformInt(3)) {
        case 0:
          if (at < line.size()) line[at] = RandomByte();
          break;
        case 1:
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                      RandomByte());
          break;
        default:
          if (at < line.size()) {
            line.erase(at, 1 + rng_.UniformInt(3));
          }
          break;
      }
    }
  }

  Rng rng_;
  std::vector<uint32_t> domains_;
};

/// The library parser against the oracle on one line: same code, same
/// message and, on success, the same codes. A line holding a NUL is the
/// one intended difference: it must be rejected as malformed.
::testing::AssertionResult SameRequestParse(
    const std::string& line, const std::vector<uint32_t>& domains) {
  std::vector<uint32_t> got_codes;
  const Status got = serve::ParseRequest(line, domains, got_codes);
  if (line.find('\0') != std::string::npos) {
    if (got.code() == StatusCode::kInvalidArgument &&
        got.message() == "request line contains a NUL byte") {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "NUL line \"" << Printable(line) << "\" got "
           << got.ToString();
  }
  std::vector<uint32_t> want_codes;
  const Status want = test::OracleParseRequest(line, domains, want_codes);
  if (got.code() != want.code() || got.message() != want.message() ||
      (want.ok() && got_codes != want_codes)) {
    return ::testing::AssertionFailure()
           << "line \"" << Printable(line) << "\": got " << got.ToString()
           << ", oracle " << want.ToString();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameUnsignedParse(const std::string& s) {
  const Result<uint64_t> got = ParseUnsigned(s);
  const Result<uint64_t> want = test::OracleParseUnsigned(s);
  const bool same =
      got.ok() == want.ok() &&
      (got.ok() ? got.value() == want.value()
                : got.status().code() == want.status().code() &&
                      got.status().message() == want.status().message());
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "\"" << Printable(s) << "\": got "
         << (got.ok() ? std::to_string(got.value()) : got.status().ToString())
         << ", oracle "
         << (want.ok() ? std::to_string(want.value())
                       : want.status().ToString());
}

TEST(ParserFuzzTest, RequestAndUnsignedParsersMatchTheOracle) {
  // Fixed budget and seeds: the same lines on every run, cheap enough
  // for the sanitizer legs.
  constexpr size_t kLinesPerDomainSet = 20000;
  const std::vector<std::vector<uint32_t>> domain_sets = {
      {8, 1, 300, 70000, 5}, {4294967295u, 2}};
  size_t accepted = 0, invalid = 0, out_of_range = 0, with_nul = 0;
  for (size_t set = 0; set < domain_sets.size(); ++set) {
    const std::vector<uint32_t>& domains = domain_sets[set];
    RequestLineFuzzer fuzzer(1000 + set, domains);
    for (size_t k = 0; k < kLinesPerDomainSet; ++k) {
      const std::string line = fuzzer.Line();
      ASSERT_TRUE(SameRequestParse(line, domains));
      ASSERT_TRUE(SameUnsignedParse(line));
      const std::string token = fuzzer.Token(k % (domains.size() + 1));
      ASSERT_TRUE(SameUnsignedParse(token));

      std::vector<uint32_t> codes;
      const Status st = serve::ParseRequest(line, domains, codes);
      with_nul += line.find('\0') != std::string::npos;
      accepted += st.ok();
      invalid += st.code() == StatusCode::kInvalidArgument;
      out_of_range += st.code() == StatusCode::kOutOfRange;
    }
  }
  // The generator must reach every outcome, not just the error paths.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(invalid, 2000u);
  EXPECT_GT(out_of_range, 2000u);
  EXPECT_GT(with_nul, 200u);
}

TEST(ParserFuzzTest, DigitRunSaturatesAndStopsAtTheFirstNonDigit) {
  EXPECT_EQ(ParseDigitRun("").length, 0u);
  EXPECT_EQ(ParseDigitRun("x1").length, 0u);
  const DigitRun max = ParseDigitRun("18446744073709551615 7");
  EXPECT_EQ(max.value, UINT64_MAX);
  EXPECT_EQ(max.length, 20u);
  EXPECT_FALSE(max.overflow);
  const DigitRun over = ParseDigitRun("184467440737095516160,1");
  EXPECT_EQ(over.value, UINT64_MAX);
  EXPECT_EQ(over.length, 21u);
  EXPECT_TRUE(over.overflow);
  const DigitRun zeros = ParseDigitRun("0000000000000000000000042");
  EXPECT_EQ(zeros.value, 42u);
  EXPECT_EQ(zeros.length, 25u);
  EXPECT_FALSE(zeros.overflow);
  const DigitRun nul = ParseDigitRun(std::string("12\0" "3", 4));
  EXPECT_EQ(nul.value, 12u);
  EXPECT_EQ(nul.length, 2u);
}

}  // namespace
}  // namespace hamlet
