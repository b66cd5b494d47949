// Unit tests for the benchmark's own arithmetic: span self time, the
// nearest-rank percentile rule, due-time latency under a stalled
// schedule, and the output oracle. Run: ctest --test-dir <build dir>
// (or the perfbench_test binary directly); exit 0 = all passed.

#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "hamlet/ml/classifier.h"
#include "openloop.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void TestSelfTime() {
  // No children: all of it is self time.
  CHECK(SelfTimeNs(0, 100, {}) == 100);
  // Two disjoint children.
  CHECK(SelfTimeNs(0, 100, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children on two threads count their union once.
  CHECK(SelfTimeNs(0, 100, {{10, 60}, {40, 90}}) == 20);
  // A child nested in another child, given out of order.
  CHECK(SelfTimeNs(0, 100, {{30, 40}, {20, 70}}) == 50);
  // A child running past its parent's end is clipped to the parent.
  CHECK(SelfTimeNs(0, 100, {{90, 150}}) == 90);
  // Children covering everything leave no self time.
  CHECK(SelfTimeNs(0, 100, {{0, 100}, {20, 30}}) == 0);
}

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // p50 of 1..100: rank ceil(50) = 50.
  std::optional<double> p50 = NearestRankPercentile(v, 50);
  CHECK(p50.has_value() && *p50 == 50);
  // p99 of 100 samples has one sample beyond it: not reported.
  CHECK(!NearestRankPercentile(v, 99).has_value());
  // p90 has exactly ten beyond it: reported, rank 90.
  std::optional<double> p90 = NearestRankPercentile(v, 90);
  CHECK(p90.has_value() && *p90 == 90);
  // With 1100 samples p99 is rank ceil(1089) = 1089, eleven beyond.
  std::vector<double> w;
  for (int i = 1100; i >= 1; --i) w.push_back(i);
  std::optional<double> p99 = NearestRankPercentile(w, 99);
  CHECK(p99.has_value() && *p99 == 1089);
  std::vector<double> empty;
  CHECK(!NearestRankPercentile(empty, 50).has_value());
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
}

void TestStalledSchedule() {
  // 1000 requests/s from t=0: request i is due at i ms.
  const OpenLoopSchedule schedule(0, 1000.0);
  CHECK(schedule.DueNs(0) == 0);
  CHECK(schedule.DueNs(7) == 7'000'000);

  // The generator stalls for the first 20 ms, then sends the 20 overdue
  // requests at once and each is answered 100 us after it was sent.
  StepRecorder recorder(1000.0);
  const int64_t sent = 20'000'000;
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.OnSend(schedule.DueNs(i), sent);
    recorder.OnResponse(schedule.DueNs(i), sent + 100'000, true);
  }
  // Ten more, on time, answered 100 us after their due time.
  for (uint64_t i = 20; i < 40; ++i) {
    recorder.OnSend(schedule.DueNs(i), schedule.DueNs(i));
    recorder.OnResponse(schedule.DueNs(i), schedule.DueNs(i) + 100'000, true);
  }
  const StepSummary s = recorder.Summarize(0, 40'000'000, 1e9);
  // Timed from the due time, request 0 waited the whole stall: 20.1 ms.
  // Timed from the send, every request would read 100 us.
  CHECK(s.latency_samples == 40);
  CHECK(s.p50_us.has_value() && std::fabs(*s.p50_us - 100.0) < 1e-6);
  std::optional<double> lag = s.gen_lag_p99_us;
  CHECK(!lag.has_value());  // 40 samples: too few for a p99
  CHECK(s.answered == 40 && s.failed == 0);
  StepRecorder big(1000.0);
  for (uint64_t i = 0; i < 1500; ++i) {
    const int64_t due = schedule.DueNs(i);
    const int64_t send = std::max<int64_t>(due, sent);
    big.OnSend(due, send);
    big.OnResponse(due, send + 100'000, true);
  }
  const StepSummary b = big.Summarize(0, 1'500'000'000, 1e9);
  // The 20 stalled requests are the worst 1.3%: their latency, 20.1 ms
  // down to 1.1 ms, is what p99 (rank 1485 of 1500) reports.
  CHECK(b.p99_us.has_value() && *b.p99_us > 100.0);
  CHECK(b.gen_lag_p99_us.has_value() && *b.gen_lag_p99_us > 0.0);
}

void TestBacklog() {
  std::vector<std::pair<int64_t, size_t>> flat, growing;
  for (int64_t t = 0; t < 100; ++t) {
    flat.emplace_back(t, 5);
    growing.emplace_back(t, static_cast<size_t>(10 * t));
  }
  CHECK(!BacklogGrowing(flat, 0, 100, 16));
  CHECK(BacklogGrowing(growing, 0, 100, 16));
}

/// Returns `flip`'s inverted prediction from PredictAll only.
class FlippingClassifier : public hamlet::ml::Classifier {
 public:
  explicit FlippingClassifier(size_t flip) : flip_(flip) {}
  hamlet::Status Fit(const hamlet::DataView&) override {
    return hamlet::Status::OK();
  }
  uint8_t Predict(const hamlet::DataView& view, size_t i) const override {
    return view.feature(i, 0) % 2;
  }
  std::vector<uint8_t> PredictAll(const hamlet::DataView& view) const override {
    std::vector<uint8_t> out = Classifier::PredictAll(view);
    if (flip_ < out.size()) out[flip_] ^= 1;
    return out;
  }
  std::string name() const override { return "flipping"; }

 private:
  size_t flip_;
};

void TestOracle() {
  const std::vector<uint8_t> want = {0, 1, 1, 0, 1};
  std::vector<uint8_t> got = want;
  CHECK(CountPredictionMismatches(got, want) == 0);
  got[3] ^= 1;  // one deliberately flipped prediction
  CHECK(CountPredictionMismatches(got, want) == 1);
  got.pop_back();  // a short vector: the missing row is wrong too
  CHECK(CountPredictionMismatches(got, want) == 2);

  hamlet::Dataset data({{"f0", 4, hamlet::FeatureRole::kHome, -1}});
  for (uint32_t i = 0; i < 8; ++i) data.AppendRowUnchecked({i % 4}, 0);
  const hamlet::DataView view(&data);
  CHECK(PredictAllMismatches(FlippingClassifier(100), view) == 0);
  CHECK(PredictAllMismatches(FlippingClassifier(5), view) == 1);

  CHECK(ResponseMatches("1", 1, 1));
  CHECK(!ResponseMatches("0", 1, 1));  // a flipped response
  CHECK(!ResponseMatches("1 ", 2, 1));

  const ResultTable ref = {{"Yelp ann JoinAll", "test=0.5"},
                           {"Yelp ann NoJoin", "test=0.6"}};
  CHECK(ParseTable(FormatTable(ref)) == ref);
  CHECK(CountTableMismatches(ref, ref, nullptr) == 0);
  ResultTable flipped = ref;
  flipped[1].second = "test=0.4";
  std::vector<std::string> notes;
  CHECK(CountTableMismatches(flipped, ref, &notes) == 1);
  CHECK(notes.size() == 1);
  CHECK(CountTableMismatches({ref[0]}, ref, nullptr) == 1);  // missing row
}

}  // namespace

int main() {
  TestSelfTime();
  TestNearestRank();
  TestStalledSchedule();
  TestBacklog();
  TestOracle();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
