// Serving throughput per learner family (extension bench, PR 6).
//
// For each serializable model family: fit on a synthetic training view,
// round-trip the model through the binary format (io::SaveModel /
// io::LoadModel — the loaded model is what a hamlet_serve process runs),
// then measure sustained batched prediction throughput: the query set is
// scored in HAMLET_SERVE_BATCH-row batches through PredictAll, repeated
// over several runs, and summarised as predictions/sec with nearest-rank
// p50/p99 batch latencies.
//
// After the table, one machine-parseable line per family:
//   [serving] model=dt-gini rows=12000 runs=3 seconds=0.042
//       preds_per_sec=285714.3 p50_us=350.0 p99_us=420.0 errors=0
//       (one line)
// errors counts rejected request lines; this bench feeds pre-validated
// batches, so it reports the StatsSummary counter (0 unless a run goes
// wrong) to keep the line's fields identical to hamlet_serve's [serve]
// line.
//
// A socket section follows (model=net-<family>): the same query stream
// served end to end through the serve/net TCP front-end — four
// concurrent line-protocol connections multiplexed onto shared batches.
// seconds/preds_per_sec there are wall-clock (parse + batching + socket
// I/O included), so the gap between net-<family> and <family> is the
// transport + framing overhead; p50/p99 remain per-batch model time
// from the server's own stats.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/ann/mlp.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/linear/logistic_regression.h"
#include "hamlet/ml/majority.h"
#include "hamlet/ml/nb/naive_bayes.h"
#include "hamlet/ml/svm/svm.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/serve/net/net_server.h"
#include "hamlet/serve/net/socket.h"
#include "hamlet/serve/server.h"
#include "hamlet/serve/stats.h"
#include "bench_util.h"

namespace hamlet {
namespace {

struct ServingSizes {
  size_t train_rows;
  size_t query_rows;
  size_t runs;
};

ServingSizes SizesFromMode() {
  switch (core::BenchModeFromEnv()) {
    case core::BenchMode::kSmoke:
      return {400, 2000, 3};
    case core::BenchMode::kQuick:
      return {1500, 20000, 5};
    case core::BenchMode::kFull:
      return {4000, 100000, 10};
  }
  return {1500, 20000, 5};
}

/// Deterministic categorical dataset with label signal on feature 0.
Dataset MakeServingDataset(size_t rows, uint64_t seed) {
  const std::vector<uint32_t> domains = {16, 8, 12, 6, 10, 4};
  std::vector<FeatureSpec> specs(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    specs[j].name = "f" + std::to_string(j);
    specs[j].domain_size = domains[j];
    specs[j].role = FeatureRole::kHome;
  }
  Dataset data(std::move(specs));
  data.Reserve(rows);
  Rng rng(seed);
  std::vector<uint32_t> codes(domains.size());
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < domains.size(); ++j) {
      codes[j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
    }
    uint8_t label = 2 * codes[0] >= domains[0] ? 1 : 0;
    if (rng.Bernoulli(0.1)) label = 1 - label;
    data.AppendRowUnchecked(codes, label);
  }
  return data;
}

struct ServingLearner {
  const char* label;
  std::unique_ptr<ml::Classifier> (*make)();
};

/// The seven serializable families. SVM training is quadratic, so its
/// fit rides on the shared max_train_rows cap; everything else fits the
/// full training view.
std::vector<ServingLearner> ServingRoster() {
  return {
      {"dt-gini", [] { return std::unique_ptr<ml::Classifier>(
                           std::make_unique<ml::DecisionTree>()); }},
      {"naive-bayes", [] { return std::unique_ptr<ml::Classifier>(
                               std::make_unique<ml::NaiveBayes>()); }},
      {"logreg-l1",
       [] {
         ml::LogisticRegressionConfig config;
         config.nlambda = 5;
         config.maxit = 60;
         return std::unique_ptr<ml::Classifier>(
             std::make_unique<ml::LogisticRegressionL1>(config));
       }},
      {"svm-rbf",
       [] {
         ml::SvmConfig config;
         config.kernel.type = ml::KernelType::kRbf;
         config.kernel.gamma = 0.2;
         config.max_train_rows = 1000;
         return std::unique_ptr<ml::Classifier>(
             std::make_unique<ml::KernelSvm>(config));
       }},
      {"1nn", [] { return std::unique_ptr<ml::Classifier>(
                       std::make_unique<ml::OneNearestNeighbor>()); }},
      {"ann-mlp",
       [] {
         ml::MlpConfig config;
         config.hidden_sizes = {32, 8};
         config.epochs = 2;
         return std::unique_ptr<ml::Classifier>(
             std::make_unique<ml::Mlp>(config));
       }},
      {"majority", [] { return std::unique_ptr<ml::Classifier>(
                            std::make_unique<ml::MajorityClassifier>()); }},
  };
}

/// Scores `query` in serving-sized batches, accumulating one latency
/// sample per batch — the same unit the hamlet_serve stats report.
void ScoreBatched(const ml::Classifier& model, const DataView& query,
                  size_t batch_size, serve::LatencyStats& stats) {
  const size_t n = query.num_rows();
  std::vector<uint32_t> ids;
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t stop = std::min(n, start + batch_size);
    ids.resize(stop - start);
    for (size_t i = start; i < stop; ++i) {
      ids[i - start] = static_cast<uint32_t>(i);
    }
    const DataView batch = query.SelectRows(ids);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<uint8_t> preds = model.PredictAll(batch);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (preds.size() != batch.num_rows()) {
      bench::ReportFailure();
      return;
    }
    stats.RecordBatch(preds.size(), dt.count());
  }
}

/// Renders `view` as request lines in the serve wire format, ready to
/// stream down a client connection.
std::string RenderRequests(const DataView& view) {
  std::string out;
  out.reserve(view.num_rows() * view.num_features() * 3);
  char buf[16];
  for (size_t i = 0; i < view.num_rows(); ++i) {
    for (size_t j = 0; j < view.num_features(); ++j) {
      std::snprintf(buf, sizeof(buf), "%u", view.feature(i, j));
      if (j > 0) out += ' ';
      out += buf;
    }
    out += '\n';
  }
  return out;
}

/// One full client exchange against the bench server: stream every
/// request, half-close, read responses to EOF. Returns the number of
/// response lines (predictions) received.
size_t DriveClient(uint16_t port, const std::string& requests) {
  auto sock = serve::net::ConnectTcp("127.0.0.1", port);
  if (!sock.ok()) return 0;
  const int fd = sock.value().fd();
  // Writer thread: with megabytes in flight both kernel buffers fill,
  // so a send-all-then-read-all client would deadlock the exchange.
  std::thread writer([fd, &requests] {
    (void)serve::net::SendAll(fd, requests.data(), requests.size());
    ::shutdown(fd, SHUT_WR);
  });
  size_t lines = 0;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++lines;
    }
  }
  writer.join();
  return lines;
}

/// End-to-end socket serving: `runs` rounds of four concurrent client
/// connections streaming `requests` through a NetServer over `model`.
/// Appends a "[serving] model=net-<label> ..." line on success.
void BenchSocketServing(const char* label, const ml::Classifier& model,
                        const std::string& requests, size_t expected_rows,
                        size_t runs, size_t batch_size,
                        std::vector<std::string>& lines) {
  constexpr size_t kClients = 4;
  serve::net::NetServeConfig config;
  config.batch_size = batch_size;
  serve::net::NetServer server(model, config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::printf("net-%s: listen failed: %s\n", label,
                started.ToString().c_str());
    bench::ReportFailure();
    return;
  }
  std::ostringstream server_log;
  Result<serve::StatsSummary> summary =
      Status::Internal("server never ran");
  std::thread runner(
      [&server, &server_log, &summary] { summary = server.Run(server_log); });

  // Warm-up round (acceptor, pool, allocator), then the measured rounds.
  DriveClient(server.port(), requests);
  size_t received = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < runs; ++r) {
    std::vector<std::thread> clients;
    std::vector<size_t> counts(kClients, 0);
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        counts[c] = DriveClient(server.port(), requests);
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < kClients; ++c) received += counts[c];
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  server.RequestShutdown();
  runner.join();
  if (!summary.ok()) {
    std::printf("net-%s: serving failed: %s\n", label,
                summary.status().ToString().c_str());
    bench::ReportFailure();
    return;
  }
  const size_t measured_rows = runs * kClients * expected_rows;
  if (received != measured_rows) {
    std::printf("net-%s: expected %zu responses, got %zu\n", label,
                measured_rows, received);
    bench::ReportFailure();
    return;
  }
  const serve::StatsSummary s = summary.value();

  char row[256];
  std::snprintf(row, sizeof(row), "%.0f",
                static_cast<double>(measured_rows) / wall.count());
  char net_label[64];
  std::snprintf(net_label, sizeof(net_label), "net-%s", label);
  bench::PrintRow({net_label, row,
                   std::to_string(static_cast<long>(s.p50_us)),
                   std::to_string(static_cast<long>(s.p99_us)), "-"},
                  12);

  // Wall-clock rate: rows include the warm-up round in s.rows, so use
  // the measured count; p50/p99 stay per-batch model time.
  char line[256];
  std::snprintf(line, sizeof(line),
                "[serving] model=net-%s rows=%zu runs=%zu seconds=%.6f "
                "preds_per_sec=%.1f p50_us=%.1f p99_us=%.1f errors=%llu",
                label, measured_rows, runs, wall.count(),
                static_cast<double>(measured_rows) / wall.count(), s.p50_us,
                s.p99_us, static_cast<unsigned long long>(s.errors));
  lines.push_back(line);
}

}  // namespace
}  // namespace hamlet

int main() {
  using namespace hamlet;

  const auto sizes = SizesFromMode();
  bench::PrintHeader("Serving throughput per model family (extension)");
  std::printf("train rows: %zu, query rows: %zu, runs: %zu, batch: %zu\n\n",
              sizes.train_rows, sizes.query_rows, sizes.runs,
              serve::ConfiguredBatchSize());

  const Dataset train_data = MakeServingDataset(sizes.train_rows, 101);
  const Dataset query_data = MakeServingDataset(sizes.query_rows, 202);
  const DataView train(&train_data);
  const DataView query(&query_data);
  const size_t batch_size = serve::ConfiguredBatchSize();

  bench::PrintRow({"model", "preds/s", "p50(us)", "p99(us)", "model-KiB"},
                  12);
  std::vector<std::string> lines;
  for (const auto& learner : ServingRoster()) {
    auto model = learner.make();
    Status st = model->Fit(train);
    if (!st.ok()) {
      std::printf("%s: fit failed: %s\n", learner.label,
                  st.ToString().c_str());
      bench::ReportFailure();
      continue;
    }

    // Serve what a server would serve: the loaded round-trip model.
    std::ostringstream bytes(std::ios::binary);
    st = io::SaveModel(*model, bytes);
    if (!st.ok()) {
      std::printf("%s: save failed: %s\n", learner.label,
                  st.ToString().c_str());
      bench::ReportFailure();
      continue;
    }
    std::istringstream in(bytes.str(), std::ios::binary);
    auto loaded = io::LoadModel(in);
    if (!loaded.ok()) {
      std::printf("%s: load failed: %s\n", learner.label,
                  loaded.status().ToString().c_str());
      bench::ReportFailure();
      continue;
    }

    // Warm-up run (pool spin-up, cold caches), then the measured runs.
    serve::LatencyStats warmup;
    ScoreBatched(*loaded.value(), query, batch_size, warmup);
    serve::LatencyStats stats;
    for (size_t r = 0; r < sizes.runs; ++r) {
      ScoreBatched(*loaded.value(), query, batch_size, stats);
    }
    const serve::StatsSummary s = stats.Summarize();

    char row[256];
    std::snprintf(row, sizeof(row), "%.0f", s.preds_per_sec);
    bench::PrintRow({learner.label, row,
                     std::to_string(static_cast<long>(s.p50_us)),
                     std::to_string(static_cast<long>(s.p99_us)),
                     std::to_string(bytes.str().size() / 1024)},
                    12);

    char line[256];
    std::snprintf(line, sizeof(line),
                  "[serving] model=%s rows=%llu runs=%zu seconds=%.6f "
                  "preds_per_sec=%.1f p50_us=%.1f p99_us=%.1f errors=%llu",
                  learner.label,
                  static_cast<unsigned long long>(s.rows), sizes.runs,
                  s.model_seconds, s.preds_per_sec, s.p50_us, s.p99_us,
                  static_cast<unsigned long long>(s.errors));
    lines.push_back(line);

    // Socket section for the cheapest and a representative tree model:
    // net-majority isolates transport + framing cost (the model is a
    // constant), net-dt-gini shows it against a real serving family.
    const std::string family(learner.label);
    if (family == "dt-gini" || family == "majority") {
      BenchSocketServing(learner.label, *loaded.value(),
                         RenderRequests(query), query.num_rows(),
                         sizes.runs, batch_size, lines);
    }
  }

  std::printf("\n");
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  return bench::ExitCode();
}
