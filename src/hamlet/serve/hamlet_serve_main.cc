// hamlet_serve: batched prediction service over a saved hamlet model.
//
//   hamlet_serve <model-file> [requests-file]
//       Load the model, serve request lines from the file (or stdin),
//       stream one prediction per line to stdout. A machine-parseable
//       "[serve] ..." summary goes to stderr when done; while stderr is
//       a terminal, a LiveOps-style in-place throughput line updates
//       during the run.
//
//       HAMLET_SERVE_ON_ERROR=skip turns on resilient mode: malformed
//       request lines become in-order "ERR <line>: <reason>" output
//       lines (bounded by HAMLET_SERVE_MAX_ERRORS; 0 = tolerate none)
//       instead of aborting.
//
//       SIGHUP hot-reloads the model: the file is re-read into a fresh
//       slot and swapped in at the next batch boundary only if it loads
//       cleanly and its feature domains match; on any failure the old
//       model keeps serving (a line on stderr says which happened).
//
//   hamlet_serve --listen <port> <model-file>
//       TCP front-end on 127.0.0.1:<port> (0 = OS-assigned; the bound
//       port is announced on stderr as "listening on port N").
//       Concurrent connections speak the same line protocol and are
//       multiplexed onto shared HAMLET_SERVE_BATCH batches; each
//       connection gets per-connection error isolation (skip
//       semantics, budget HAMLET_SERVE_MAX_ERRORS) and "/healthz"
//       answers a one-line status. SIGHUP hot-reloads as above;
//       SIGINT/SIGTERM shut down gracefully: drain received requests,
//       answer them, print the "[serve]" summary, exit 0.
//
//   hamlet_serve --client <host>:<port> [requests-file]
//       Minimal line-protocol client: stream the request file (or
//       stdin) to the server, print response lines to stdout until the
//       server's EOF. Output is bit-identical to serving the same file
//       through the stdin path.
//
//   hamlet_serve --train-demo <model-file> [family]
//       Fit a small deterministic synthetic model of the given family
//       (dt, nb, logreg, svm-linear, svm-rbf, 1nn, mlp, majority;
//       default dt) and save it — a fixture generator for smoke tests
//       and quick experiments.
//
//   hamlet_serve --emit-requests <model-file> <n> [seed]
//       Print n random request lines valid for the model's domains.
//
// Exit status: 0 on success, 1 on any error (message on stderr).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "hamlet/common/rng.h"
#include "hamlet/common/status.h"
#include "hamlet/common/stringx.h"
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

namespace {

using hamlet::DataView;
using hamlet::Dataset;
using hamlet::FeatureRole;
using hamlet::FeatureSpec;
using hamlet::ParseUnsigned;
using hamlet::Result;
using hamlet::Rng;
using hamlet::Status;

int Fail(const Status& st) {
  std::fprintf(stderr, "hamlet_serve: %s\n", st.ToString().c_str());
  return 1;
}

/// SIGHUP = hot-reload request, consumed at the next batch boundary.
volatile std::sig_atomic_t g_reload_requested = 0;
/// SIGINT/SIGTERM = graceful shutdown request (socket mode).
volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void OnSighup(int) { g_reload_requested = 1; }
extern "C" void OnShutdownSignal(int) { g_shutdown_requested = 1; }

void InstallHandler(int signum, void (*handler)(int)) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = handler;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART: a signal must not error out a blocking read; the
  // serving loops notice the flag at their next poll instead.
  sa.sa_flags = SA_RESTART;
  sigaction(signum, &sa, nullptr);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hamlet_serve <model-file> [requests-file]\n"
      "       hamlet_serve --listen <port> <model-file>\n"
      "       hamlet_serve --client <host>:<port> [requests-file]\n"
      "       hamlet_serve --train-demo <model-file> [family]\n"
      "       hamlet_serve --emit-requests <model-file> <n> [seed]\n"
      "families: dt nb logreg svm-linear svm-rbf 1nn mlp majority\n");
  return 1;
}

/// Small deterministic labeled dataset: 4 categorical features, label a
/// noisy threshold rule over two of them. Enough structure that every
/// demo family fits a non-trivial model, small enough that --train-demo
/// finishes instantly (the MLP included).
Dataset MakeDemoDataset(uint64_t seed) {
  const std::vector<uint32_t> domains = {8, 6, 5, 7};
  std::vector<FeatureSpec> specs(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    specs[j].name = "f" + std::to_string(j);
    specs[j].domain_size = domains[j];
    specs[j].role = FeatureRole::kHome;
  }
  Dataset data(std::move(specs));
  Rng rng(seed);
  std::vector<uint32_t> row(domains.size());
  const size_t n = 400;
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < domains.size(); ++j) {
      row[j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
    }
    const bool signal = row[0] >= 4 || (row[1] <= 1 && row[2] >= 3);
    const bool flip = rng.Bernoulli(0.1);
    data.AppendRowUnchecked(row, (signal != flip) ? 1 : 0);
  }
  return data;
}

Result<std::unique_ptr<hamlet::ml::Classifier>> MakeDemoLearner(
    const std::string& family) {
  using namespace hamlet::ml;  // NOLINT: local alias for the roster
  if (family == "dt") {
    return std::unique_ptr<Classifier>(std::make_unique<DecisionTree>());
  }
  if (family == "nb") {
    return std::unique_ptr<Classifier>(std::make_unique<NaiveBayes>());
  }
  if (family == "logreg") {
    return std::unique_ptr<Classifier>(
        std::make_unique<LogisticRegressionL1>());
  }
  if (family == "svm-linear" || family == "svm-rbf") {
    SvmConfig config;
    config.kernel.type =
        family == "svm-rbf" ? KernelType::kRbf : KernelType::kLinear;
    if (family == "svm-rbf") config.kernel.gamma = 0.25;
    return std::unique_ptr<Classifier>(std::make_unique<KernelSvm>(config));
  }
  if (family == "1nn") {
    return std::unique_ptr<Classifier>(std::make_unique<OneNearestNeighbor>());
  }
  if (family == "mlp") {
    MlpConfig config;
    config.hidden_sizes = {16, 8};
    config.epochs = 4;
    return std::unique_ptr<Classifier>(std::make_unique<Mlp>(config));
  }
  if (family == "majority") {
    return std::unique_ptr<Classifier>(std::make_unique<MajorityClassifier>());
  }
  return Status::InvalidArgument("unknown demo family \"" + family + "\"");
}

int TrainDemo(const std::string& path, const std::string& family) {
  Result<std::unique_ptr<hamlet::ml::Classifier>> learner =
      MakeDemoLearner(family);
  if (!learner.ok()) return Fail(learner.status());
  const Dataset data = MakeDemoDataset(7);
  const DataView train(&data);
  Status st = learner.value()->Fit(train);
  if (!st.ok()) return Fail(st);
  st = hamlet::io::SaveModelToFile(*learner.value(), path);
  if (!st.ok()) return Fail(st);
  std::fprintf(stderr, "hamlet_serve: saved %s model to %s\n",
               learner.value()->name().c_str(), path.c_str());
  return 0;
}

int EmitRequests(const std::string& path, const std::string& count_arg,
                 const std::string& seed_arg) {
  const Result<uint64_t> n = ParseUnsigned(count_arg);
  if (!n.ok() || n.value() < 1) {
    return Fail(Status::InvalidArgument(
        "bad request count \"" + count_arg + "\" (want a positive integer)"));
  }
  // The seed gets the same strict parse as the count: strtoull's old
  // nullptr-endptr call silently turned "banana" into 0, which makes a
  // typo reproduce the wrong stream instead of failing.
  uint64_t seed = 1234;
  if (!seed_arg.empty()) {
    const Result<uint64_t> parsed_seed = ParseUnsigned(seed_arg);
    if (!parsed_seed.ok()) {
      return Fail(Status::InvalidArgument(
          "bad request seed \"" + seed_arg +
          "\" (want an unsigned integer): " +
          parsed_seed.status().message()));
    }
    seed = parsed_seed.value();
  }
  Result<std::unique_ptr<hamlet::ml::Classifier>> model =
      hamlet::io::LoadModelFromFile(path);
  if (!model.ok()) return Fail(model.status());
  const std::vector<uint32_t>& domains =
      model.value()->train_domain_sizes();
  Rng rng(seed);
  for (uint64_t i = 0; i < n.value(); ++i) {
    for (size_t j = 0; j < domains.size(); ++j) {
      if (j > 0) std::fputc(' ', stdout);
      std::fprintf(stdout, "%llu",
                   static_cast<unsigned long long>(
                       rng.UniformInt(domains[j])));
    }
    std::fputc('\n', stdout);
  }
  return 0;
}

/// The SIGHUP hot-reload hook shared by the stdin and socket servers:
/// re-read the model file, validate it against the serving model, and
/// swap through the ModelSlot — which keeps the displaced model alive
/// until the *next* swap, honouring the model_poll lifetime contract
/// (the serving loop's previous model must stay valid until the poll
/// call returns).
std::function<const hamlet::ml::Classifier*()> MakeReloadPoll(
    hamlet::serve::ModelSlot& slot, const std::string& model_path) {
  return [&slot, model_path]() -> const hamlet::ml::Classifier* {
    if (g_reload_requested == 0) return nullptr;
    g_reload_requested = 0;
    auto fresh = hamlet::io::LoadModelFromFileWithRetry(model_path);
    if (!fresh.ok()) {
      std::fprintf(stderr,
                   "hamlet_serve: reload failed (%s); keeping the current "
                   "model\n",
                   fresh.status().ToString().c_str());
      return nullptr;
    }
    const Status valid =
        hamlet::serve::ValidateReloadedModel(*slot.current(), *fresh.value());
    if (!valid.ok()) {
      std::fprintf(stderr,
                   "hamlet_serve: reload rejected (%s); keeping the current "
                   "model\n",
                   valid.ToString().c_str());
      return nullptr;
    }
    const hamlet::ml::Classifier* swapped =
        slot.Swap(std::move(fresh).value());
    std::fprintf(stderr, "hamlet_serve: reloaded model %s from %s\n",
                 swapped->name().c_str(), model_path.c_str());
    return swapped;
  };
}

void PrintServeSummary(const hamlet::serve::StatsSummary& s,
                       const std::string& model_name) {
  // Machine-parseable run summary; keep key=value, space-separated
  // (asserted by the serve smoke test).
  std::fprintf(stderr,
               "[serve] model=%s rows=%llu batches=%llu errors=%llu "
               "model_seconds=%.6f preds_per_sec=%.1f p50_us=%.1f "
               "p99_us=%.1f\n",
               model_name.c_str(),
               static_cast<unsigned long long>(s.rows),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.errors), s.model_seconds,
               s.preds_per_sec, s.p50_us, s.p99_us);
}

int Serve(const std::string& model_path, const std::string& requests_path) {
  Result<std::unique_ptr<hamlet::ml::Classifier>> loaded =
      hamlet::io::LoadModelFromFileWithRetry(model_path);
  if (!loaded.ok()) return Fail(loaded.status());
  // The serving slot: hot reload swaps a validated fresh model in here;
  // ServeStream picks the new pointer up at the next batch boundary.
  hamlet::serve::ModelSlot slot(std::move(loaded).value());

  std::ifstream file;
  if (!requests_path.empty()) {
    file.open(requests_path);
    if (!file) {
      return Fail(Status::NotFound("cannot open requests file: " +
                                   requests_path));
    }
  }
  std::istream& in = requests_path.empty() ? std::cin : file;

  InstallHandler(SIGHUP, OnSighup);

  hamlet::serve::ServeConfig config;
  config.live_stats = isatty(2) != 0;
  config.model_poll = MakeReloadPoll(slot, model_path);

  Result<hamlet::serve::StatsSummary> summary = hamlet::serve::ServeStream(
      *slot.current(), in, std::cout, std::cerr, config);
  if (!summary.ok()) return Fail(summary.status());
  PrintServeSummary(summary.value(), slot.current()->name());
  return 0;
}

int Listen(const std::string& port_arg, const std::string& model_path) {
  const Result<uint64_t> port = ParseUnsigned(port_arg);
  if (!port.ok() || port.value() > 65535) {
    return Fail(Status::InvalidArgument("bad port \"" + port_arg +
                                        "\" (want an integer in "
                                        "[0, 65535]; 0 = OS-assigned)"));
  }
  Result<std::unique_ptr<hamlet::ml::Classifier>> loaded =
      hamlet::io::LoadModelFromFileWithRetry(model_path);
  if (!loaded.ok()) return Fail(loaded.status());
  hamlet::serve::ModelSlot slot(std::move(loaded).value());

  InstallHandler(SIGHUP, OnSighup);
  InstallHandler(SIGINT, OnShutdownSignal);
  InstallHandler(SIGTERM, OnShutdownSignal);

  hamlet::serve::net::NetServeConfig config;
  config.port = static_cast<uint16_t>(port.value());
  config.live_stats = isatty(2) != 0;
  config.model_poll = MakeReloadPoll(slot, model_path);
  config.stop_poll = [] { return g_shutdown_requested != 0; };

  hamlet::serve::net::NetServer server(*slot.current(), config);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::fprintf(stderr, "hamlet_serve: listening on port %u (model %s)\n",
               static_cast<unsigned>(server.port()),
               slot.current()->name().c_str());

  Result<hamlet::serve::StatsSummary> summary = server.Run(std::cerr);
  if (!summary.ok()) return Fail(summary.status());
  PrintServeSummary(summary.value(), slot.current()->name());
  return 0;
}

int Client(const std::string& target, const std::string& requests_path) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    return Fail(Status::InvalidArgument("bad target \"" + target +
                                        "\" (want <host>:<port>)"));
  }
  const std::string host = target.substr(0, colon);
  const Result<uint64_t> port = ParseUnsigned(target.substr(colon + 1));
  if (!port.ok() || port.value() < 1 || port.value() > 65535) {
    return Fail(Status::InvalidArgument("bad port in \"" + target + "\""));
  }

  std::ifstream file;
  if (!requests_path.empty()) {
    file.open(requests_path);
    if (!file) {
      return Fail(Status::NotFound("cannot open requests file: " +
                                   requests_path));
    }
  }
  std::istream& in = requests_path.empty() ? std::cin : file;

  Result<hamlet::serve::net::Socket> sock = hamlet::serve::net::ConnectTcp(
      host, static_cast<uint16_t>(port.value()));
  if (!sock.ok()) return Fail(sock.status());

  // Writer thread streams requests while the main thread reads
  // responses: both kernel buffers can fill on large streams, so
  // send-all-then-read-all would deadlock against a batching server.
  const int fd = sock.value().fd();
  std::thread writer([&in, fd] {
    std::string line;
    while (std::getline(in, line)) {
      line += '\n';
      if (!hamlet::serve::net::SendAll(fd, line.data(), line.size()).ok()) {
        // Server closed early (e.g. error budget); its final ERR lines
        // are still in flight for the reader below.
        break;
      }
    }
    ::shutdown(fd, SHUT_WR);
  });

  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    std::fwrite(buf, 1, static_cast<size_t>(n), stdout);
  }
  writer.join();
  std::fflush(stdout);
  if (n < 0) return Fail(Status::Unavailable("read: connection error"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  if (args[0] == "--train-demo") {
    if (args.size() < 2 || args.size() > 3) return Usage();
    return TrainDemo(args[1], args.size() == 3 ? args[2] : "dt");
  }
  if (args[0] == "--emit-requests") {
    if (args.size() < 3 || args.size() > 4) return Usage();
    return EmitRequests(args[1], args[2], args.size() == 4 ? args[3] : "");
  }
  if (args[0] == "--listen") {
    if (args.size() != 3) return Usage();
    return Listen(args[1], args[2]);
  }
  if (args[0] == "--client") {
    if (args.size() < 2 || args.size() > 3) return Usage();
    return Client(args[1], args.size() == 3 ? args[2] : "");
  }
  if (args.size() > 2) return Usage();
  return Serve(args[0], args.size() == 2 ? args[1] : "");
}
