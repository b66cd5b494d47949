// serve-socket: a dt-gini model round-trips through io::SaveModel /
// io::LoadModel and is served by an in-process serve::net::NetServer.
// One generator thread (the main thread) drives one connection per hardware
// thread in two phases:
//   - closed loop: every connection keeps a window of pipelined requests
//     outstanding until a fixed number is answered; one such pass is the
//     workload's result set (run_s), and saturation throughput is
//     requests / run_s;
//   - open loop: a fixed ladder of rates, each request timed from when it
//     was due (openloop.h), giving per-request latency at two fixed rates
//     and the highest rate that meets the latency limit.
// The model's PredictAll is about 2% of a closed-loop pass, so this
// workload isolates serve and net; it uses the batcher both ways (single-row
// batches at low rates, full HAMLET_SERVE_BATCH batches at saturation).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/common/rng.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/serve/net/net_server.h"
#include "hamlet/serve/net/socket.h"
#include "hamlet/serve/server.h"
#include "hamlet/synth/realworld.h"
#include "openloop.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"
#include "traced_classifier.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = hamlet::serve::net;

constexpr double kScale = 0.5;  // ~3000 labeled fact rows
const char* const kDataset = "Movies";
constexpr size_t kRequestRows = 4096;
constexpr uint64_t kClosedRequests = 100000;  // one closed-loop pass
constexpr double kClosedShare = 0.5;          // of the run's seconds
// The open-loop ladder (requests/s). It reaches far above today's
// socket saturation so a faster server can show its gain. kLoRate and
// kHiRate are the two fixed rates whose latency is reported; both sit
// below today's saturation.
const double kLadder[] = {20e3, 50e3, 100e3, 150e3, 200e3,
                          300e3, 600e3, 1.2e6};
constexpr double kLoRate = 20e3;
constexpr double kHiRate = 150e3;
constexpr double kSloP99Us = 5000.0;  // p99 latency limit of the ladder
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

/// One client connection, driven by the generator thread.
struct Client {
  net::Socket sock;
  std::string out;  ///< request bytes not yet accepted by the socket
  size_t out_off = 0;
  std::string in;   ///< a partial response line
  struct Pending {
    uint32_t row;
    int64_t due_ns;
  };
  std::deque<Pending> pending;  ///< sent or queued, unanswered, in order
};

/// Everything the load phases need from set-up.
struct ServeInputs {
  std::unique_ptr<hamlet::ml::Classifier> model;  ///< the loaded model
  std::vector<std::string> lines;                 ///< one request per row
  std::vector<uint8_t> expected;                  ///< in-process PredictAll
};

class Generator {
 public:
  Generator(std::vector<Client>& clients, const ServeInputs& inputs,
            WorkloadResult& result)
      : clients_(clients), inputs_(inputs), result_(result) {}

  /// Queues request `seq` (row seq % rows) on its connection.
  void Enqueue(uint64_t seq, Client& c, int64_t due_ns) {
    const uint32_t row = static_cast<uint32_t>(seq % inputs_.lines.size());
    c.out += inputs_.lines[row];
    c.pending.push_back({row, due_ns});
  }

  /// Writes what the sockets accept without blocking.
  void FlushAll() {
    for (Client& c : clients_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n =
            ::send(c.sock.fd(), c.out.data() + c.out_off,
                   c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  /// Waits up to `timeout_ns` for readable/writable sockets, then reads
  /// every available response. `on_response(due_ns, now_ns, correct)`.
  template <typename OnResponse>
  void Poll(int64_t timeout_ns, OnResponse&& on_response) {
    std::vector<pollfd> fds(clients_.size());
    for (size_t k = 0; k < clients_.size(); ++k) {
      fds[k].fd = clients_[k].sock.fd();
      fds[k].events = POLLIN;
      if (clients_[k].out_off < clients_[k].out.size()) {
        fds[k].events |= POLLOUT;
      }
    }
    timespec ts{};
    ts.tv_sec = timeout_ns / 1000000000;
    ts.tv_nsec = timeout_ns % 1000000000;
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    const int64_t now = NowNs();
    char buf[1 << 16];
    for (size_t k = 0; k < clients_.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = clients_[k];
      while (true) {
        const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            if (!c.pending.empty()) broken_ = true;
          }
          break;
        }
        size_t start = 0;
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
          if (buf[i] != '\n') continue;
          c.in.append(buf + start, i - start);
          start = i + 1;
          if (c.pending.empty()) {
            result_.Fail(1, "response with no request: " + c.in);
          } else {
            const Client::Pending p = c.pending.front();
            c.pending.pop_front();
            const bool ok = ResponseMatches(c.in.data(), c.in.size(),
                                            inputs_.expected[p.row]);
            if (!ok) {
              result_.Fail(1, "row " + std::to_string(p.row) +
                                  ": got \"" + c.in + "\"");
            }
            on_response(p.due_ns, now, ok);
          }
          c.in.clear();
        }
        c.in.append(buf + start, static_cast<size_t>(n) - start);
      }
    }
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Client& c : clients_) n += c.pending.size();
    return n;
  }

  /// Polls until every request is answered or the deadline passes.
  template <typename OnResponse>
  bool Drain(OnResponse&& on_response) {
    const int64_t deadline = NowNs() + kDrainTimeoutNs;
    while (Outstanding() > 0 && !broken_ && NowNs() < deadline) {
      FlushAll();
      Poll(1'000'000, on_response);
    }
    return Outstanding() == 0;
  }

  bool broken() const { return broken_; }

 private:
  std::vector<Client>& clients_;
  const ServeInputs& inputs_;
  WorkloadResult& result_;
  bool broken_ = false;
};

/// One closed-loop pass: kClosedRequests requests, `window` in flight
/// per connection. Gives up, like Drain(), after kDrainTimeoutNs, so a
/// server that stops answering fails the pass instead of hanging it.
bool ClosedPass(Generator& gen, std::vector<Client>& clients, size_t window,
                uint64_t& seq) {
  uint64_t to_send = kClosedRequests;
  uint64_t answered = 0;
  auto count = [&](int64_t, int64_t, bool) { ++answered; };
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (answered < kClosedRequests && !gen.broken()) {
    const int64_t now = NowNs();
    if (now >= deadline) break;
    for (Client& c : clients) {
      while (to_send > 0 && c.pending.size() < window) {
        gen.Enqueue(seq++, c, now);
        --to_send;
      }
    }
    gen.FlushAll();
    gen.Poll(1'000'000, count);
  }
  return answered == kClosedRequests;
}

/// One open-loop step at `rate` for `duration_ns`.
StepSummary OpenStep(Generator& gen, std::vector<Client>& clients,
                     double rate, int64_t duration_ns, uint64_t& seq,
                     bool& drained) {
  StepRecorder recorder(rate);
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + duration_ns;
  const OpenLoopSchedule schedule(start, rate);
  // Past this backlog (50 ms of arrivals) the step cannot meet any sane
  // limit; stop it so the drain stays short.
  const size_t cap = static_cast<size_t>(std::max(2000.0, rate * 0.05));
  uint64_t issued = 0;
  uint64_t answered = 0;
  int64_t next_sample = start;
  auto record = [&](int64_t due, int64_t now, bool ok) {
    ++answered;
    recorder.OnResponse(due, now, ok);
  };
  while (!gen.broken()) {
    const int64_t now = NowNs();
    if (now >= end) break;
    for (; schedule.DueNs(issued) <= now; ++issued) {
      const int64_t due_ns = schedule.DueNs(issued);
      gen.Enqueue(seq++, clients[issued % clients.size()], due_ns);
      recorder.OnSend(due_ns, now);
    }
    gen.FlushAll();
    const size_t backlog = static_cast<size_t>(issued - answered);
    if (now >= next_sample) {
      recorder.SampleBacklog(now, backlog);
      next_sample = now + 1'000'000;
    }
    if (backlog > cap) {
      recorder.MarkAborted();
      break;
    }
    const int64_t wait = std::min<int64_t>(
        std::max<int64_t>(schedule.DueNs(issued) - NowNs(), 0), 1'000'000);
    gen.Poll(wait, record);
  }
  drained = gen.Drain(record);
  return recorder.Summarize(start, end, kSloP99Us);
}

Figure PercentileFigure(const std::string& name,
                        const std::optional<double>& v, size_t samples) {
  return {name, v.value_or(0.0), samples, v.has_value()};
}

ServeInputs BuildInputs(const Options& opts, WorkloadResult& result) {
  ServeInputs in;
  hamlet::Result<hamlet::synth::RealWorldSpec> spec =
      hamlet::synth::RealWorldSpecByName(kDataset, kScale);
  if (!spec.ok()) {
    result.Fail(1, "spec: " + spec.status().ToString());
    return in;
  }
  // The seed picks the split of a fixed star and the request rows below;
  // neither changes how much work serving a request is.
  const hamlet::synth::RealWorldSpec& s = spec.value();
  hamlet::StarSchema star;
  {
    ScopedSpan span("synth.generate");
    span.set_rows(s.ns);
    star = hamlet::synth::GenerateRealWorld(s);
  }
  hamlet::Result<hamlet::core::PreparedData> prepared =
      hamlet::Status::Internal("not run");
  {
    ScopedSpan span("relational.prepare");
    prepared = hamlet::core::Prepare(star, s.seed + 991 + 7919 * opts.seed,
                                     hamlet::synth::RealWorldJoinOptions(s));
    if (prepared.ok()) span.set_rows(prepared.value().data.num_rows());
  }
  if (!prepared.ok()) {
    result.Fail(1, "prepare: " + prepared.status().ToString());
    return in;
  }
  const hamlet::core::PreparedData& p = prepared.value();
  const hamlet::SplitViews views = hamlet::MakeSplitViews(
      p.data, p.split,
      hamlet::core::SelectVariant(p.data, hamlet::core::FeatureVariant::kJoinAll));
  TracedClassifier tree(std::make_unique<hamlet::ml::DecisionTree>(
                            hamlet::ml::DecisionTreeConfig{.minsplit = 10,
                                                           .cp = 0.001}),
                        {"ml.tree.fit", "ml.tree.predict"});
  if (const hamlet::Status st = tree.Fit(views.train); !st.ok()) {
    result.Fail(1, "fit: " + st.ToString());
    return in;
  }
  std::ostringstream saved;
  {
    ScopedSpan span("io.save");
    if (const hamlet::Status st = hamlet::io::SaveModel(tree, saved); !st.ok()) {
      result.Fail(1, "save: " + st.ToString());
      return in;
    }
    span.set_rows(saved.str().size());
  }
  {
    ScopedSpan span("io.load");
    std::istringstream bytes(saved.str());
    hamlet::Result<std::unique_ptr<hamlet::ml::Classifier>> loaded =
        hamlet::io::LoadModel(bytes);
    if (!loaded.ok()) {
      result.Fail(1, "load: " + loaded.status().ToString());
      return in;
    }
    in.model = std::move(loaded).value();
  }

  // Requests: uniform codes within the model's train domains, like
  // `hamlet_serve --emit-requests`.
  const std::vector<uint32_t>& domains = in.model->train_domain_sizes();
  std::vector<hamlet::FeatureSpec> specs(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    specs[j].name = "f" + std::to_string(j);
    specs[j].domain_size = domains[j];
  }
  hamlet::Dataset requests(std::move(specs));
  hamlet::Rng rng(0x5e77e + opts.seed);
  std::vector<uint32_t> codes(domains.size());
  for (size_t i = 0; i < kRequestRows; ++i) {
    std::string line;
    for (size_t j = 0; j < domains.size(); ++j) {
      codes[j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
      if (j > 0) line += ' ';
      line += std::to_string(codes[j]);
    }
    line += '\n';
    in.lines.push_back(std::move(line));
    requests.AppendRowUnchecked(codes, 0);
  }
  const hamlet::DataView all(&requests);
  in.expected = in.model->PredictAll(all);
  const size_t wrong =
      CountPredictionMismatches(in.expected, tree.PredictAll(all));
  if (wrong > 0) {
    result.Fail(wrong, "loaded model disagrees with the saved one on " +
                           std::to_string(wrong) + " rows");
  }
  return in;
}

/// Stops the server and joins its Run() thread on every exit path.
struct ServerRun {
  net::NetServer& server;
  std::thread thread;
  hamlet::Result<hamlet::serve::StatsSummary> summary =
      hamlet::Status::Internal("server did not run");
  std::ostringstream log;

  explicit ServerRun(net::NetServer& s) : server(s) {
    thread = std::thread([this] { summary = server.Run(log); });
  }
  ~ServerRun() { Stop(); }
  ServerRun(const ServerRun&) = delete;
  ServerRun& operator=(const ServerRun&) = delete;

  void Stop() {
    server.RequestShutdown();
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

WorkloadResult RunServeSocket(const Options& opts) {
  WorkloadResult result;
  ServeInputs inputs;
  TimedSetups(opts, result, [&] { inputs = BuildInputs(opts, result); });
  if (inputs.model == nullptr) return result;

  EnableTracing(opts.trace);
  TracedClassifier served(std::move(inputs.model),
                          {"serve.fit", "serve.predict"});
  net::NetServeConfig config;
  net::NetServer server(served, config);
  {
    ScopedSpan span("net.start");
    if (const hamlet::Status st = server.Start(); !st.ok()) {
      result.Fail(1, "server start: " + st.ToString());
      return result;
    }
  }
  EnableTracing(false);
  ServerRun run(server);

  const size_t connections = hamlet::parallel::HardwareThreads();
  std::vector<Client> clients(connections);
  for (Client& c : clients) {
    hamlet::Result<net::Socket> sock = net::ConnectTcp("127.0.0.1", server.port());
    if (!sock.ok()) {
      result.Fail(1, "connect: " + sock.status().ToString());
      return result;
    }
    c.sock = std::move(sock).value();
    // A request is sent the moment it is due: Nagle would hold a small
    // write until the server ACKs the previous one.
    const int one = 1;
    ::setsockopt(c.sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  Generator gen(clients, inputs, result);
  uint64_t seq = 0;

  // Closed loop: twice a full batch in flight across the connections, so
  // the server always has a whole HAMLET_SERVE_BATCH batch waiting.
  const size_t window = std::max<size_t>(
      64, 2 * hamlet::serve::ConfiguredBatchSize() / connections);
  bool ok = true;
  WorkloadResult probes;  // set-up failures are already counted once
  TimedReps(opts, opts.seconds * kClosedShare, 3, result,
            [&] { (void)BuildInputs(opts, probes); },
            [&](size_t) {
              if (!ok) return;
              result.attempted += kClosedRequests;
              if (!ClosedPass(gen, clients, window, seq)) {
                ok = false;
                result.Fail(1, "closed-loop pass did not complete");
              }
            });

  // Open loop: the rate ladder.
  const int64_t step_ns = static_cast<int64_t>(
      std::max(0.3, opts.seconds * (1.0 - kClosedShare) * 0.9 /
                        std::size(kLadder)) * 1e9);
  // Untraced even under --trace 1: its figures come from the generator,
  // and a span per single-row batch would be millions of spans.
  std::vector<StepSummary> steps;
  for (double rate : kLadder) {
    if (!ok) break;
    bool drained = true;
    steps.push_back(OpenStep(gen, clients, rate, step_ns, seq, drained));
    result.attempted += steps.back().sent;
    if (!drained) {
      ok = false;
      result.Fail(steps.back().sent - steps.back().answered,
                  "open-loop step did not drain");
    }
    if (steps.back().aborted) break;  // higher rates cannot do better
  }

  // Every request is answered (or the run already failed): close the
  // connections and stop the server.
  clients.clear();
  run.Stop();
  if (!run.summary.ok()) {
    result.Fail(1, "server run: " + run.summary.status().ToString());
  }

  const std::vector<double>& pass_s =
      result.run_s.empty() ? result.traced_run_s : result.run_s;
  const double pass = Median(pass_s);
  result.figures.push_back(
      {"serve_rows_per_s",
       pass > 0 ? static_cast<double>(kClosedRequests) / pass : 0.0, 0,
       pass > 0});
  const StepSummary* lo = nullptr;
  const StepSummary* hi = nullptr;
  double best_rate = 0.0;
  for (const StepSummary& s : steps) {
    if (s.rate == kLoRate) lo = &s;
    if (s.rate == kHiRate) hi = &s;
    if (s.meets_slo) best_rate = std::max(best_rate, s.rate);
  }
  const StepSummary none;
  if (lo == nullptr) lo = &none;
  if (hi == nullptr) hi = &none;
  result.figures.push_back(
      PercentileFigure("req_p50_us.lo", lo->p50_us, lo->latency_samples));
  result.figures.push_back(
      PercentileFigure("req_p99_us.lo", lo->p99_us, lo->latency_samples));
  result.figures.push_back(
      PercentileFigure("req_p50_us.hi", hi->p50_us, hi->latency_samples));
  result.figures.push_back(
      PercentileFigure("req_p99_us.hi", hi->p99_us, hi->latency_samples));
  result.figures.push_back({"max_rate_at_slo", best_rate, 0, true});
  result.figures.push_back(
      PercentileFigure("net.gen_lag_p99_us", hi->gen_lag_p99_us, hi->sent));
  result.figures.push_back({"net.backlog_max",
                            static_cast<double>(hi->backlog_max), 0,
                            hi->sent > 0});
  const double batch_p99 = run.summary.ok() ? run.summary.value().p99_us : 0.0;
  result.figures.push_back(
      {"serve.batch_p99_us", batch_p99,
       run.summary.ok() ? static_cast<size_t>(run.summary.value().batches) : 0,
       run.summary.ok()});
  for (const StepSummary& s : steps) {
    char note[256];
    std::snprintf(note, sizeof(note),
                  "ladder rate=%.0f sent=%llu p50_us=%.1f p99_us=%.1f "
                  "samples=%zu lag_p99_us=%.1f backlog_max=%zu growing=%d "
                  "aborted=%d meets_slo=%d",
                  s.rate, static_cast<unsigned long long>(s.sent),
                  s.p50_us.value_or(-1), s.p99_us.value_or(-1),
                  s.latency_samples, s.gen_lag_p99_us.value_or(-1),
                  s.backlog_max, s.backlog_growing, s.aborted, s.meets_slo);
    result.details.push_back(note);
  }
  return result;
}

}  // namespace perfbench
