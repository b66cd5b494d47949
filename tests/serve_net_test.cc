// Socket front-end tests: LineReader framing, the NetServer lifecycle,
// and — the contract that matters — bit-identical parity between
// responses served over TCP and the stdin ServeStream path, including
// under concurrent connections multiplexed onto shared batches.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hamlet/ml/majority.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/serve/net/net_server.h"
#include "hamlet/serve/net/socket.h"
#include "hamlet/serve/server.h"
#include "parity_util.h"

namespace hamlet {
namespace {

using serve::net::ConnectTcp;
using serve::net::LineReader;
using serve::net::NetServeConfig;
using serve::net::NetServer;
using serve::net::SendAll;
using serve::net::Socket;
using test::MakeParityDataset;
using test::ScopedThreads;

// ------------------------------------------------------------ framing --

/// A pipe whose write end feeds a LineReader on the read end —
/// deterministic chunk boundaries, no real network.
struct Pipe {
  Socket rd, wr;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    rd = Socket(fds[0]);
    wr = Socket(fds[1]);
  }
};

/// write(2)-based feeder for the pipe tests (SendAll is send(2)-only:
/// MSG_NOSIGNAL does not apply to pipes).
bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

TEST(LineReaderTest, FramesLinesAcrossArbitraryChunkBoundaries) {
  Pipe p;
  LineReader reader(p.rd.fd());
  // One logical stream delivered in awkward chunks: a line split across
  // writes, CRLF framing, and back-to-back lines in one chunk.
  for (const char* chunk : {"1 ", "2\r\n3 4\n", "5", " 6\n"}) {
    ASSERT_TRUE(WriteAll(p.wr.fd(), chunk, strlen(chunk)));
  }
  p.wr.Close();

  std::string line;
  std::vector<std::string> lines;
  while (true) {
    const auto got = reader.ReadLine(line);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    lines.push_back(line);
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"1 2", "3 4", "5 6"}));
}

TEST(LineReaderTest, YieldsFinalUnterminatedFragment) {
  Pipe p;
  LineReader reader(p.rd.fd());
  const char* data = "complete\npartial";
  ASSERT_TRUE(WriteAll(p.wr.fd(), data, strlen(data)));
  p.wr.Close();

  std::string line;
  ASSERT_TRUE(reader.ReadLine(line).value());
  EXPECT_EQ(line, "complete");
  // std::getline semantics: the trailing fragment is still a line.
  ASSERT_TRUE(reader.ReadLine(line).value());
  EXPECT_EQ(line, "partial");
  EXPECT_FALSE(reader.ReadLine(line).value());  // then clean EOF
  EXPECT_FALSE(reader.ReadLine(line).value());  // and EOF is sticky
}

TEST(LineReaderTest, EmptyAndBlankLinesSurvive) {
  Pipe p;
  LineReader reader(p.rd.fd());
  const char* data = "\n\r\n  \n";
  ASSERT_TRUE(WriteAll(p.wr.fd(), data, strlen(data)));
  p.wr.Close();

  std::string line;
  ASSERT_TRUE(reader.ReadLine(line).value());
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.ReadLine(line).value());
  EXPECT_EQ(line, "");  // "\r\n" -> stripped to empty
  ASSERT_TRUE(reader.ReadLine(line).value());
  EXPECT_EQ(line, "  ");
  EXPECT_FALSE(reader.ReadLine(line).value());
}

TEST(LineReaderTest, OversizedLinePoisonsTheStream) {
  Pipe p;
  // Small cap so the test doesn't fight the pipe buffer size.
  LineReader reader(p.rd.fd(), /*max_line_bytes=*/64);
  const std::string big(100, 'x');
  ASSERT_TRUE(WriteAll(p.wr.fd(), big.data(), big.size()));
  p.wr.Close();

  std::string line;
  const auto got = reader.ReadLine(line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

/// Every line `reader` yields through repeated ReadLine calls.
std::vector<std::string> ReadAllLines(LineReader& reader) {
  std::vector<std::string> lines;
  std::string line;
  while (true) {
    const auto got = reader.ReadLine(line);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok() || !got.value()) return lines;
    lines.push_back(line);
  }
}

/// One ReadLines call, copied out of the reader's buffer.
bool ReadLinesInto(LineReader& reader, std::vector<std::string>& out) {
  std::vector<std::string_view> views;
  const auto got = reader.ReadLines(views);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  out.insert(out.end(), views.begin(), views.end());
  return got.ok() && got.value();
}

TEST(LineReaderTest, ReadLinesMatchesReadLineAtEveryChunkBoundary) {
  // CRLF and a bare '\r' mid-line, empty lines, a comment, and a final
  // unterminated fragment whose trailing '\r' is stripped too.
  const std::string stream = "1 2\r\n\n\r\n  \n# c\nlast\rline\nfinal\r";
  std::vector<std::string> expected;
  {
    Pipe p;
    ASSERT_TRUE(WriteAll(p.wr.fd(), stream.data(), stream.size()));
    p.wr.Close();
    LineReader reader(p.rd.fd());
    expected = ReadAllLines(reader);
  }
  ASSERT_EQ(expected.size(), 7u);

  for (size_t split = 0; split <= stream.size(); ++split) {
    Pipe p;
    LineReader reader(p.rd.fd());
    std::vector<std::string> lines;
    // Over a pipe each read(2) returns what is buffered, so the first
    // ReadLines sees exactly the bytes before `split`.
    if (split > 0) {
      ASSERT_TRUE(WriteAll(p.wr.fd(), stream.data(), split));
      ASSERT_TRUE(ReadLinesInto(reader, lines));
    }
    ASSERT_TRUE(WriteAll(p.wr.fd(), stream.data() + split,
                         stream.size() - split));
    p.wr.Close();
    while (ReadLinesInto(reader, lines)) {
    }
    EXPECT_EQ(lines, expected) << "split at byte " << split;
    // EOF is sticky.
    std::vector<std::string_view> views;
    const auto again = reader.ReadLines(views);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value());
    EXPECT_TRUE(views.empty());
  }
}

TEST(LineReaderTest, ReadLinesYieldsLinesBeforeAnOversizedFragment) {
  Pipe p;
  LineReader reader(p.rd.fd(), /*max_line_bytes=*/16);
  const std::string data = "ok\n" + std::string(40, 'x');
  ASSERT_TRUE(WriteAll(p.wr.fd(), data.data(), data.size()));
  p.wr.Close();

  std::vector<std::string> lines;
  ASSERT_TRUE(ReadLinesInto(reader, lines));
  EXPECT_EQ(lines, (std::vector<std::string>{"ok"}));
  std::vector<std::string_view> views;
  const auto got = reader.ReadLines(views);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- NetServer --

/// Fits a model, starts a NetServer on an ephemeral port, and runs the
/// batch loop on a background thread. The destructor (or Stop) shuts
/// down and surfaces the run summary.
class ServerFixture {
 public:
  explicit ServerFixture(const ml::Classifier& model,
                         NetServeConfig config = {})
      : server_(model, config) {
    const Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    runner_ = std::thread([this] { summary_ = server_.Run(err_); });
  }

  ~ServerFixture() {
    // Teardown-only path: a test that cares about the summary calls
    // Stop() itself; here the Result is discarded on purpose.
    if (runner_.joinable()) (void)Stop();
  }

  Result<serve::StatsSummary> Stop() {
    server_.RequestShutdown();
    runner_.join();
    return summary_;
  }

  uint16_t port() const { return server_.port(); }
  std::string err_text() const { return err_.str(); }

 private:
  NetServer server_;
  std::thread runner_;
  std::ostringstream err_;
  Result<serve::StatsSummary> summary_ =
      Status::Internal("server never ran");
};

/// One complete client exchange: connect, stream `input`, half-close,
/// read every response byte until the server's FIN.
std::string RoundTrip(uint16_t port, const std::string& input) {
  Result<Socket> sock = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(sock.ok()) << sock.status().ToString();
  if (!sock.ok()) return "";
  EXPECT_TRUE(SendAll(sock.value().fd(), input.data(), input.size()).ok());
  sock.value().ShutdownWrite();
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(sock.value().fd(), buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "connection error mid-read";
  return response;
}

/// Splits a response stream into lines.
std::vector<std::string> Lines(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

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

TEST(NetServerTest, StartRejectsUnfittedModel) {
  ml::MajorityClassifier unfitted;
  NetServer server(unfitted, {});
  const Status st = server.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(NetServerTest, IdleStartStopYieldsZeroSummary) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ServerFixture fixture(model);
  ASSERT_GT(fixture.port(), 0);
  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 0u);
  EXPECT_EQ(summary.value().errors, 0u);
}

TEST(NetServerTest, ShutdownRequestedBeforeRunYieldsZeroSummary) {
  // A request that lands before Run() first waits must still end it:
  // the batch loop is skipped and the drain finds nothing to serve.
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  NetServer server(model, {});
  ASSERT_TRUE(server.Start().ok());
  server.RequestShutdown();
  std::ostringstream err;
  const auto summary = server.Run(err);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 0u);
  EXPECT_EQ(summary.value().errors, 0u);
}

TEST(NetServerTest, ConcurrentShutdownRequestsEndRunOnce) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  NetServer server(model, {});
  ASSERT_TRUE(server.Start().ok());
  std::ostringstream err;
  Result<serve::StatsSummary> summary = Status::Internal("server never ran");
  std::thread runner([&] { summary = server.Run(err); });

  // One answered request proves Run() is inside its batch loop before
  // the shutdown requests race each other.
  const std::string answer = RoundTrip(server.port(), "1 2\n");
  EXPECT_TRUE(answer == "0\n" || answer == "1\n") << answer;
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&server] { server.RequestShutdown(); });
  }
  for (std::thread& t : stoppers) t.join();
  runner.join();
  server.RequestShutdown();  // after Run() returned: still harmless

  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 1u);
  EXPECT_EQ(summary.value().errors, 0u);
}

TEST(NetServerTest, ConcurrentClientsMatchTheStdinPathBitForBit) {
  // A real (non-constant) model over multiple batches, so any
  // cross-connection row mixup or reordering flips an output bit.
  const std::vector<uint32_t> domains = {6, 4, 7, 3};
  const Dataset data = MakeParityDataset(400, domains, 41);
  ml::DecisionTree model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ScopedThreads scoped("4");

  // Each client streams a DIFFERENT request sequence — identical
  // streams would mask a cross-connection mixup (swapped rows would
  // still produce the right bytes). Ground truth per client is the
  // pinned single-stream path.
  constexpr int kClients = 4;
  std::vector<std::string> requests(kClients);
  std::vector<std::string> expected(kClients);
  uint64_t total_rows = 0;
  for (int i = 0; i < kClients; ++i) {
    const Dataset reqs =
        MakeParityDataset(120 + 17 * i, domains, 100 + i);
    requests[i] = RequestLines(DataView(&reqs));
    total_rows += reqs.num_rows();
    std::istringstream in(requests[i]);
    std::ostringstream out, err;
    serve::ServeConfig config;
    config.batch_size = 32;
    const auto summary = serve::ServeStream(model, in, out, err, config);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    expected[i] = out.str();
    ASSERT_FALSE(expected[i].empty());
  }

  NetServeConfig config;
  config.batch_size = 32;  // interleaves the clients' rows per batch
  ServerFixture fixture(model, config);

  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = RoundTrip(fixture.port(), requests[i]);
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[i], expected[i]) << "client " << i;
  }

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, total_rows);
  EXPECT_EQ(summary.value().errors, 0u);
}

TEST(NetServerTest, HealthzAnswersWhileAnotherConnectionIsServing) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ServerFixture fixture(model);

  // Connection A stays open mid-stream (no EOF, rows possibly parked in
  // a partial batch); the probe must still answer immediately.
  Result<Socket> a = ConnectTcp("127.0.0.1", fixture.port());
  ASSERT_TRUE(a.ok());
  const std::string some = "1 2\n3 1\n";
  ASSERT_TRUE(SendAll(a.value().fd(), some.data(), some.size()).ok());

  const std::string health = RoundTrip(fixture.port(), "/healthz\n");
  EXPECT_EQ(health.rfind("OK model=", 0), 0u) << health;
  EXPECT_NE(health.find(" rows="), std::string::npos);
  EXPECT_NE(health.find(" errors="), std::string::npos);

  // Unknown commands are per-connection errors, not crashes.
  const std::string unknown = RoundTrip(fixture.port(), "/reboot\n");
  EXPECT_EQ(unknown.rfind("ERR 1: ", 0), 0u) << unknown;
  EXPECT_NE(unknown.find("unknown command"), std::string::npos);

  a.value().ShutdownWrite();
  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
}

TEST(NetServerTest, BadLinesAreIsolatedPerConnection) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ServerFixture fixture(model);

  // Garbage interleaved with good rows: one response per request line,
  // in order, and the connection survives (server-side skip semantics).
  const std::string mixed = RoundTrip(fixture.port(),
                                      "nope\n1 2\n9 2\n3 1\n");
  std::istringstream is(mixed);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << mixed;
  EXPECT_EQ(lines[0].rfind("ERR 1: ", 0), 0u);
  EXPECT_TRUE(lines[1] == "0" || lines[1] == "1");
  EXPECT_EQ(lines[2].rfind("ERR 3: ", 0), 0u);
  EXPECT_NE(lines[2].find("domain"), std::string::npos);
  EXPECT_TRUE(lines[3] == "0" || lines[3] == "1");

  // A clean connection at the same time sees no trace of the errors.
  const std::string clean = RoundTrip(fixture.port(), "1 2\n");
  EXPECT_TRUE(clean == "0\n" || clean == "1\n") << clean;

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().errors, 2u);
}

TEST(NetServerTest, NulByteLineGetsAnErrAndItsNeighboursAreAnswered) {
  // The reader parses in place in its read buffer; a NUL inside a line
  // must reject that line, not cut it short and serve the prefix.
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ServerFixture fixture(model);
  const std::vector<std::string> lines = Lines(RoundTrip(
      fixture.port(), "1 2\n" + std::string("1 2\0junk\n", 9) + "3 1\n"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[0] == "0" || lines[0] == "1");
  EXPECT_EQ(lines[1], "ERR 2: request line contains a NUL byte");
  EXPECT_TRUE(lines[2] == "0" || lines[2] == "1");

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 2u);
  EXPECT_EQ(summary.value().errors, 1u);
}

TEST(NetServerTest, ErrorBudgetClosesOnlyTheOffendingConnection) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  NetServeConfig config;
  config.max_errors = 1;  // second rejected line trips the budget
  ServerFixture fixture(model, config);

  const std::string noisy = RoundTrip(fixture.port(),
                                      "bad\nworse\n1 2\n");
  std::istringstream is(noisy);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  // ERR for each reject, then the final budget notice — and no
  // response for the good line that followed the cutoff.
  ASSERT_EQ(lines.size(), 3u) << noisy;
  EXPECT_EQ(lines[0].rfind("ERR 1: ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ERR 2: ", 0), 0u);
  EXPECT_NE(lines[2].find("error budget exceeded"), std::string::npos);

  // Unrelated connections keep serving.
  const std::string clean = RoundTrip(fixture.port(), "1 2\n");
  EXPECT_TRUE(clean == "0\n" || clean == "1\n") << clean;

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok());
}

TEST(NetServerTest, ShutdownClosesStillOpenConnectionsAfterServing) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  ServerFixture fixture(model);

  // The client never half-closes. Responses must still arrive promptly
  // (the loop flushes a partial batch as soon as the queue goes idle —
  // a quiet stream is not held hostage to batch_size)...
  Result<Socket> sock = ConnectTcp("127.0.0.1", fixture.port());
  ASSERT_TRUE(sock.ok());
  const std::string reqs = "1 2\n3 1\n0 3\n";
  ASSERT_TRUE(SendAll(sock.value().fd(), reqs.data(), reqs.size()).ok());
  std::string response;
  char buf[256];
  ssize_t n;
  while (response.size() < 6 &&
         (n = ::read(sock.value().fd(), buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  std::istringstream is(response);
  std::string line;
  size_t preds = 0;
  while (std::getline(is, line)) {
    EXPECT_TRUE(line == "0" || line == "1") << line;
    ++preds;
  }
  EXPECT_EQ(preds, 3u) << response;

  // ...and graceful shutdown must then cut this still-open connection
  // (the drain wakes its reader and half-closes once responses are out)
  // rather than hang waiting for a client EOF that never comes.
  const auto summary = fixture.Stop();  // SIGTERM equivalent
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().rows, 3u);
  EXPECT_EQ(::read(sock.value().fd(), buf, sizeof(buf)), 0)
      << "expected EOF after shutdown";
}

TEST(NetServerTest, MixedBlockInOneSendMatchesTheSkipPath) {
  const std::vector<uint32_t> domains = {6, 4, 7, 3};
  const Dataset data = MakeParityDataset(400, domains, 41);
  ml::DecisionTree model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  // Every line kind in one read: rows (one CRLF), a blank line, a
  // comment, both commands, an out-of-domain row and a too-long row.
  const std::vector<std::string> block = {
      "1 2 3 1", "", "# comment", "/healthz", "2 0 1 2", "/reboot",
      "9 0 0 0", "1 1 1 1 1", "0 3 6 2\r", "5 1 0 0"};
  std::string request;
  std::string stdin_request;  // the commands become comments
  for (const std::string& line : block) {
    request += line + "\n";
    stdin_request += (line[0] == '/' ? "# command" : line) + "\n";
  }
  std::istringstream in(stdin_request);
  std::ostringstream out, err;
  serve::ServeConfig config;
  config.on_error = serve::OnError::kSkip;
  ASSERT_TRUE(serve::ServeStream(model, in, out, err, config).ok());
  std::vector<std::string> expected = Lines(out.str());
  // Splice the command answers into their slots: /healthz is the 2nd
  // response, "/reboot" (line 6) the 4th once /healthz is in.
  expected.insert(expected.begin() + 1, "OK model=");
  expected.insert(expected.begin() + 3,
                  "ERR 6: unknown command \"/reboot\"");
  ASSERT_EQ(expected.size(), 8u);

  ServerFixture fixture(model);
  const std::vector<std::string> got =
      Lines(RoundTrip(fixture.port(), request));
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(got[i].rfind("OK model=" + model.name() + " rows=", 0), 0u)
          << got[i];
    } else {
      EXPECT_EQ(got[i], expected[i]) << "response " << i;
    }
  }
  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary.value().errors, 3u);
}

TEST(NetServerTest, ErrorBudgetTripsMidChunk) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  NetServeConfig config;
  config.max_errors = 1;
  ServerFixture fixture(model, config);

  // A second connection, open across the trip, with rows on either side.
  Result<Socket> other = ConnectTcp("127.0.0.1", fixture.port());
  ASSERT_TRUE(other.ok());
  const std::string first = "1 2\n3 1\n";
  ASSERT_TRUE(SendAll(other.value().fd(), first.data(), first.size()).ok());

  // The second rejected line trips the budget; the rows, the probe and
  // the garbage after it in the same send get no response.
  const std::vector<std::string> noisy = Lines(RoundTrip(
      fixture.port(), "1 2\nbad\n3 1\nworse\n0 3\n/healthz\nnope\n1 1\n"));
  ASSERT_EQ(noisy.size(), 5u);
  EXPECT_TRUE(noisy[0] == "0" || noisy[0] == "1") << noisy[0];
  EXPECT_EQ(noisy[1].rfind("ERR 2: ", 0), 0u) << noisy[1];
  EXPECT_EQ(noisy[2], noisy[0]);  // a majority model answers alike
  EXPECT_EQ(noisy[3].rfind("ERR 4: ", 0), 0u) << noisy[3];
  EXPECT_EQ(noisy[4].rfind("ERR 4: error budget exceeded", 0), 0u)
      << noisy[4];

  const std::string second = "0 3\n1 1\n";
  ASSERT_TRUE(SendAll(other.value().fd(), second.data(), second.size()).ok());
  other.value().ShutdownWrite();
  std::string response;
  char buf[256];
  ssize_t n;
  while ((n = ::read(other.value().fd(), buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0);
  const std::string p = noisy[0] + "\n";
  EXPECT_EQ(response, p + p + p + p);

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().errors, 2u);
  EXPECT_EQ(summary.value().rows, 6u);
}

TEST(NetServerTest, LinesBeforeAnOversizedLineAreAnsweredFirst) {
  const Dataset data = MakeParityDataset(80, {5, 4}, 7);
  ml::MajorityClassifier model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  ServerFixture fixture(model);

  // One byte past the cap and nothing after it: the reader consumes
  // every byte before it gives up, so the close carries no reset.
  const std::string request =
      "1 2\n3 1\n" + std::string(serve::net::kMaxLineBytes + 1, 'x');
  const std::vector<std::string> got =
      Lines(RoundTrip(fixture.port(), request));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0] == "0" || got[0] == "1") << got[0];
  EXPECT_EQ(got[1], got[0]);
  EXPECT_EQ(got[2], "ERR 3: request line exceeds " +
                        std::to_string(serve::net::kMaxLineBytes) + " bytes");

  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().rows, 2u);
  EXPECT_EQ(summary.value().errors, 1u);
}

TEST(NetServerTest, PipeliningPastTheQueueCapacityKeepsOrder) {
  const std::vector<uint32_t> domains = {6, 4, 7, 3};
  const Dataset data = MakeParityDataset(400, domains, 41);
  ml::DecisionTree model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());

  // At batch_size 32 the queue holds max(1024, 2 * 32) = 1024 request
  // lines; each row client sends more than three times that in one go.
  // A fifth client sends two-byte rejected lines, so one read carries
  // more request lines than the whole queue holds.
  constexpr int kRowClients = 4;
  constexpr int kClients = kRowClients + 1;
  constexpr size_t kRows = 3 * 1024 + 200;
  std::vector<std::string> requests(kClients);
  for (int i = 0; i < kRowClients; ++i) {
    const Dataset reqs = MakeParityDataset(kRows, domains, 300 + i);
    requests[i] = RequestLines(DataView(&reqs));
  }
  for (size_t i = 0; i < kRows; ++i) requests[kRowClients] += "x\n";
  std::vector<std::string> expected(kClients);
  for (int i = 0; i < kClients; ++i) {
    std::istringstream in(requests[i]);
    std::ostringstream out, err;
    serve::ServeConfig config;
    config.on_error = serve::OnError::kSkip;
    ASSERT_TRUE(serve::ServeStream(model, in, out, err, config).ok());
    expected[i] = out.str();
  }

  NetServeConfig config;
  config.batch_size = 32;
  ServerFixture fixture(model, config);
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = RoundTrip(fixture.port(), requests[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[i], expected[i]) << "client " << i;
  }
  const auto summary = fixture.Stop();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().rows, kRowClients * kRows);
  EXPECT_EQ(summary.value().errors, kRows);
}

}  // namespace
}  // namespace hamlet
