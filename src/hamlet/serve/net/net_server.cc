#include "hamlet/serve/net/net_server.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <utility>

#include "hamlet/common/stringx.h"

namespace hamlet {
namespace serve {
namespace net {

namespace {

/// How long the batch loop waits for a request before re-checking
/// stop_poll. RequestShutdown wakes the wait at once, but stop_poll
/// reads a flag that a signal handler sets, and a handler cannot
/// notify, so this bounds the signal latency.
constexpr std::chrono::milliseconds kPollInterval(50);

}  // namespace

// ---------------------------------------------------------------------
// RequestQueue

void NetServer::RequestQueue::Push(Chunk chunk) {
  MutexLock lock(mu_);
  // EOF/error markers carry no lines and always fit: a reader must be
  // able to announce its exit even at capacity, or shutdown could
  // deadlock against a full queue. A chunk always fits an empty queue,
  // so one larger than capacity still makes progress.
  const size_t lines = chunk.lines.size();
  while (!items_.empty() && lines_ + lines > capacity_) not_full_.Wait(mu_);
  lines_ += lines;
  items_.push_back(std::move(chunk));
  not_empty_.NotifyOne();
}

bool NetServer::RequestQueue::PopWithTimeout(
    Chunk& chunk, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (items_.empty()) {
    if (wake_) {
      wake_ = false;
      return false;
    }
    if (!not_empty_.WaitUntil(mu_, deadline) && items_.empty()) {
      return false;
    }
  }
  chunk = std::move(items_.front());
  items_.pop_front();
  lines_ -= chunk.lines.size();
  // All: the space freed may fit a waiting reader's chunk but not the
  // one a single wakeup would pick.
  not_full_.NotifyAll();
  return true;
}

bool NetServer::RequestQueue::TryPop(Chunk& chunk) {
  MutexLock lock(mu_);
  if (items_.empty()) return false;
  chunk = std::move(items_.front());
  items_.pop_front();
  lines_ -= chunk.lines.size();
  not_full_.NotifyAll();
  return true;
}

void NetServer::RequestQueue::Wake() {
  MutexLock lock(mu_);
  wake_ = true;
  not_empty_.NotifyAll();
}

bool NetServer::RequestQueue::Empty() {
  MutexLock lock(mu_);
  return items_.empty();
}

// ---------------------------------------------------------------------
// Lifecycle

NetServer::NetServer(const ml::Classifier& model, NetServeConfig config)
    : model_(model),
      config_(std::move(config)),
      domains_(model.train_domain_sizes()),
      // Enough queued lines to fill a couple of batches; beyond that,
      // readers block and TCP back-pressures the clients.
      queue_(std::max<size_t>(
          1024, 2 * (config_.batch_size > 0 ? config_.batch_size
                                            : ConfiguredBatchSize()))) {}

NetServer::~NetServer() {
  // Defensive: a server that was Start()ed but never Run() (or whose
  // Run() already returned) still owns threads to stop.
  stop_.store(true);
  listener_.ShutdownBoth();
  {
    MutexLock lock(conns_mu_);
    for (auto& entry : conns_) entry.second->sock.ShutdownBoth();
  }
  if (acceptor_.joinable()) acceptor_.join();
  // With the acceptor joined no new connection can appear; swap the
  // survivors out and join their readers OUTSIDE conns_mu_ — a reader
  // blocked pushing into a full queue needs the drain loop below to
  // make progress, and holding a lock across join is the discipline
  // the thread-safety annotations exist to forbid.
  std::vector<ConnPtr> to_join;
  {
    MutexLock lock(conns_mu_);
    to_join.reserve(conns_.size());
    for (auto& entry : conns_) {
      // Latecomers accepted just before the listener died still need
      // their sockets shut down to wake their readers.
      entry.second->sock.ShutdownBoth();
      to_join.push_back(entry.second);
    }
    conns_.clear();
  }
  for (const ConnPtr& conn : to_join) {
    // Drain any reader blocked on a full queue, then join.
    Chunk dropped;
    while (!conn->reader_done.load() && queue_.TryPop(dropped)) {
    }
    if (conn->reader.joinable()) conn->reader.join();
  }
  for (const ConnPtr& conn : retired_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

Status NetServer::Start() {
  if (domains_.empty()) {
    return Status::FailedPrecondition(
        "model carries no train-domain metadata; load it via io::LoadModel "
        "or Fit it before serving");
  }
  Result<Socket> listener = ListenTcp(config_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Result<uint16_t> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  port_ = port.value();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_.store(true);
  return Status::OK();
}

void NetServer::RequestShutdown() {
  stop_.store(true);
  queue_.Wake();
}

bool NetServer::ShouldStop() {
  if (stop_.load()) return true;
  if (config_.stop_poll && config_.stop_poll()) {
    stop_.store(true);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Acceptor + readers

void NetServer::AcceptLoop() {
  while (true) {
    Result<Socket> accepted = AcceptConnection(listener_);
    // Errors here are the shutdown path (listener shut down) or a
    // transient accept failure; either way stop_ decides.
    if (stop_.load()) return;
    if (!accepted.ok()) return;
    ConnPtr conn = std::make_shared<Connection>();
    conn->id = next_conn_id_.fetch_add(1);
    conn->sock = std::move(accepted).value();
    {
      // Insert and reader-thread assignment share one critical section:
      // everyone else reaches a connection through conns_ (under this
      // mutex), so they observe `reader` fully assigned. Publishing the
      // conn first opens a race where a fast reader finishes, the Run()
      // thread reaps it while joinable() is still false, and the
      // assignment then lands a never-joined thread in the struct.
      MutexLock lock(conns_mu_);
      conns_[conn->id] = conn;
      conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    }
  }
}

void NetServer::AddLine(Chunk& chunk, uint64_t line_no,
                        std::string_view line,
                        std::vector<uint32_t>& codes) const {
  if (IsIgnorableRequestLine(line)) return;
  ChunkLine entry;
  entry.line_no = line_no;
  const auto first = std::find_if(line.begin(), line.end(), [](char c) {
    return !std::isspace(static_cast<unsigned char>(c));
  });
  std::string text;
  if (first != line.end() && *first == '/') {
    entry.kind = ChunkLine::Kind::kCommand;
    text = TrimString(line);
  } else {
    const Status parsed = ParseRequest(line, domains_, codes);
    if (parsed.ok()) {
      entry.kind = ChunkLine::Kind::kRow;
      entry.begin = static_cast<uint32_t>(chunk.codes.size());
      chunk.codes.insert(chunk.codes.end(), codes.begin(), codes.end());
      chunk.lines.push_back(entry);
      return;
    }
    entry.kind = ChunkLine::Kind::kRejected;
    text = parsed.message();
  }
  entry.begin = static_cast<uint32_t>(chunk.text.size());
  entry.size = static_cast<uint32_t>(text.size());
  chunk.text += text;
  chunk.lines.push_back(entry);
}

void NetServer::ReaderLoop(ConnPtr conn) {
  LineReader reader(conn->sock.fd());
  uint64_t line_no = 0;
  std::vector<std::string_view> lines;
  std::vector<uint32_t> codes;
  Chunk chunk;
  auto push = [&] {
    if (chunk.lines.empty()) return;
    chunk.conn_id = conn->id;
    queue_.Push(std::move(chunk));
    chunk = Chunk();
  };
  while (true) {
    Result<bool> got = reader.ReadLines(lines);
    if (!got.ok()) {
      Chunk error;
      error.conn_id = conn->id;
      error.kind = Chunk::Kind::kReadError;
      error.text = got.status().message();
      error.error_line_no = ++line_no;
      queue_.Push(std::move(error));
      break;
    }
    // One chunk per read, split only where it would exceed the queue.
    chunk.lines.reserve(std::min(lines.size(), queue_.capacity()));
    chunk.codes.reserve(chunk.lines.capacity() * domains_.size());
    for (std::string_view line : lines) {
      AddLine(chunk, ++line_no, line, codes);
      if (chunk.lines.size() >= queue_.capacity()) push();
    }
    push();
    if (!got.value()) break;  // clean EOF
  }
  Chunk eof;
  eof.conn_id = conn->id;
  eof.kind = Chunk::Kind::kEof;
  queue_.Push(std::move(eof));
  conn->reader_done.store(true);
}

// ---------------------------------------------------------------------
// Run()-thread request handling

NetServer::ConnPtr NetServer::FindConn(uint64_t id) {
  MutexLock lock(conns_mu_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

std::string NetServer::HealthzResponse() const {
  const ml::Classifier& active =
      batcher_ != nullptr ? batcher_->active_model() : model_;
  return "OK model=" + active.name() +
         " rows=" + std::to_string(stats_.rows()) +
         " errors=" + std::to_string(stats_.errors());
}

uint64_t NetServer::ReorderRing::Push(uint8_t cell) {
  if (tail_ - head_ == cells_.size()) {
    std::vector<uint8_t> grown(cells_.size() * 2);
    for (uint64_t slot = head_; slot < tail_; ++slot) {
      grown[slot & (grown.size() - 1)] = cells_[slot & mask()];
    }
    cells_ = std::move(grown);
  }
  cells_[tail_ & mask()] = cell;
  return tail_++;
}

void NetServer::ReorderRing::PushText(std::string text) {
  Push(kText);
  texts_.push_back(std::move(text));
}

void NetServer::ReorderRing::Drain(std::string* out) {
  for (; head_ != tail_; ++head_) {
    const uint8_t cell = cells_[head_ & mask()];
    if (cell == kPending) break;
    if (out != nullptr) {
      if (cell == kText) {
        *out += texts_.front();
      } else {
        *out += static_cast<char>('0' + cell);
      }
      *out += '\n';
    }
    if (cell == kText) texts_.pop_front();
  }
}

void NetServer::ReorderRing::Clear() {
  texts_.clear();
  head_ = tail_;
}

void NetServer::AssignImmediate(const ConnPtr& conn, std::string response) {
  conn->ring.PushText(std::move(response));
  DrainConn(conn);
}

void NetServer::RecordConnError(const ConnPtr& conn, uint64_t line_no,
                                std::string_view reason) {
  stats_.RecordError();
  ++conn->errors;
  const std::string prefix = "ERR " + std::to_string(line_no) + ": ";
  AssignImmediate(conn, prefix + std::string(reason));
  if (conn->errors > max_errors_) {
    // Per-connection isolation: only this client is cut off; the final
    // ERR tells it why before the FIN.
    AssignImmediate(conn, prefix + "error budget exceeded (" +
                              std::to_string(max_errors_) +
                              " rejected lines); closing connection");
    conn->poisoned = true;
    conn->sock.ShutdownRead();
  }
}

void NetServer::HandleLine(const ConnPtr& conn, const Chunk& chunk,
                           const ChunkLine& line) {
  const std::string_view text(chunk.text.data() + line.begin, line.size);
  switch (line.kind) {
    case ChunkLine::Kind::kCommand:
      if (text == "/healthz") {
        AssignImmediate(conn, HealthzResponse());
      } else {
        RecordConnError(conn, line.line_no,
                        "unknown command \"" + std::string(text) + "\"");
      }
      return;
    case ChunkLine::Kind::kRejected:
      RecordConnError(conn, line.line_no, text);
      return;
    case ChunkLine::Kind::kRow:
      break;
  }
  if (!conn->in_batch) {
    conn->in_batch = true;
    batch_conns_.push_back(conn);
  }
  inflight_.emplace_back(conn.get(), conn->ring.Push(ReorderRing::kPending));
  // Add can only fail on an out-of-domain row, which ParseRequest
  // already excluded; a failure here is a programming error worth
  // surfacing, but it must not tear down the other connections — record
  // it against this one.
  const Status added = batcher_->Add(chunk.codes.data() + line.begin);
  if (!added.ok()) {
    // The row never joined the batch: its slot answers the ERR instead.
    inflight_.pop_back();
    conn->ring.Unpush();
    AssignImmediate(conn, "ERR " + std::to_string(line.line_no) + ": " +
                              added.message());
  }
}

void NetServer::DrainConn(const ConnPtr& conn) {
  conn->ring.Drain(conn->write_failed ? nullptr : &conn->out);
  if (!conn->out.empty() && !conn->dirty) {
    conn->dirty = true;
    dirty_.push_back(conn);
  }
}

void NetServer::FlushConn(Connection& conn) {
  conn.dirty = false;
  if (conn.out.empty()) return;
  if (!conn.write_failed &&
      !SendAll(conn.sock.fd(), conn.out.data(), conn.out.size()).ok()) {
    // The client vanished: stop writing and reading, but let any rows
    // already in the batch complete (their slots just drop).
    conn.write_failed = true;
    conn.poisoned = true;
    conn.sock.ShutdownRead();
  }
  conn.out.clear();
}

void NetServer::FlushOutput() {
  for (const ConnPtr& conn : dirty_) {
    if (conn->dirty) FlushConn(*conn);
  }
  dirty_.clear();
}

void NetServer::MaybeRetire(const ConnPtr& conn) {
  if (conn->retired || !conn->input_done || !conn->ring.empty()) return;
  conn->retired = true;
  // Every response is out: send them, then half-close so the client's
  // read loop ends.
  FlushConn(*conn);
  conn->sock.ShutdownWrite();
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->id);
  }
  retired_.push_back(conn);
}

void NetServer::ReapRetired() {
  auto done = [](const ConnPtr& conn) {
    if (!conn->reader_done.load()) return false;
    if (conn->reader.joinable()) conn->reader.join();
    return true;
  };
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(), done),
                 retired_.end());
}

void NetServer::Process(const Chunk& chunk, std::ostream& err) {
  ConnPtr conn = FindConn(chunk.conn_id);
  if (conn == nullptr) return;  // already retired
  switch (chunk.kind) {
    case Chunk::Kind::kEof:
      conn->input_done = true;
      MaybeRetire(conn);
      break;
    case Chunk::Kind::kReadError:
      err << "hamlet_serve: connection " << chunk.conn_id
          << " read error: " << chunk.text << "\n";
      RecordConnError(conn, chunk.error_line_no, chunk.text);
      conn->poisoned = true;
      break;
    case Chunk::Kind::kLines:
      for (const ChunkLine& line : chunk.lines) {
        if (conn->poisoned) break;
        HandleLine(conn, chunk, line);
      }
      break;
  }
}

// ---------------------------------------------------------------------
// The batch/write loop

Result<StatsSummary> NetServer::Run(std::ostream& err) {
  if (!started_.load()) {
    return Status::FailedPrecondition("NetServer::Run before Start");
  }
  max_errors_ = config_.max_errors.has_value() ? *config_.max_errors
                                               : ConfiguredMaxErrors();
  LiveTicker ticker(err, config_.live_stats);
  RequestBatcher batcher(
      model_, domains_, config_.batch_size, config_.model_poll, stats_,
      [this](size_t row, uint8_t pred) -> Status {
        const auto& [conn, slot] = inflight_[row];
        conn->ring.Set(slot, pred);
        return Status::OK();
      },
      [this, &ticker]() {
        for (const ConnPtr& conn : batch_conns_) {
          conn->in_batch = false;
          DrainConn(conn);
          MaybeRetire(conn);
        }
        batch_conns_.clear();
        inflight_.clear();
        FlushOutput();
        ticker.MaybeTick(stats_);
      });
  batcher_ = &batcher;
  Status loop_status = Status::OK();

  while (!ShouldStop()) {
    Chunk chunk;
    if (queue_.PopWithTimeout(chunk, kPollInterval)) {
      Process(chunk, err);
      // Opportunistic batching: drain whatever already arrived, then
      // flush as soon as the queue goes idle so a quiet stream still
      // answers promptly. Sustained load fills batches to batch_size
      // inside Add.
      while (queue_.TryPop(chunk)) Process(chunk, err);
    }
    if (batcher.pending() > 0) {
      loop_status = batcher.Flush();
      if (!loop_status.ok()) break;
    }
    // Responses that needed no batch (ERR, /healthz) go out before the
    // next wait.
    FlushOutput();
    ReapRetired();
  }

  // Graceful shutdown: stop accepting, wake every reader, serve what
  // already arrived, write the remaining responses, close.
  stop_.store(true);
  listener_.ShutdownBoth();
  while (true) {
    std::vector<ConnPtr> live;
    {
      MutexLock lock(conns_mu_);
      // Latecomer-safe: re-shutdown every pass; a connection accepted
      // just before the listener died still gets woken.
      for (auto& entry : conns_) {
        entry.second->sock.ShutdownRead();
        live.push_back(entry.second);
      }
      if (conns_.empty() && queue_.Empty()) break;
    }
    if (!loop_status.ok()) {
      // The batch loop itself failed: responses for queued rows will
      // never materialise, so abandon them or the drain never ends.
      for (const ConnPtr& conn : live) {
        conn->write_failed = true;
        conn->poisoned = true;
        conn->ring.Clear();
        conn->out.clear();
        MaybeRetire(conn);
      }
    }
    Chunk chunk;
    if (queue_.PopWithTimeout(chunk, std::chrono::milliseconds(10))) {
      Process(chunk, err);
      while (queue_.TryPop(chunk)) Process(chunk, err);
    }
    if (loop_status.ok() && batcher.pending() > 0) {
      loop_status = batcher.Flush();
    }
    FlushOutput();
    ReapRetired();
  }
  if (acceptor_.joinable()) acceptor_.join();
  ReapRetired();
  for (const ConnPtr& conn : retired_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  retired_.clear();
  batch_conns_.clear();
  inflight_.clear();
  dirty_.clear();
  batcher_ = nullptr;
  ticker.Finish();

  if (!loop_status.ok()) return loop_status;
  return Result<StatsSummary>(stats_.Summarize());
}

}  // namespace net
}  // namespace serve
}  // namespace hamlet
