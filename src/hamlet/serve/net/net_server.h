// TCP front-end for the serving stack: a line-protocol socket service
// multiplexing concurrent client connections onto one shared
// RequestBatcher, so every connection's rows ride the same
// HAMLET_SERVE_BATCH batches. A batch fans out across the
// HAMLET_THREADS pool only when its estimated work repays the wake-up
// (ml::PredictFansOut); a default-sized dt-gini batch is scored on
// the Run() thread.
//
// Wire protocol (newline-framed, same request grammar as the stdin
// path — see serve/server.h):
//   - Each request line yields exactly one response line, in
//     per-connection request order: the prediction ("0"/"1"), or
//     "ERR <line>: <reason>" for a malformed/out-of-domain line, where
//     <line> is the 1-based line number within that connection
//     (blank/'#' lines count but produce no response, exactly like the
//     stdin path — so piping the same file through `--client` and
//     through stdin yields bit-identical output).
//   - Lines starting with '/' are commands. "/healthz" answers
//     "OK model=<name> rows=<served> errors=<rejected>" immediately
//     (in order with the connection's other responses); unknown
//     commands are errors.
//   - Error isolation is per connection (OnError::kSkip semantics):
//     a bad line produces an ERR response and counts against that
//     connection's budget (NetServeConfig::max_errors, default
//     HAMLET_SERVE_MAX_ERRORS); exceeding the budget sends a final
//     "ERR <line>: error budget exceeded..." and closes only that
//     connection. Other connections never notice.
//   - The server half-closes (FIN) a connection once the client's EOF
//     arrived and every response was written, so "send all, shut down
//     write, read until EOF" is a complete client.
//
// Threading: one acceptor thread, one reader thread per connection,
// and the caller's Run() thread as the single batch/write loop. Readers
// work a whole read(2) at a time: they frame every complete line it
// delivered, classify each one (row, ignorable, command, rejected) and
// run ParseRequest on the rows in place in the read buffer, then push
// the read as one chunk into a queue bounded in request lines
// (back-pressure lands on the sockets, not on memory). Batching, stats,
// response ordering and socket writes happen on the Run() thread.
// Responses collect, in request order, in a per-connection output
// buffer; each connection with new output gets one blocking send per
// batch (and one per loop pass, so ERR and /healthz answers go out
// promptly). A stalled client can therefore
// still stall the write loop — acceptable at this rung, noted in
// docs/ARCHITECTURE.md.
//
// Shutdown: RequestShutdown() (or a true stop_poll, wired to
// SIGINT/SIGTERM by hamlet_serve) stops accepting, wakes every reader,
// drains already-received requests through a final batch, writes the
// remaining responses, and returns the run's StatsSummary — the caller
// prints the usual "[serve]" line.

#ifndef HAMLET_SERVE_NET_NET_SERVER_H_
#define HAMLET_SERVE_NET_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"
#include "hamlet/common/mutex.h"
#include "hamlet/common/thread_annotations.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/serve/net/socket.h"
#include "hamlet/serve/server.h"
#include "hamlet/serve/stats.h"

namespace hamlet {
namespace serve {
namespace net {

struct NetServeConfig {
  /// Port to listen on (loopback); 0 = OS-assigned, read via port().
  uint16_t port = 0;
  /// Rows per PredictAll call; 0 = ConfiguredBatchSize().
  size_t batch_size = 0;
  /// Per-connection rejected-line budget; nullopt = ConfiguredMaxErrors().
  std::optional<size_t> max_errors;
  /// Paint the in-place LiveTicker line on the Run() err stream.
  bool live_stats = false;
  /// Hot-reload hook, same contract as ServeConfig::model_poll.
  std::function<const ml::Classifier*()> model_poll;
  /// Checked between batches; returning true triggers graceful
  /// shutdown (hamlet_serve wires the SIGINT/SIGTERM flag here).
  std::function<bool()> stop_poll;
};

class NetServer {
 public:
  /// The model must carry train-domain metadata and outlive the server
  /// (hot reload via model_poll follows the ServeStream contract).
  NetServer(const ml::Classifier& model, NetServeConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts accepting. Fails without serving if
  /// the port is taken or the model carries no domain metadata.
  HAMLET_NODISCARD Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// The batch/write loop: serves until RequestShutdown() or a true
  /// stop_poll, then drains and returns the aggregate summary.
  /// `err` receives the live ticker and per-event log lines.
  HAMLET_NODISCARD Result<StatsSummary> Run(std::ostream& err);

  /// Thread-safe, idempotent; wakes Run() at once if it is waiting for
  /// requests.
  void RequestShutdown();

 private:
  /// One response-producing request line of a chunk.
  struct ChunkLine {
    enum class Kind : uint8_t { kRow, kCommand, kRejected };
    uint64_t line_no = 0;  ///< 1-based within the connection
    Kind kind = Kind::kRow;
    /// kRow: offset of the row's codes in Chunk::codes. Otherwise the
    /// command (trimmed) or the rejection reason, as a span of
    /// Chunk::text.
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  /// What a reader hands the Run() thread: the request lines of one
  /// read, already framed and parsed, or an end-of-input marker.
  struct Chunk {
    enum class Kind : uint8_t { kLines, kEof, kReadError };
    uint64_t conn_id = 0;
    Kind kind = Kind::kLines;
    std::vector<ChunkLine> lines;  ///< blank and '#' lines take no entry
    std::vector<uint32_t> codes;   ///< rows' codes, domains_.size() each
    std::string text;              ///< command/reason bytes; kReadError:
                                   ///< the reason
    uint64_t error_line_no = 0;    ///< kReadError: the line it poisons
  };

  /// Bounded MPSC queue of chunks, counted in request lines: readers
  /// push (blocking while the queue is non-empty and the chunk would
  /// take it past capacity), the Run() thread pops. Back-pressure
  /// reaches clients through TCP. Readers cap a chunk at capacity(), so
  /// at most capacity() lines are ever queued.
  class RequestQueue {
   public:
    explicit RequestQueue(size_t capacity) : capacity_(capacity) {}
    size_t capacity() const { return capacity_; }
    void Push(Chunk chunk);
    bool PopWithTimeout(Chunk& chunk, std::chrono::milliseconds timeout);
    bool TryPop(Chunk& chunk);
    bool Empty();
    /// Makes the current or next PopWithTimeout that finds the queue
    /// empty return false at once, without waiting out its timeout.
    void Wake();

   private:
    Mutex mu_;
    CondVar not_full_;
    CondVar not_empty_;
    std::deque<Chunk> items_ HAMLET_GUARDED_BY(mu_);
    size_t lines_ HAMLET_GUARDED_BY(mu_) = 0;  ///< queued request lines
    bool wake_ HAMLET_GUARDED_BY(mu_) = false;
    const size_t capacity_;
  };

  /// A connection's response slots in request order, from the next to
  /// write (head) to the next to assign (tail). A slot holds kPending
  /// until its row's batch is scored, then the prediction, or kText for
  /// an ERR/OK line queued in `texts_`. Slot s sits at cell s & mask of
  /// a power-of-two ring, i.e. s - head cells past the head's. Text
  /// lines are assigned and written in slot order, so `texts_` is a
  /// FIFO.
  class ReorderRing {
   public:
    static constexpr uint8_t kPending = 0xff;
    static constexpr uint8_t kText = 0xfe;

    /// Assigns the next slot, holding `cell`; returns the slot.
    uint64_t Push(uint8_t cell);
    /// Assigns the next slot to a ready text line.
    void PushText(std::string text);
    /// Takes back the newest slot, which must be pending.
    void Unpush() { --tail_; }
    /// Sets a pending slot's prediction.
    void Set(uint64_t slot, uint8_t prediction) {
      cells_[slot & mask()] = prediction;
    }
    bool empty() const { return head_ == tail_; }
    /// Moves the ready prefix to `out`, one line per slot (`out` null:
    /// discards it).
    void Drain(std::string* out);
    /// Drops every slot, ready or not.
    void Clear();

   private:
    size_t mask() const { return cells_.size() - 1; }

    std::vector<uint8_t> cells_ = std::vector<uint8_t>(64);
    std::deque<std::string> texts_;
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
  };

  /// Per-connection state. The socket is shared between its reader
  /// thread (reads) and the Run() thread (writes, shutdown); all other
  /// fields below `reader_done` are Run()-thread-only.
  struct Connection {
    uint64_t id = 0;
    Socket sock;
    std::thread reader;
    std::atomic<bool> reader_done{false};

    ReorderRing ring;        ///< responses not yet written to `out`
    std::string out;         ///< written responses not yet sent
    bool dirty = false;      ///< `out` is on the dirty_ list
    bool in_batch = false;   ///< on the batch_conns_ list
    uint64_t errors = 0;     ///< rejected lines on this connection
    bool input_done = false; ///< EOF marker consumed
    bool poisoned = false;   ///< budget/write failure: drop further input
    bool write_failed = false;  ///< peer vanished: discard responses
    bool retired = false;    ///< already moved to the retired list
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void AcceptLoop();
  void ReaderLoop(ConnPtr conn);
  /// Classifies and parses one framed line into `chunk`, reading it in
  /// place in the reader's buffer; `codes` is the reader's reusable row
  /// buffer.
  void AddLine(Chunk& chunk, uint64_t line_no, std::string_view line,
               std::vector<uint32_t>& codes) const;

  // Run()-thread helpers.
  void Process(const Chunk& chunk, std::ostream& err);
  void HandleLine(const ConnPtr& conn, const Chunk& chunk,
                  const ChunkLine& line);
  void AssignImmediate(const ConnPtr& conn, std::string response);
  void RecordConnError(const ConnPtr& conn, uint64_t line_no,
                       std::string_view reason);
  void DrainConn(const ConnPtr& conn);
  void FlushConn(Connection& conn);
  void FlushOutput();
  void MaybeRetire(const ConnPtr& conn);
  void ReapRetired();
  bool ShouldStop();
  ConnPtr FindConn(uint64_t id);
  std::string HealthzResponse() const;

  const ml::Classifier& model_;
  NetServeConfig config_;
  /// Read by every reader thread without a lock: it is set at
  /// construction and never written again, and hot reload only installs
  /// models whose domains are identical (ValidateReloadedModel).
  const std::vector<uint32_t> domains_;
  size_t max_errors_ = kUnlimitedErrors;

  Socket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  RequestQueue queue_;
  Mutex conns_mu_;
  std::map<uint64_t, ConnPtr> conns_ HAMLET_GUARDED_BY(conns_mu_);
  std::atomic<uint64_t> next_conn_id_{1};
  /// Closed connections awaiting their reader join. Not guarded:
  /// touched only by the Run() thread and the destructor, which runs
  /// strictly after Run() returns.
  std::vector<ConnPtr> retired_;

  // Batch state, only valid inside Run().
  LatencyStats stats_;
  RequestBatcher* batcher_ = nullptr;
  /// Batch row -> (connection, slot) for rows in the current batch. The raw
  /// pointers stay valid because batch_conns_ holds every connection
  /// with a row in the batch.
  std::vector<std::pair<Connection*, uint64_t>> inflight_;
  std::vector<ConnPtr> batch_conns_;
  /// Connections whose `out` holds unsent responses.
  std::vector<ConnPtr> dirty_;
};

}  // namespace net
}  // namespace serve
}  // namespace hamlet

#endif  // HAMLET_SERVE_NET_NET_SERVER_H_
