// Batched prediction serving over a loaded model.
//
// ServeStream reads prediction requests (one tuple of categorical codes
// per line), validates each code against the model's train-domain
// metadata (restored from the model file header — the server never sees
// the training Dataset), batches rows, and scores each batch through
// the model's dense PredictAll. Like every PredictAll, a batch fans out
// across the HAMLET_THREADS pool only when its estimated work (rows x
// the learner's per-row cost, ml::PredictFansOut) repays waking the
// pool: a default-sized dt-gini batch is scored on the calling thread,
// while SVM and 1-NN batches fan out. Predictions stream to `out` one
// per line in request order; per-batch model time feeds the
// LatencyStats summary the caller prints.
//
// The batching core is factored out as RequestBatcher so other request
// sources can share it: the TCP front-end (serve/net/) multiplexes
// concurrent client connections onto one RequestBatcher, which is how
// concurrent connections end up sharing HAMLET_SERVE_BATCH batches.
//
// Request line format: num_features() unsigned integers separated by
// spaces, tabs or commas. Blank lines and lines starting with '#' are
// skipped (and produce no output line). A line holding a NUL byte is
// malformed.
//
// Error isolation contract: what a malformed or out-of-domain line does
// depends on ServeConfig::on_error.
//   kAbort (strict, the default): the run stops with a Status naming
//     the line number — bit-identical behaviour to the original server.
//   kSkip (resilient): the line produces an in-order
//     "ERR <line>: <reason>" output line instead of a prediction, the
//     error counter in StatsSummary increments, and serving continues.
//     One output line per request either way, so callers can still zip
//     requests with responses. max_errors bounds the tolerance: one
//     more rejected line aborts the run (a stream that is all garbage
//     is a caller bug, not load).
// Either way a serving process never feeds a learner codes outside the
// domains its tables were sized for.
//
// Hot reload: model_poll (when set) is called at every batch boundary;
// a non-null return swaps the model used for subsequent batches. The
// caller is responsible for only returning models that pass
// ValidateReloadedModel — hamlet_serve wires SIGHUP -> load into a
// fresh slot -> validate -> swap, keeping the old model on any failure.
// ModelSlot implements the required lifetime discipline: the displaced
// model stays alive until the *following* swap, so a poll call never
// destroys the model the serving loop was using when it invoked it.

#ifndef HAMLET_SERVE_SERVER_H_
#define HAMLET_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"
#include "hamlet/common/mutex.h"
#include "hamlet/common/thread_annotations.h"
#include "hamlet/data/dataset.h"
#include "hamlet/ml/classifier.h"
#include "hamlet/serve/stats.h"

namespace hamlet {
namespace serve {

/// Batch size requested via HAMLET_SERVE_BATCH: an integer in [1, 1e7];
/// the default is 2048. Grammar and the invalid-value warning are
/// common/env.h's.
size_t ConfiguredBatchSize();

/// What ServeStream does with a malformed or out-of-domain request line.
enum class OnError {
  kEnv,    ///< resolve from HAMLET_SERVE_ON_ERROR (default kAbort)
  kAbort,  ///< stop the run with a Status naming the line (strict)
  kSkip,   ///< emit "ERR <line>: <reason>", count it, keep serving
};

/// Unbounded error tolerance for ServeConfig::max_errors.
inline constexpr size_t kUnlimitedErrors = static_cast<size_t>(-1);

/// Error policy requested via HAMLET_SERVE_ON_ERROR: "abort" or "skip";
/// the default is kAbort. Grammar and the invalid-value warning are
/// common/env.h's.
OnError ConfiguredOnError();

/// Error cap requested via HAMLET_SERVE_MAX_ERRORS: an integer in
/// [0, kUnlimitedErrors] (0 = tolerate no errors: the first rejected
/// line aborts); the default is kUnlimitedErrors. Grammar and the
/// invalid-value warning are common/env.h's.
size_t ConfiguredMaxErrors();

struct ServeConfig {
  /// Rows per PredictAll call; 0 = ConfiguredBatchSize().
  size_t batch_size = 0;
  /// Paint the in-place LiveTicker line on stderr while serving.
  bool live_stats = false;
  /// Malformed-line policy; kEnv = ConfiguredOnError().
  OnError on_error = OnError::kEnv;
  /// Rejected-line budget in kSkip mode; exceeding it aborts the run.
  /// nullopt = ConfiguredMaxErrors() (unlimited when the env is unset
  /// too). 0 is a real budget: the first rejected line aborts.
  std::optional<size_t> max_errors;
  /// Hot-reload hook, called at every batch boundary. A non-null return
  /// replaces the model for subsequent batches (the previous model must
  /// stay valid until the call returns). Null = keep serving as-is.
  std::function<const ml::Classifier*()> model_poll;
};

/// Parses one request line into `codes`, validating field count and
/// domain membership against `domains`. The returned message carries no
/// line prefix; callers add "request line N: " so the strict Status and
/// the resilient ERR output line share the reason text. Shared by
/// ServeStream and the socket front-end so both speak the same grammar;
/// the socket readers parse straight out of their read buffers.
HAMLET_NODISCARD Status ParseRequest(std::string_view line,
                    const std::vector<uint32_t>& domains,
                    std::vector<uint32_t>& codes);

/// True for request lines that produce no output at all: blank lines
/// and '#' comments. The caller strips a trailing '\r' first.
bool IsIgnorableRequestLine(std::string_view line);

/// The shared batching core: stages parsed request rows row-major,
/// moves a full batch into one Dataset reused across batches, scores it
/// through the active model's dense PredictAll (timed into `stats`), and
/// hands each prediction back through `emit` with its row's index in the
/// batch, in row order. One owner drives it from a single thread;
/// sources that read from many threads (the socket front-end) funnel
/// into it through a queue.
class RequestBatcher {
 public:
  /// Receives one prediction per Add'ed row, in batch order; `row` counts
  /// the rows Add'ed since the previous flush, from 0.
  using Emit = std::function<Status(size_t row, uint8_t prediction)>;
  /// Invoked after every successfully flushed batch (ticker repaints,
  /// connection output drains).
  using AfterBatch = std::function<void()>;

  /// `domains` is copied: hot reload may destroy the model the sizes
  /// came from, and ValidateReloadedModel guarantees the replacement's
  /// domains are identical.
  RequestBatcher(const ml::Classifier& model, std::vector<uint32_t> domains,
                 size_t batch_size,
                 std::function<const ml::Classifier*()> model_poll,
                 LatencyStats& stats, Emit emit,
                 AfterBatch after_batch = nullptr);

  const std::vector<uint32_t>& domains() const { return domains_; }

  /// Queues one row of domains().size() codes; flushes automatically at
  /// capacity. A code outside its domain is refused with OutOfRange and
  /// queues nothing.
  HAMLET_NODISCARD Status Add(const uint32_t* codes);

  /// Scores and emits everything pending. No-op when empty; the
  /// model_poll hook fires only when there are rows to serve, keeping
  /// the poll cadence identical to the original single-stream loop.
  HAMLET_NODISCARD Status Flush();

  size_t pending() const { return pending_rows_; }
  const ml::Classifier& active_model() const { return *active_; }

 private:
  std::vector<uint32_t> domains_;
  size_t batch_size_;
  std::function<const ml::Classifier*()> model_poll_;
  LatencyStats& stats_;
  Emit emit_;
  AfterBatch after_batch_;
  const ml::Classifier* active_;
  std::vector<uint32_t> pending_codes_;  ///< queued rows, row-major
  size_t pending_rows_ = 0;
  Dataset batch_;  ///< the batch PredictAll scores; reused across batches
};

/// Owns the serving model plus the one it most recently replaced.
/// Swap() keeps the displaced model alive until the *next* Swap (or the
/// slot's destruction): ServeStream's model_poll contract says the
/// previous model must stay valid until the poll call returns, so the
/// hook must not destroy it mid-call — parking it here defers the
/// destruction past the swap that retired it.
///
/// Thread safety: current() and Swap() synchronize on an internal
/// mutex, so a reload thread may Swap while the serving loop polls
/// current() — the poll observes either the old or the new pointer,
/// never a torn one, and the retirement rule above keeps whichever it
/// observes alive for the duration of the batch.
class ModelSlot {
 public:
  explicit ModelSlot(std::unique_ptr<ml::Classifier> model)
      : current_(std::move(model)) {}

  const ml::Classifier* current() const {
    MutexLock lock(mu_);
    return current_.get();
  }
  ml::Classifier* current() {
    MutexLock lock(mu_);
    return current_.get();
  }

  /// Installs `fresh` as the serving model and returns it. The previous
  /// model is retired, not destroyed: it lives until the next Swap.
  const ml::Classifier* Swap(std::unique_ptr<ml::Classifier> fresh);

 private:
  mutable Mutex mu_;
  std::unique_ptr<ml::Classifier> current_ HAMLET_GUARDED_BY(mu_);
  std::unique_ptr<ml::Classifier> retired_ HAMLET_GUARDED_BY(mu_);
};

/// Serves every request line of `in` against `model`, writing one
/// output line per request (prediction, or ERR in kSkip mode) to `out`.
/// Returns the latency/error summary on success. The model must carry
/// train-domain metadata (any model loaded through io::LoadModel does;
/// a freshly Fit model does too).
HAMLET_NODISCARD Result<StatsSummary> ServeStream(const ml::Classifier& model,
                                 std::istream& in, std::ostream& out,
                                 std::ostream& err,
                                 const ServeConfig& config = {});

/// Validate-before-swap check for hot reload: the candidate must carry
/// train-domain metadata and its domains must match the serving model's
/// exactly (requests already validated against the old header must stay
/// valid, and learner tables must match the domain the parser enforces).
/// OK = safe to swap.
HAMLET_NODISCARD Status ValidateReloadedModel(const ml::Classifier& current,
                             const ml::Classifier& candidate);

}  // namespace serve
}  // namespace hamlet

#endif  // HAMLET_SERVE_SERVER_H_
