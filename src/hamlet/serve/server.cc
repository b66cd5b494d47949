#include "hamlet/serve/server.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hamlet/common/env.h"
#include "hamlet/common/stringx.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/view.h"

namespace hamlet {
namespace serve {

namespace {

constexpr size_t kDefaultBatchSize = 2048;

/// Builds the request-decoding Dataset skeleton from the model header's
/// domain metadata: one kHome feature per training feature, same domain
/// sizes, so a view over appended request rows is learner-compatible
/// with the training view by construction.
Dataset MakeRequestDataset(const std::vector<uint32_t>& domains) {
  std::vector<FeatureSpec> specs(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    specs[j].name = "f" + std::to_string(j);
    specs[j].domain_size = domains[j];
    specs[j].role = FeatureRole::kHome;
  }
  return Dataset(std::move(specs));
}

/// ParseRequest's grammar, without its NUL rule.
Status ParseCodes(std::string_view line, const std::vector<uint32_t>& domains,
                  std::vector<uint32_t>& codes) {
  codes.clear();
  const size_t n = line.size();
  size_t i = 0;
  while (true) {
    while (i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == ',')) {
      ++i;
    }
    if (i == n) break;
    const DigitRun run = ParseDigitRun(
        std::string_view(line.data() + i, n - i));
    if (run.length == 0) {
      return Status::InvalidArgument(
          "expected an unsigned integer code, got \"" + std::string(line) +
          "\"");
    }
    const size_t j = codes.size();
    if (j >= domains.size()) {
      return Status::InvalidArgument("more than " +
                                     std::to_string(domains.size()) +
                                     " fields");
    }
    if (run.value >= domains[j]) {
      // Out-of-domain codes would index past learner tables (NB
      // likelihoods, logreg weights); reject at the door. The message
      // quotes the digits as sent: the parsed value saturates at
      // 2^64 - 1.
      return Status::OutOfRange(
          "code " + std::string(line.substr(i, run.length)) +
          " outside feature " + std::to_string(j) + "'s domain [0, " +
          std::to_string(domains[j]) + ")");
    }
    codes.push_back(static_cast<uint32_t>(run.value));
    i += run.length;
  }
  if (codes.size() != domains.size()) {
    return Status::InvalidArgument(
        "got " + std::to_string(codes.size()) + " fields, model expects " +
        std::to_string(domains.size()));
  }
  return Status::OK();
}

}  // namespace

Status ParseRequest(std::string_view line,
                    const std::vector<uint32_t>& domains,
                    std::vector<uint32_t>& codes) {
  Status parsed = ParseCodes(line, domains, codes);
  // A line holding a NUL never parses (a NUL is neither a digit nor a
  // separator), so only a failed line needs the scan. Every such line
  // gets the same reason, whichever field failed first: a C-string walk
  // would stop at the NUL and serve the prefix before it as the request.
  if (!parsed.ok() && line.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument("request line contains a NUL byte");
  }
  return parsed;
}

bool IsIgnorableRequestLine(std::string_view line) {
  const size_t first = line.find_first_not_of(" \t");
  return first == std::string_view::npos || line[first] == '#';
}

size_t ConfiguredBatchSize() {
  const std::optional<uint64_t> n =
      UnsignedFromEnv("HAMLET_SERVE_BATCH", 1, 10000000);
  return n ? static_cast<size_t>(*n) : kDefaultBatchSize;
}

OnError ConfiguredOnError() {
  const std::optional<size_t> choice =
      ChoiceFromEnv("HAMLET_SERVE_ON_ERROR", {"abort", "skip"});
  return choice == size_t{1} ? OnError::kSkip : OnError::kAbort;
}

size_t ConfiguredMaxErrors() {
  // 0 is a real budget ("tolerate no errors").
  const std::optional<uint64_t> n =
      UnsignedFromEnv("HAMLET_SERVE_MAX_ERRORS", 0, kUnlimitedErrors);
  return n ? static_cast<size_t>(*n) : kUnlimitedErrors;
}

Status ValidateReloadedModel(const ml::Classifier& current,
                             const ml::Classifier& candidate) {
  if (candidate.train_domain_sizes().empty()) {
    return Status::FailedPrecondition(
        "reloaded model carries no train-domain metadata");
  }
  if (candidate.train_domain_sizes() != current.train_domain_sizes()) {
    return Status::FailedPrecondition(
        "reloaded model's feature domains disagree with the serving "
        "model's (" +
        std::to_string(candidate.train_domain_sizes().size()) + " vs " +
        std::to_string(current.train_domain_sizes().size()) +
        " features, or differing domain sizes); keeping the old model");
  }
  return Status::OK();
}

const ml::Classifier* ModelSlot::Swap(
    std::unique_ptr<ml::Classifier> fresh) {
  // The two-swaps-old model must be destroyed outside the lock: its
  // destructor can be arbitrary learner code, and holding mu_ across it
  // would stall every concurrent current() poll.
  std::unique_ptr<ml::Classifier> doomed;
  const ml::Classifier* installed = nullptr;
  {
    MutexLock lock(mu_);
    doomed = std::move(retired_);
    retired_ = std::move(current_);
    current_ = std::move(fresh);
    installed = current_.get();
  }
  return installed;
}

RequestBatcher::RequestBatcher(
    const ml::Classifier& model, std::vector<uint32_t> domains,
    size_t batch_size, std::function<const ml::Classifier*()> model_poll,
    LatencyStats& stats, Emit emit, AfterBatch after_batch)
    : domains_(std::move(domains)),
      batch_size_(batch_size > 0 ? batch_size : ConfiguredBatchSize()),
      model_poll_(std::move(model_poll)),
      stats_(stats),
      emit_(std::move(emit)),
      after_batch_(std::move(after_batch)),
      active_(&model),
      batch_(MakeRequestDataset(domains_)) {
  pending_codes_.reserve(batch_size_ * domains_.size());
  batch_.Reserve(batch_size_);
}

Status RequestBatcher::Add(const uint32_t* codes) {
  for (size_t j = 0; j < domains_.size(); ++j) {
    if (codes[j] >= domains_[j]) {
      return Status::OutOfRange("code out of domain for feature '" +
                                batch_.feature_spec(j).name + "'");
    }
  }
  pending_codes_.insert(pending_codes_.end(), codes, codes + domains_.size());
  if (++pending_rows_ >= batch_size_) return Flush();
  return Status::OK();
}

Status RequestBatcher::Flush() {
  if (pending_rows_ == 0) return Status::OK();
  if (model_poll_) {
    if (const ml::Classifier* fresh = model_poll_()) active_ = fresh;
  }
  // Staging rows row-major and moving the whole batch in one column at a
  // time costs far less than appending each row across every column.
  // The schema and the column buffers outlive the batch.
  batch_.ClearRows();
  batch_.AppendRowMajorUnchecked(pending_codes_.data(), pending_rows_, 0);
  const DataView view(&batch_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<uint8_t> preds = active_->PredictAll(view);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  stats_.RecordBatch(preds.size(), dt.count());
  for (size_t i = 0; i < preds.size(); ++i) {
    HAMLET_RETURN_IF_ERROR(emit_(i, preds[i]));
  }
  if (after_batch_) after_batch_();
  pending_codes_.clear();
  pending_rows_ = 0;
  return Status::OK();
}

Result<StatsSummary> ServeStream(const ml::Classifier& model,
                                 std::istream& in, std::ostream& out,
                                 std::ostream& err,
                                 const ServeConfig& config) {
  // By value: hot reload may destroy the original model at a batch
  // boundary, and the parser keeps validating against these domains for
  // the whole stream (the swap validator guarantees they are identical
  // on the replacement).
  const std::vector<uint32_t> domains = model.train_domain_sizes();
  if (domains.empty()) {
    return Status::FailedPrecondition(
        "model carries no train-domain metadata; load it via io::LoadModel "
        "or Fit it before serving");
  }
  const OnError on_error = config.on_error == OnError::kEnv
                               ? ConfiguredOnError()
                               : config.on_error;
  const size_t max_errors =
      config.max_errors.has_value() ? *config.max_errors
                                    : ConfiguredMaxErrors();

  LatencyStats stats;
  LiveTicker ticker(err, config.live_stats);

  RequestBatcher batcher(
      model, domains, config.batch_size, config.model_poll, stats,
      [&out](size_t, uint8_t p) -> Status {
        out << static_cast<int>(p) << '\n';
        if (!out) {
          return Status::Internal("serve: write error on output stream");
        }
        return Status::OK();
      },
      [&ticker, &stats]() { ticker.MaybeTick(stats); });

  std::string line;
  std::vector<uint32_t> codes;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Skip blanks and comments without emitting an output line.
    if (IsIgnorableRequestLine(line)) continue;
    const Status parsed = ParseRequest(line, domains, codes);
    if (!parsed.ok()) {
      if (on_error == OnError::kAbort) {
        return Status::FromCode(parsed.code(),
                                "request line " + std::to_string(line_no) +
                                    ": " + parsed.message());
      }
      // Resilient mode: flush what came before so the ERR line lands in
      // request order, then keep serving.
      HAMLET_RETURN_IF_ERROR(batcher.Flush());
      out << "ERR " << line_no << ": " << parsed.message() << '\n';
      if (!out) {
        return Status::Internal("serve: write error on output stream");
      }
      stats.RecordError();
      if (stats.errors() > max_errors) {
        return Status::OutOfRange(
            "request line " + std::to_string(line_no) + ": error budget "
            "exceeded (" + std::to_string(max_errors) + " rejected lines, "
            "HAMLET_SERVE_MAX_ERRORS); last error: " + parsed.message());
      }
      continue;
    }
    HAMLET_RETURN_IF_ERROR(batcher.Add(codes.data()));
  }
  HAMLET_RETURN_IF_ERROR(batcher.Flush());
  ticker.Finish();
  out.flush();
  return Result<StatsSummary>(stats.Summarize());
}

}  // namespace serve
}  // namespace hamlet
