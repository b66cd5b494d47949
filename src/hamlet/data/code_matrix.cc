#include "hamlet/data/code_matrix.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace hamlet {

namespace detail {

void CodeMatrixIndexAbort(size_t i, size_t j, size_t num_rows,
                          size_t num_features) {
  std::fprintf(stderr,
               "hamlet: CodeMatrix::at(%zu, %zu) out of bounds for %zu x %zu "
               "matrix\n",
               i, j, num_rows, num_features);
  std::abort();
}

}  // namespace detail

Result<CodeMatrix> CodeMatrix::FromParts(size_t num_features,
                                         std::vector<uint32_t> codes,
                                         std::vector<uint8_t> labels,
                                         std::vector<uint32_t> domain_sizes) {
  const size_t num_rows = labels.size();
  if (domain_sizes.size() != num_features) {
    return Status::InvalidArgument(
        "CodeMatrix::FromParts: domain_sizes size does not match "
        "num_features");
  }
  if (codes.size() != num_rows * num_features) {
    return Status::InvalidArgument(
        "CodeMatrix::FromParts: codes size does not match rows x features");
  }
  for (size_t i = 0; i < num_rows; ++i) {
    for (size_t j = 0; j < num_features; ++j) {
      if (codes[i * num_features + j] >= domain_sizes[j]) {
        return Status::OutOfRange(
            "CodeMatrix::FromParts: code exceeds its feature domain");
      }
    }
  }
  CodeMatrix m;
  m.num_rows_ = num_rows;
  m.num_features_ = num_features;
  m.codes_ = std::move(codes);
  m.labels_ = std::move(labels);
  m.domain_sizes_ = std::move(domain_sizes);
  return m;
}

CodeMatrix::CodeMatrix(const DataView& view, size_t max_rows) {
  num_rows_ = view.num_rows();
  if (max_rows > 0 && num_rows_ > max_rows) num_rows_ = max_rows;
  num_features_ = view.num_features();
  domain_sizes_.resize(num_features_);
  for (size_t j = 0; j < num_features_; ++j) {
    domain_sizes_[j] = view.domain_size(j);
  }
  codes_.resize(num_rows_ * num_features_);
  labels_.resize(num_rows_);
  // One pointer per selected column, looked up once: each code then
  // costs one indexed load, not a view -> dataset -> column walk.
  std::vector<const uint32_t*> columns(num_features_);
  for (size_t j = 0; j < num_features_; ++j) {
    columns[j] = view.dataset()->column(view.feature_id(j)).data();
  }
  for (size_t i = 0; i < num_rows_; ++i) {
    const uint32_t r = view.row_id(i);
    uint32_t* out = codes_.data() + i * num_features_;
    for (size_t j = 0; j < num_features_; ++j) out[j] = columns[j][r];
    labels_[i] = view.label(i);
  }
}

}  // namespace hamlet
