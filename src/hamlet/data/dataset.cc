#include "hamlet/data/dataset.h"

#include <algorithm>
#include <cassert>

namespace hamlet {

const char* FeatureRoleName(FeatureRole role) {
  switch (role) {
    case FeatureRole::kHome:
      return "home";
    case FeatureRole::kForeignKey:
      return "foreign_key";
    case FeatureRole::kForeign:
      return "foreign";
  }
  return "unknown";
}

Dataset::Dataset(std::vector<FeatureSpec> features)
    : features_(std::move(features)) {
  columns_.resize(features_.size());
}

Status Dataset::AppendRow(const std::vector<uint32_t>& codes, uint8_t label) {
  if (codes.size() != features_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  if (label > 1) {
    return Status::InvalidArgument("binary target required");
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= features_[i].domain_size) {
      return Status::OutOfRange("code out of domain for feature '" +
                                features_[i].name + "'");
    }
  }
  AppendRowUnchecked(codes, label);
  return Status::OK();
}

void Dataset::AppendRowUnchecked(const std::vector<uint32_t>& codes,
                                 uint8_t label) {
  assert(codes.size() == features_.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    assert(codes[i] < features_[i].domain_size);
    columns_[i].push_back(codes[i]);
  }
  labels_.push_back(label);
}

int Dataset::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Dataset::OneHotDimension() const {
  size_t d = 0;
  for (const auto& f : features_) d += f.domain_size;
  return d;
}

void Dataset::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
  labels_.reserve(rows);
}

void Dataset::AppendRowMajorUnchecked(const uint32_t* codes, size_t n,
                                      uint8_t label) {
  const size_t d = features_.size();
  const size_t base = labels_.size();
  for (auto& col : columns_) col.resize(base + n);
  // Transpose a tile of rows at a time, so the tile's codes stay in L1
  // across the column passes instead of streaming the whole block once
  // per column.
  constexpr size_t kTileRows = 64;
  for (size_t i0 = 0; i0 < n; i0 += kTileRows) {
    const size_t rows = std::min(kTileRows, n - i0);
    for (size_t j = 0; j < d; ++j) {
      uint32_t* out = columns_[j].data() + base + i0;
      const uint32_t* in = codes + i0 * d + j;
      for (size_t i = 0; i < rows; ++i) {
        assert(in[i * d] < features_[j].domain_size);
        out[i] = in[i * d];
      }
    }
  }
  labels_.insert(labels_.end(), n, label);
}

void Dataset::ClearRows() {
  for (auto& col : columns_) col.clear();
  labels_.clear();
}

Status Dataset::ReplaceColumn(size_t col, std::vector<uint32_t> codes,
                              uint32_t new_domain_size) {
  if (col >= features_.size()) {
    return Status::OutOfRange("no such column");
  }
  if (codes.size() != labels_.size()) {
    return Status::InvalidArgument("replacement column length mismatch");
  }
  for (uint32_t c : codes) {
    if (c >= new_domain_size) {
      return Status::OutOfRange("replacement code exceeds new domain");
    }
  }
  columns_[col] = std::move(codes);
  features_[col].domain_size = new_domain_size;
  return Status::OK();
}

}  // namespace hamlet
