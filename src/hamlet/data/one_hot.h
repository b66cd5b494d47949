// One-hot index mapping for categorical feature vectors.
//
// SVM kernels and 1-NN distances never materialise one-hot vectors (the dot
// product over one-hot encodings equals the number of matching features).
// The MLP and logistic regression, however, need dense unit indices; this
// map assigns each (feature j, code c) pair the global one-hot index
// offset[j] + c.

#ifndef HAMLET_DATA_ONE_HOT_H_
#define HAMLET_DATA_ONE_HOT_H_

#include <cstdint>
#include <vector>

#include "hamlet/data/view.h"

namespace hamlet {

/// Precomputed offsets for the one-hot embedding of a feature subset.
class OneHotMap {
 public:
  OneHotMap() = default;

  /// Builds the map from a view's feature subset (domain sizes only; does
  /// not scan rows).
  explicit OneHotMap(const DataView& view);

  /// Builds the map from bare per-feature domain sizes — the same layout
  /// a view with those domains would produce. Deserialized models
  /// (io/serialize.cc) rebuild their maps from the model header's domain
  /// metadata through this constructor, so the embedding is guaranteed
  /// consistent with the header.
  explicit OneHotMap(const std::vector<uint32_t>& domain_sizes);

  /// Total number of one-hot units.
  size_t dimension() const { return dimension_; }
  size_t num_features() const { return offsets_.size(); }

  /// Global unit index of (view-feature j, code c).
  uint32_t UnitIndex(size_t j, uint32_t code) const {
    return offsets_[j] + code;
  }

  /// UnitIndex with `code` clamped into feature j's own domain: a code
  /// at or past the domain maps to the feature's last unit, never into
  /// the next feature's range. Feature j's domain must be non-empty.
  uint32_t ClampedUnitIndex(size_t j, uint32_t code) const {
    const uint32_t end = j + 1 < offsets_.size()
                             ? offsets_[j + 1]
                             : static_cast<uint32_t>(dimension_);
    const uint32_t last = end - offsets_[j] - 1;
    return offsets_[j] + (code < last ? code : last);
  }

  /// Fills `out` with the active unit index per feature of one
  /// materialised row of num_features() codes (a CodeMatrix row).
  /// `out` is resized to num_features(); the
  /// encoding has exactly one active unit per feature.
  void ActiveUnitsFromCodes(const uint32_t* codes,
                            std::vector<uint32_t>& out) const;

 private:
  std::vector<uint32_t> offsets_;
  size_t dimension_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_DATA_ONE_HOT_H_
