// Key-foreign-key equi-join: StarSchema -> learning-ready Dataset.
//
// Implements T <- pi(R_1 join ... join R_q join S) from the paper (§2.1).
// The output column order is [X_S, FK_1..FK_q, X_R1.., X_Rq..], each column
// tagged with its FeatureRole so downstream variants can subset by role.

#ifndef HAMLET_RELATIONAL_JOIN_H_
#define HAMLET_RELATIONAL_JOIN_H_

#include "hamlet/common/status.h"
#include "hamlet/data/dataset.h"
#include "hamlet/relational/star_schema.h"

namespace hamlet {

/// Options for the join output.
struct JoinOptions {
  /// Include the FK_i columns as features (true in the paper's setting; a
  /// "open-domain" FK such as Expedia's search id would set this false for
  /// that key via `open_domain_fks`).
  bool include_fks = true;
  /// Dimension indices whose FK has an open domain and must not become a
  /// feature (the dimension's foreign features are still joined in).
  std::vector<size_t> open_domain_fks;
};

/// Joins every dimension into the fact table. The result owns its data;
/// foreign-feature columns are de-referenced through the FK (hash-free:
/// RIDs are row indices, so the join is a gather).
Result<Dataset> JoinAllTables(const StarSchema& star,
                              const JoinOptions& options = {});

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_JOIN_H_
