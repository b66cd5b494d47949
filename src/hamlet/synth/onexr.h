// Scenario OneXr generator (paper §4.1).
//
// Two-table star schema where a single foreign feature Xr in X_R
// (probabilistically) determines the target: P(Y=0|Xr=0) = P(Y=1|Xr=1) = p.
// All other features in X_R and all of X_S are random noise, but FK is not
// noise because it functionally determines Xr. This is the known worst case
// for avoiding the join with linear models. FK values may be drawn
// uniformly, with Zipfian skew, or with needle-and-thread skew, and some FK
// values can be withheld from training (γ, for the smoothing study §6.2).

#ifndef HAMLET_SYNTH_ONEXR_H_
#define HAMLET_SYNTH_ONEXR_H_

#include <cstdint>

#include "hamlet/relational/star_schema.h"

namespace hamlet {
namespace synth {

/// FK sampling skew model for OneXr.
enum class FkSkew {
  kUniform,
  kZipf,            ///< P(FK=i) ~ 1/(i+1)^s, s = skew_param
  kNeedleThread,    ///< P(FK=0) = skew_param, rest uniform
};

/// Parameters for Scenario OneXr. Defaults follow Figure 2's fixed values:
/// (n_S, n_R, d_S, d_R) = (1000, 40, 4, 4), p = 0.1.
struct OneXrConfig {
  size_t ns = 1000;         ///< number of labeled fact rows
  size_t nr = 40;           ///< |D_FK| = dimension cardinality
  size_t ds = 4;            ///< number of home features X_S
  size_t dr = 4;            ///< number of foreign features X_R (incl. Xr)
  uint32_t xr_domain = 2;   ///< |D_Xr| (Figure 2(F) varies this)
  uint32_t noise_domain = 2;///< domain of the noise features
  double p = 0.1;           ///< P(Y=0|Xr=0) = P(Y=1|Xr=1); Bayes err=min(p,1-p)
  FkSkew skew = FkSkew::kUniform;
  double skew_param = 0.0;
  /// Seeds the fact-row sampling. Vary this per Monte-Carlo run.
  uint64_t seed = 1;
  /// Seeds the dimension-table content (the FK -> Xr mapping). The
  /// dimension table is part of the "true distribution": the paper's
  /// simulation draws 100 *training sets* from one distribution, so R must
  /// stay fixed across runs while `seed` varies.
  uint64_t dim_seed = 42;
};

/// Samples one star schema from the OneXr distribution. Xr is the first
/// column of the dimension table ("r.xr"); noise columns follow.
StarSchema GenerateOneXr(const OneXrConfig& config);

}  // namespace synth
}  // namespace hamlet

#endif  // HAMLET_SYNTH_ONEXR_H_
