// Order statistics for the benchmark's reports.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a p99 from 200 samples rests on two values and is noise.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
/// sorted samples (1-based). Returns nullopt when fewer than
/// kMinSamplesBeyond samples rank above it, or when `samples` is empty.
/// `samples` is reordered in place.
std::optional<double> NearestRankPercentile(std::vector<double>& samples,
                                            double p);

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector. Used for repeated whole-run measurements, where
/// the kMinSamplesBeyond rule does not apply.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
