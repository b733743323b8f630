// Summary statistics with the benchmark's sample-count rule: a percentile
// is reported only when at least kMinBeyond samples lie beyond it, so a
// p95 needs 200 samples and a tail figure is never read off a handful.
#ifndef HYDRABENCH_STATS_H_
#define HYDRABENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace hydrabench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinBeyond = 10;

/// Smallest sample count for which Percentile(·, q) is defined.
size_t MinSamplesFor(double q);

/// Nearest-rank q-quantile (q in (0, 1)) of `samples`, or nullopt when
/// fewer than MinSamplesFor(q) samples exist. Infinite samples (failed
/// requests) are allowed and sort last.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Plain median (no sample-count rule; empty input gives 0).
double Median(std::vector<double> samples);

}  // namespace hydrabench

#endif  // HYDRABENCH_STATS_H_
