#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hydrabench {

size_t MinSamplesFor(double q) {
  // n * (1 - q) >= kMinBeyond, with a little slack for q's binary form.
  return static_cast<size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || samples.size() < MinSamplesFor(q)) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace hydrabench
