#include "schedule.h"

#include <cmath>

namespace hydrabench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Schedule BuildSchedule(uint64_t seed, double rate, double duration_s,
                       double repeat_share, double min_gap_s) {
  Schedule plan;
  SplitMix64 rng(seed);
  // Fresh arrivals so far, and how many of them are old enough to repeat.
  std::vector<Arrival> fresh;
  size_t repeatable = 0;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.Uniform()) / rate;
    if (t >= duration_s) break;
    while (repeatable < fresh.size() &&
           fresh[repeatable].due_s <= t - min_gap_s) {
      ++repeatable;
    }
    Arrival a;
    a.due_s = t;
    const bool want_repeat = rng.Uniform() < repeat_share;
    if (want_repeat && repeatable > 0) {
      const auto pick = static_cast<size_t>(
          rng.Uniform() * static_cast<double>(repeatable));
      a.query = fresh[pick < repeatable ? pick : repeatable - 1].query;
      a.repeat = true;
    } else {
      a.query = static_cast<uint32_t>(fresh.size());
      fresh.push_back(a);
    }
    plan.arrivals.push_back(a);
  }
  return plan;
}

}  // namespace hydrabench
