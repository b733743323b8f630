// Open-loop arrival schedules for the serve workload, fixed in full from
// the seed before the run starts: Poisson arrival times, and which
// requests repeat an earlier query (and so should hit the answer cache).
// The run is then checked against its plan instead of hoping the load
// generator produced the intended mix.
#ifndef HYDRABENCH_SCHEDULE_H_
#define HYDRABENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hydrabench {

/// SplitMix64: a tiny generator whose output is the same on every
/// platform and standard library (std:: distributions are not).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle of [first, first + n), driven by `rng`.
template <typename T>
void Shuffle(T* first, size_t n, SplitMix64* rng) {
  for (size_t i = n; i > 1; --i) {
    const size_t j = rng->Next() % i;
    T held = first[i - 1];
    first[i - 1] = first[j];
    first[j] = held;
  }
}

struct Arrival {
  /// Seconds after the phase start at which the request is due.
  double due_s = 0.0;
  /// Index into the distinct query pool.
  uint32_t query = 0;
  /// True when `query` was already due at least min_gap_s earlier.
  bool repeat = false;
};

struct Schedule {
  /// Fresh arrivals take queries 0, 1, 2, ... in order.
  std::vector<Arrival> arrivals;
};

/// Poisson arrivals at `rate` per second over `duration_s`. Each arrival
/// repeats a uniformly chosen earlier fresh query with probability
/// `repeat_share`, provided that query was due at least `min_gap_s`
/// before (so its answer is cached by then); otherwise it takes the next
/// fresh query.
Schedule BuildSchedule(uint64_t seed, double rate, double duration_s,
                       double repeat_share, double min_gap_s);

}  // namespace hydrabench

#endif  // HYDRABENCH_SCHEDULE_H_
