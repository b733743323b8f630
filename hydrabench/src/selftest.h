// Self-tests of the benchmark's pure helpers (percentile rule, span self
// time, schedule determinism, reference comparator and scan).
#ifndef HYDRABENCH_SELFTEST_H_
#define HYDRABENCH_SELFTEST_H_

namespace hydrabench {

/// Runs every self-test; prints failures to stderr. 0 when all pass.
int RunSelfTests();

}  // namespace hydrabench

#endif  // HYDRABENCH_SELFTEST_H_
