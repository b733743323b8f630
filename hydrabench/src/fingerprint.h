// The run fingerprint printed with every result: two results compare only
// when their fingerprints match (same host class, kernels, build, sources
// and workload shape).
#ifndef HYDRABENCH_FINGERPRINT_H_
#define HYDRABENCH_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace hydrabench {

/// One JSON object. `source` identifies the code under test (a digest of
/// the source tree, computed by the launcher).
std::string Fingerprint(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& source, double seconds);

}  // namespace hydrabench

#endif  // HYDRABENCH_FINGERPRINT_H_
