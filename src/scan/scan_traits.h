// The capability table shared by the three sequential scans (UCR-Suite,
// MASS, Stepwise): concurrent queries, exact-only, nothing else.
#ifndef HYDRA_SCAN_SCAN_TRAITS_H_
#define HYDRA_SCAN_SCAN_TRAITS_H_

#include <string_view>

#include "core/method.h"

namespace hydra::scan {

/// A scan has no summaries to relax a bound against, no leaves, no index
/// partition, and no traversal frontier; only `persistence_reason` (what
/// Build precomputes, and why redoing it beats persisting it) differs per
/// scan.
inline core::MethodTraits ScanTraits(std::string_view persistence_reason) {
  return core::MethodTraits::AllExcept(
             {core::Capability::kNgApprox, core::Capability::kEpsilon,
              core::Capability::kDeltaEpsilon, core::Capability::kLeafBudget})
      .Refuse(core::Capability::kPersistence, persistence_reason)
      .Refuse(core::Capability::kSharding,
              "sequential scan: no index partition to build per shard — "
              "the batch engine's --threads already parallelizes it")
      .Refuse(core::Capability::kIntraQuery,
              "sequential scan has no traversal frontier to share; batch "
              "--threads already parallelizes workloads");
}

}  // namespace hydra::scan

#endif  // HYDRA_SCAN_SCAN_TRAITS_H_
