// Factory for the ten methods of the study, addressed by their paper names.
#ifndef HYDRA_BENCH_REGISTRY_H_
#define HYDRA_BENCH_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace hydra::bench {

/// Creates a method by its paper name: "ADS+", "DSTree", "iSAX2+", "SFA",
/// "UCR-Suite", "VA+file", "MASS", "Stepwise", "M-tree", "R*-tree".
/// `leaf_capacity` == 0 picks a sensible default per method (tree methods
/// use it directly; VA+file ignores it; M-tree/R*-tree use reduced values
/// per their much smaller tuned leaves).
std::unique_ptr<core::SearchMethod> CreateMethod(const std::string& name,
                                                 size_t leaf_capacity = 0);

/// All ten method names, in the paper's Table 1 order.
std::vector<std::string> AllMethodNames();

/// The six methods that survive the paper's Section 4.3.2 cut and compete
/// in the Section 4.3.3 comparison.
std::vector<std::string> BestSixNames();

/// The five index methods with summarized leaves (TLB/pruning exhibits).
std::vector<std::string> PruningMethodNames();

/// The methods whose traits() support `capability`, in AllMethodNames()
/// order — derived from each method's own capability table, so the lists
/// can never drift from the support matrix. For example: kNgApprox and
/// kDeltaEpsilon are the four ng-capable trees (ADS+, DSTree, iSAX2+,
/// SFA); kEpsilon, kPersistence, and kSharding the seven index methods;
/// kConcurrentQueries all but ADS+.
std::vector<std::string> NamesWith(core::Capability capability);

/// Creates a sharded container over `shards` per-shard instances of the
/// named method (which must be shardable — the CLI refuses others up
/// front), fanning builds and queries out over `threads` workers (0 =
/// one per shard up to the hardware; 1 = serial). `leaf_capacity` is
/// forwarded to every per-shard CreateMethod call.
std::unique_ptr<core::SearchMethod> CreateShardedMethod(
    const std::string& name, size_t shards, size_t threads,
    size_t leaf_capacity = 0);

}  // namespace hydra::bench

#endif  // HYDRA_BENCH_REGISTRY_H_
