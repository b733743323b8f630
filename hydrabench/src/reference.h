// Reference answers: the benchmark's own scalar brute-force k-NN scan and
// the comparator every answer of the system under test must pass. The
// scan shares no code with the library, so a defect there cannot hide
// the same defect in the answers it checks.
#ifndef HYDRABENCH_REFERENCE_H_
#define HYDRABENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace hydrabench {

struct TrueNeighbor {
  uint64_t id = 0;
  /// Squared Euclidean distance.
  double dist_sq = 0.0;
};

/// Relative tolerance on squared distances: the library's SIMD kernels
/// sum in another order than the scalar reference.
inline constexpr double kRelTolerance = 1e-6;

/// Squared Euclidean distance summed in index order, in double.
double ReferenceDistSq(const float* a, const float* b, size_t length);

/// Exact k nearest neighbors of every query over `count` rows of `data`
/// (row-major, `length` floats each), ascending by (distance, id). Runs on
/// `threads` threads, each scanning the data once per block of queries.
std::vector<std::vector<TrueNeighbor>> BruteForceTopK(
    const float* data, size_t count, size_t length, const float* queries,
    size_t query_count, size_t k, size_t threads);

/// One answer as returned by the system: (id, squared distance) pairs.
struct AnswerNeighbor {
  uint64_t id = 0;
  double dist_sq = 0.0;
};

/// True squared distance of row `id` to the query, for ids outside the
/// reference list (ties at the k-th distance); nullopt if unreadable.
using ExactDistance = std::function<std::optional<double>(uint64_t id)>;

/// Checks `answer` against `truth` (the exact k-NN): same size, ranks
/// match in distance within kRelTolerance, ids distinct, and any id not
/// in `truth` is a tie at the k-th distance (its true distance, from
/// `exact`, matches the answer and the k-th). Returns "" when the answer
/// is correct, else a one-line reason.
std::string CompareAnswer(const std::vector<AnswerNeighbor>& answer,
                          const std::vector<TrueNeighbor>& truth,
                          const ExactDistance& exact);

}  // namespace hydrabench

#endif  // HYDRABENCH_REFERENCE_H_
