#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace hydrabench {
namespace {

/// Queries per data pass: each row is loaded once per block and compared
/// with every query of the block, on independent accumulators.
constexpr size_t kBlock = 32;

bool Before(const TrueNeighbor& a, const TrueNeighbor& b) {
  return a.dist_sq < b.dist_sq || (a.dist_sq == b.dist_sq && a.id < b.id);
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kRelTolerance * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

void ScanBlock(const float* data, size_t count, size_t length,
               const float* queries, size_t first, size_t n, size_t k,
               std::vector<std::vector<TrueNeighbor>>* out) {
  // Transposed block: q_t[j * kBlock + g] is point j of query first + g.
  std::vector<double> q_t(length * kBlock, 0.0);
  for (size_t g = 0; g < n; ++g) {
    for (size_t j = 0; j < length; ++j) {
      q_t[j * kBlock + g] = queries[(first + g) * length + j];
    }
  }
  // Max-heaps (worst on top) of the k best so far.
  std::vector<std::vector<TrueNeighbor>> heaps(n);
  for (size_t row = 0; row < count; ++row) {
    const float* x = data + row * length;
    double acc[kBlock] = {};
    for (size_t j = 0; j < length; ++j) {
      const double xj = x[j];
      const double* qj = &q_t[j * kBlock];
      for (size_t g = 0; g < kBlock; ++g) {
        const double d = xj - qj[g];
        acc[g] += d * d;
      }
    }
    for (size_t g = 0; g < n; ++g) {
      const TrueNeighbor cand{row, acc[g]};
      auto& heap = heaps[g];
      if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), Before);
      } else if (Before(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), Before);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), Before);
      }
    }
  }
  for (size_t g = 0; g < n; ++g) {
    std::sort_heap(heaps[g].begin(), heaps[g].end(), Before);
    (*out)[first + g] = std::move(heaps[g]);
  }
}

}  // namespace

double ReferenceDistSq(const float* a, const float* b, size_t length) {
  double acc = 0.0;
  for (size_t j = 0; j < length; ++j) {
    const double d = static_cast<double>(a[j]) - b[j];
    acc += d * d;
  }
  return acc;
}

std::vector<std::vector<TrueNeighbor>> BruteForceTopK(
    const float* data, size_t count, size_t length, const float* queries,
    size_t query_count, size_t k, size_t threads) {
  std::vector<std::vector<TrueNeighbor>> out(query_count);
  const size_t blocks = (query_count + kBlock - 1) / kBlock;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    workers.emplace_back([&, t, threads] {
      for (size_t b = t; b < blocks; b += std::max<size_t>(1, threads)) {
        const size_t first = b * kBlock;
        ScanBlock(data, count, length, queries, first,
                  std::min(kBlock, query_count - first), k, &out);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

std::string CompareAnswer(const std::vector<AnswerNeighbor>& answer,
                          const std::vector<TrueNeighbor>& truth,
                          const ExactDistance& exact) {
  char msg[160];
  if (answer.size() != truth.size()) {
    std::snprintf(msg, sizeof(msg), "%zu neighbors, expected %zu",
                  answer.size(), truth.size());
    return msg;
  }
  if (truth.empty()) return "";
  const double kth = truth.back().dist_sq;
  std::unordered_map<uint64_t, double> true_dist;
  for (const TrueNeighbor& t : truth) true_dist[t.id] = t.dist_sq;
  std::unordered_map<uint64_t, int> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const AnswerNeighbor& a = answer[i];
    if (!Close(a.dist_sq, truth[i].dist_sq)) {
      std::snprintf(msg, sizeof(msg),
                    "rank %zu distance %.9g, reference %.9g", i, a.dist_sq,
                    truth[i].dist_sq);
      return msg;
    }
    if (++seen[a.id] > 1) {
      std::snprintf(msg, sizeof(msg), "id %llu returned twice",
                    static_cast<unsigned long long>(a.id));
      return msg;
    }
    const auto it = true_dist.find(a.id);
    std::optional<double> actual;
    if (it != true_dist.end()) {
      actual = it->second;
    } else {
      actual = exact(a.id);
      if (!actual.has_value()) {
        std::snprintf(msg, sizeof(msg), "id %llu is not a series",
                      static_cast<unsigned long long>(a.id));
        return msg;
      }
      // Outside the reference list: only a tie at the k-th distance.
      if (!Close(*actual, kth)) {
        std::snprintf(msg, sizeof(msg),
                      "id %llu at true distance %.9g is not a k-th tie "
                      "(%.9g)",
                      static_cast<unsigned long long>(a.id), *actual, kth);
        return msg;
      }
    }
    if (!Close(*actual, a.dist_sq)) {
      std::snprintf(msg, sizeof(msg),
                    "id %llu reported at %.9g, true distance %.9g",
                    static_cast<unsigned long long>(a.id), a.dist_sq,
                    *actual);
      return msg;
    }
  }
  return "";
}

}  // namespace hydrabench
