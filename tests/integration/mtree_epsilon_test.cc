// epsilon-approximate k-NN on the M-tree (Definition 5; Table 1): every
// result must be within (1+epsilon) of the true k-th NN distance, the
// guarantee must hold across epsilon values, and larger epsilon must save
// distance computations.
#include <cmath>

#include <gtest/gtest.h>

#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "index/mtree.h"

namespace hydra {
namespace {

class MTreeEpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(MTreeEpsilonTest, GuaranteeHolds) {
  const double epsilon = GetParam();
  const auto data = gen::RandomWalkDataset(1500, 128, 9001);
  const auto w = gen::RandWorkload(8, 128, 9002);
  index::MTree mtree;
  mtree.Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (const size_t k : {1u, 3u}) {
      const auto exact = core::BruteForceKnn(data, w.queries[q], k);
      auto approx =
          mtree.Execute(w.queries[q], core::QuerySpec::Epsilon(k, epsilon));
      ASSERT_EQ(approx.neighbors.size(), k);
      const double true_kth = std::sqrt(exact.back().dist_sq);
      for (const auto& n : approx.neighbors) {
        EXPECT_LE(std::sqrt(n.dist_sq),
                  (1.0 + epsilon) * true_kth + 1e-9)
            << "epsilon=" << epsilon << " k=" << k << " q=" << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, MTreeEpsilonTest,
                         ::testing::Values(0.0, 0.1, 0.5, 2.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param * 10));
                         });

TEST(MTreeEpsilon, ZeroEpsilonIsExact) {
  const auto data = gen::RandomWalkDataset(1000, 128, 9003);
  const auto w = gen::RandWorkload(5, 128, 9004);
  index::MTree mtree;
  mtree.Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto exact = core::BruteForceKnn(data, w.queries[q], 1);
    const auto got =
        mtree.Execute(w.queries[q], core::QuerySpec::Epsilon(1, 0.0));
    EXPECT_NEAR(got.neighbors[0].dist_sq, exact[0].dist_sq,
                1e-6 * std::max(1.0, exact[0].dist_sq));
  }
}

TEST(MTreeEpsilon, LargerEpsilonComputesFewerDistances) {
  const auto data = gen::RandomWalkDataset(2000, 128, 9005);
  const auto w = gen::RandWorkload(8, 128, 9006);
  index::MTree mtree;
  mtree.Build(data);
  int64_t exact_dists = 0;
  int64_t approx_dists = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    exact_dists += mtree.Execute(w.queries[q], core::QuerySpec::Epsilon(1, 0.0))
                       .stats.distance_computations;
    approx_dists += mtree.Execute(w.queries[q],
                                  core::QuerySpec::Epsilon(1, 2.0))
                        .stats.distance_computations;
  }
  EXPECT_LT(approx_dists, exact_dists);
}

}  // namespace
}  // namespace hydra
