// ng-approximate search (Definition 7): one-path traversal, at most one
// leaf. Tests the contract (valid candidates, never better than exact, far
// cheaper) and its effectiveness on easy queries (the bsf it seeds for
// exact search is what makes SIMS and the tree searches fast).
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra {
namespace {

class ApproximateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ApproximateTest, ReturnsValidCandidates) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6001);
  const auto w = gen::RandWorkload(8, 128, 6002);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto exact = core::BruteForceKnn(data, w.queries[q], 1);
    core::QueryResult approx =
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1));
    ASSERT_FALSE(approx.neighbors.empty()) << method_name;
    // The reported distance must be a real distance of a real series.
    const auto id = approx.neighbors[0].id;
    ASSERT_LT(id, data.size());
    EXPECT_NEAR(approx.neighbors[0].dist_sq,
                core::SquaredEuclidean(w.queries[q], data[id]),
                1e-5 * std::max(1.0, approx.neighbors[0].dist_sq));
    // Approximate can never beat exact.
    EXPECT_GE(approx.neighbors[0].dist_sq, exact[0].dist_sq - 1e-9);
  }
}

TEST_P(ApproximateTest, VisitsAtMostOneLeaf) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6003);
  const auto w = gen::RandWorkload(5, 128, 6004);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    core::QueryResult approx =
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1));
    EXPECT_LE(approx.stats.nodes_visited, 1) << method_name;
    // At most one leaf's worth of raw series examined.
    EXPECT_LE(approx.stats.raw_series_examined, 64 + 1) << method_name;
  }
}

TEST_P(ApproximateTest, MuchCheaperThanExact) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(5000, 128, 6005);
  const auto w = gen::RandWorkload(5, 128, 6006);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  int64_t approx_examined = 0;
  int64_t exact_examined = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    approx_examined +=
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1)).stats
            .raw_series_examined;
    exact_examined += method->Execute(w.queries[q], core::QuerySpec::Knn(1))
                          .stats.raw_series_examined;
  }
  EXPECT_LT(approx_examined * 2, exact_examined) << method_name;
}

TEST_P(ApproximateTest, GoodOnEasyQueries) {
  // For a near-duplicate query the one-path descent should land on (or
  // very near) the true NN: the heuristic the literature calls
  // "approximate search" works because similar series share summaries.
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6007);
  const auto easy = gen::CtrlWorkload(data, 10, 6008, 0.01, 0.05);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  size_t close_hits = 0;
  for (size_t q = 0; q < easy.queries.size(); ++q) {
    const auto exact = core::BruteForceKnn(data, easy.queries[q], 1);
    const auto approx =
        method->Execute(easy.queries[q], core::QuerySpec::NgApprox(1));
    const double ratio =
        std::sqrt(approx.neighbors[0].dist_sq) /
        std::max(1e-9, std::sqrt(exact[0].dist_sq));
    if (ratio < 2.0) ++close_hits;
  }
  // Most easy queries should find a near-optimal answer in one leaf.
  EXPECT_GE(close_hits, 6u) << method_name;
}

INSTANTIATE_TEST_SUITE_P(NgApproximateMethods, ApproximateTest,
                         ::testing::Values("ADS+", "DSTree", "iSAX2+",
                                           "SFA"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ApproximateDefault, ScansFallBackToExact) {
  const auto data = gen::RandomWalkDataset(500, 64, 6009);
  const auto w = gen::RandWorkload(2, 64, 6010);
  auto scan = bench::CreateMethod("UCR-Suite");
  scan->Build(data);
  const auto exact = scan->Execute(w.queries[0], core::QuerySpec::Knn(3));
  const auto approx = scan->Execute(w.queries[0], core::QuerySpec::NgApprox(3));
  ASSERT_EQ(exact.neighbors.size(), approx.neighbors.size());
  for (size_t i = 0; i < exact.neighbors.size(); ++i) {
    EXPECT_EQ(exact.neighbors[i].id, approx.neighbors[i].id);
  }
}

}  // namespace
}  // namespace hydra
