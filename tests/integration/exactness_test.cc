// The central invariant of the study: every method is EXACT. Each method
// must return the same k-NN set as brute force, on every dataset family,
// for several k. (MASS computes distances through the Fourier domain, so
// ties are compared by distance with a small tolerance.)
#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/realistic.h"
#include "gen/workload.h"

namespace hydra {
namespace {

using Param = std::tuple<std::string, std::string>;  // method, dataset family

class ExactnessTest : public ::testing::TestWithParam<Param> {};

TEST_P(ExactnessTest, MatchesBruteForce) {
  const auto& [method_name, family] = GetParam();
  const size_t count = method_name == "M-tree" ? 1200 : 3000;
  const size_t length = family == "deep" ? 96 : 128;
  const core::Dataset data = gen::MakeDataset(family, count, length, 1234);
  const gen::Workload rand_w = gen::RandWorkload(6, length, 77);
  const gen::Workload ctrl_w = gen::CtrlWorkload(data, 6, 78);

  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);

  for (const gen::Workload* w : {&rand_w, &ctrl_w}) {
    for (size_t q = 0; q < w->queries.size(); ++q) {
      for (const size_t k : {1u, 5u}) {
        const auto expected = core::BruteForceKnn(data, w->queries[q], k);
        core::QueryResult got =
            method->Execute(w->queries[q], core::QuerySpec::Knn(k));
        ASSERT_EQ(got.neighbors.size(), k)
            << method_name << " " << w->name << " q=" << q;
        for (size_t i = 0; i < k; ++i) {
          // Distances must agree (tolerance covers MASS's FFT round trip
          // and accumulation-order differences).
          const double tol =
              1e-5 * std::max(1.0, expected[i].dist_sq);
          EXPECT_NEAR(got.neighbors[i].dist_sq, expected[i].dist_sq, tol)
              << method_name << " " << w->name << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAllFamilies, ExactnessTest,
    ::testing::Combine(
        ::testing::Values("ADS+", "DSTree", "iSAX2+", "SFA", "VA+file",
                          "UCR-Suite", "MASS", "Stepwise", "M-tree",
                          "R*-tree"),
        ::testing::Values("synth", "seismic", "astro", "sald", "deep")),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Exactness must hold across leaf-capacity extremes (parametrization is the
// paper's Figure 2; correctness may not depend on tuning).
class LeafCapacityTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(LeafCapacityTest, ExactAtAnyLeafSize) {
  const auto& [method_name, leaf] = GetParam();
  const core::Dataset data = gen::MakeDataset("synth", 2000, 64, 99);
  const gen::Workload w = gen::RandWorkload(4, 64, 100);
  auto method = bench::CreateMethod(method_name, leaf);
  method->Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto expected = core::BruteForceKnn(data, w.queries[q], 1);
    core::QueryResult got =
        method->Execute(w.queries[q], core::QuerySpec::Knn(1));
    ASSERT_EQ(got.neighbors.size(), 1u);
    EXPECT_NEAR(got.neighbors[0].dist_sq, expected[0].dist_sq,
                1e-6 * std::max(1.0, expected[0].dist_sq))
        << method_name << " leaf=" << leaf << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeMethods, LeafCapacityTest,
    ::testing::Combine(::testing::Values("ADS+", "DSTree", "iSAX2+", "SFA"),
                       ::testing::Values(4u, 16u, 256u, 4096u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& info) {
      std::string name = std::get<0>(info.param) + "_leaf" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ExactnessEdgeCases, SingleSeriesDataset) {
  core::Dataset data("tiny", 64);
  const auto src = gen::RandomWalkDataset(1, 64, 5);
  data.Append(src[0]);
  const gen::Workload w = gen::RandWorkload(2, 64, 6);
  for (const std::string name :
       {"DSTree", "iSAX2+", "VA+file", "UCR-Suite", "Stepwise"}) {
    auto method = bench::CreateMethod(name);
    method->Build(data);
    const auto got = method->Execute(w.queries[0], core::QuerySpec::Knn(1));
    ASSERT_EQ(got.neighbors.size(), 1u) << name;
    EXPECT_EQ(got.neighbors[0].id, 0u) << name;
  }
}

TEST(ExactnessEdgeCases, KEqualsDatasetSize) {
  const auto data = gen::MakeDataset("synth", 50, 64, 7);
  const gen::Workload w = gen::RandWorkload(1, 64, 8);
  auto method = bench::CreateMethod("DSTree", 8);
  method->Build(data);
  const auto got = method->Execute(w.queries[0], core::QuerySpec::Knn(50));
  const auto expected = core::BruteForceKnn(data, w.queries[0], 50);
  ASSERT_EQ(got.neighbors.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(got.neighbors[i].dist_sq, expected[i].dist_sq, 1e-8);
  }
}

TEST(ExactnessEdgeCases, QueryIdenticalToDatasetSeries) {
  const auto data = gen::MakeDataset("synth", 500, 64, 9);
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, 32);
    method->Build(data);
    const auto got = method->Execute(data[123], core::QuerySpec::Knn(1));
    ASSERT_EQ(got.neighbors.size(), 1u) << name;
    EXPECT_NEAR(got.neighbors[0].dist_sq, 0.0, 1e-5) << name;
  }
}

}  // namespace
}  // namespace hydra
