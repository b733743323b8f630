// Exactness of r-range queries (Definition 2 of the paper) for all ten
// methods: results must match the brute-force range scan — correct AND
// complete — across radii from empty to all-inclusive.
#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/realistic.h"
#include "gen/workload.h"

namespace hydra {
namespace {

std::vector<core::Neighbor> BruteForceRange(const core::Dataset& data,
                                            core::SeriesView query,
                                            double radius) {
  std::vector<core::Neighbor> matches;
  const double radius_sq = radius * radius;
  for (size_t i = 0; i < data.size(); ++i) {
    const double d = core::SquaredEuclidean(query, data[i]);
    if (d <= radius_sq) matches.push_back({static_cast<core::SeriesId>(i), d});
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

using Param = std::tuple<std::string, std::string>;

class RangeQueryTest : public ::testing::TestWithParam<Param> {};

TEST_P(RangeQueryTest, MatchesBruteForceRange) {
  const auto& [method_name, family] = GetParam();
  const size_t count = method_name == "M-tree" ? 800 : 2000;
  const size_t length = family == "deep" ? 96 : 128;
  const core::Dataset data = gen::MakeDataset(family, count, length, 4321);
  const gen::Workload w = gen::CtrlWorkload(data, 4, 4322, 0.1, 0.8);

  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);

  for (size_t q = 0; q < w.queries.size(); ++q) {
    // Radii chosen relative to the true NN distance so the result set goes
    // from a handful of series to a large fraction of the collection.
    const auto nn = core::BruteForceKnn(data, w.queries[q], 1);
    const double base = std::sqrt(nn.front().dist_sq);
    for (const double factor : {0.9, 1.1, 1.5, 2.5}) {
      const double radius = base * factor;
      const auto expected = BruteForceRange(data, w.queries[q], radius);
      core::QueryResult got =
          method->Execute(w.queries[q], core::QuerySpec::Range(radius));
      ASSERT_EQ(got.neighbors.size(), expected.size())
          << method_name << " " << family << " q=" << q << " r=" << radius;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, expected[i].id)
            << method_name << " q=" << q << " i=" << i;
        EXPECT_NEAR(got.neighbors[i].dist_sq, expected[i].dist_sq,
                    1e-5 * std::max(1.0, expected[i].dist_sq));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, RangeQueryTest,
    ::testing::Combine(
        ::testing::Values("ADS+", "DSTree", "iSAX2+", "SFA", "VA+file",
                          "UCR-Suite", "MASS", "Stepwise", "M-tree",
                          "R*-tree"),
        ::testing::Values("synth", "astro")),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RangeQueryEdgeCases, ZeroRadiusFindsExactDuplicates) {
  const auto base = gen::RandomWalkDataset(300, 64, 5151);
  core::Dataset data("dups", 64);
  for (size_t i = 0; i < base.size(); ++i) data.Append(base[i]);
  data.Append(base[42]);  // exact duplicate
  for (const std::string name : {"DSTree", "VA+file", "UCR-Suite"}) {
    auto method = bench::CreateMethod(name, 32);
    method->Build(data);
    const auto got = method->Execute(base[42], core::QuerySpec::Range(1e-4));
    ASSERT_GE(got.neighbors.size(), 2u) << name;  // original + duplicate
    EXPECT_NEAR(got.neighbors[0].dist_sq, 0.0, 1e-8);
    EXPECT_NEAR(got.neighbors[1].dist_sq, 0.0, 1e-8);
  }
}

TEST(RangeQueryEdgeCases, HugeRadiusReturnsEverything) {
  const auto data = gen::RandomWalkDataset(500, 64, 5252);
  const gen::Workload w = gen::RandWorkload(1, 64, 5253);
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, 32);
    method->Build(data);
    const auto got = method->Execute(w.queries[0], core::QuerySpec::Range(1e6));
    EXPECT_EQ(got.neighbors.size(), data.size()) << name;
  }
}

TEST(RangeQueryEdgeCases, EmptyResultForTinyRadius) {
  const auto data = gen::RandomWalkDataset(500, 64, 5353);
  const gen::Workload w = gen::RandWorkload(1, 64, 5354);
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, 32);
    method->Build(data);
    const auto got =
        method->Execute(w.queries[0], core::QuerySpec::Range(1e-6));
    EXPECT_TRUE(got.neighbors.empty()) << name;
  }
}

TEST(RangeQueryEdgeCases, NegativeRadiusViolatesPrecondition) {
  // Every method squares the radius internally, which would silently turn
  // r = -5 into r^2 = 25 (and M-tree would prune with the raw negative
  // value while collecting with the squared one). The contract is checked
  // at every SearchRange entry instead.
  const auto data = gen::RandomWalkDataset(100, 64, 5454);
  const gen::Workload w = gen::RandWorkload(1, 64, 5455);
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, 32);
    method->Build(data);
    EXPECT_DEATH(method->Execute(w.queries[0], core::QuerySpec::Range(-5.0)),
                 "range radius must be non-negative")
        << name;
  }
}

TEST(RangeQueryStats, IndexesPruneRangeQueries) {
  const auto data = gen::RandomWalkDataset(4000, 128, 5454);
  const auto w = gen::CtrlWorkload(data, 4, 5455, 0.05, 0.1);
  for (const std::string& name : bench::PruningMethodNames()) {
    auto method = bench::CreateMethod(name, 64);
    method->Build(data);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const auto nn = core::BruteForceKnn(data, w.queries[q], 1);
      const double radius = std::sqrt(nn[0].dist_sq) * 1.2;
      const auto got =
          method->Execute(w.queries[q], core::QuerySpec::Range(radius));
      EXPECT_LT(got.stats.raw_series_examined,
                static_cast<int64_t>(data.size()))
          << name << " examined everything on a tight range query";
    }
  }
}

}  // namespace
}  // namespace hydra
