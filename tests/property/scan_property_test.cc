// Properties of the scan/multi-step methods beyond plain exactness:
// Stepwise pruning soundness across noise levels, MASS's Fourier-domain
// distances, and the scans' insensitivity to data order.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "scan/mass_scan.h"
#include "scan/stepwise.h"
#include "scan/ucr_scan.h"

namespace hydra {
namespace {

class ScanProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanProperty, StepwiseExactAtAnyRefineDepth) {
  const size_t length = GetParam();
  const auto data = gen::RandomWalkDataset(1200, length, 91);
  const auto w = gen::RandWorkload(5, length, 92);
  for (const int refine_levels : {0, 1, 3}) {
    scan::Stepwise method(refine_levels);
    method.Build(data);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const auto expected = core::BruteForceKnn(data, w.queries[q], 1);
      const auto got = method.Execute(w.queries[q], core::QuerySpec::Knn(1));
      ASSERT_EQ(got.neighbors.size(), 1u);
      EXPECT_NEAR(got.neighbors[0].dist_sq, expected[0].dist_sq,
                  1e-5 * std::max(1.0, expected[0].dist_sq))
          << "refine_levels=" << refine_levels << " len=" << length;
    }
  }
}

TEST_P(ScanProperty, StepwisePrunesEasyQueries) {
  const size_t length = GetParam();
  const auto data = gen::RandomWalkDataset(2000, length, 93);
  const auto easy = gen::CtrlWorkload(data, 5, 94, 0.02, 0.02);
  scan::Stepwise method;
  method.Build(data);
  for (size_t q = 0; q < easy.queries.size(); ++q) {
    const auto result =
        method.Execute(easy.queries[q], core::QuerySpec::Knn(1));
    EXPECT_LT(result.stats.raw_series_examined,
              static_cast<int64_t>(data.size()) / 2)
        << "multi-step filtering failed to prune an easy query";
  }
}

TEST_P(ScanProperty, MassMatchesDirectDistances) {
  const size_t length = GetParam();
  const auto data = gen::RandomWalkDataset(300, length, 95);
  const auto w = gen::RandWorkload(3, length, 96);
  scan::MassScan mass;
  mass.Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto got = mass.Execute(w.queries[q], core::QuerySpec::Knn(3));
    const auto expected = core::BruteForceKnn(data, w.queries[q], 3);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(got.neighbors[i].dist_sq, expected[i].dist_sq,
                  1e-5 * std::max(1.0, expected[i].dist_sq));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ScanProperty,
                         ::testing::Values(64u, 96u, 256u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "len" + std::to_string(info.param);
                         });

TEST(ScanOrderInvariance, UcrResultUnaffectedByDataOrder) {
  const auto data = gen::RandomWalkDataset(500, 64, 97);
  core::Dataset shuffled("shuffled", 64);
  std::vector<size_t> perm(data.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = (i * 131) % data.size();
  std::sort(perm.begin(), perm.end());
  perm.erase(std::unique(perm.begin(), perm.end()), perm.end());
  // Build a rotation instead: deterministic permutation of all ids.
  shuffled.Reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    shuffled.Append(data[(i + 257) % data.size()]);
  }
  const auto w = gen::RandWorkload(3, 64, 98);
  scan::UcrScan a;
  scan::UcrScan b;
  a.Build(data);
  b.Build(shuffled);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto ra = a.Execute(w.queries[q], core::QuerySpec::Knn(1));
    const auto rb = b.Execute(w.queries[q], core::QuerySpec::Knn(1));
    EXPECT_NEAR(ra.neighbors[0].dist_sq, rb.neighbors[0].dist_sq, 1e-9);
  }
}

TEST(ScanCpuCharacter, MassIsCpuHeavierThanUcr) {
  // The paper's finding: the MASS adaptation spends far more CPU than the
  // plain optimized scan.
  const auto data = gen::RandomWalkDataset(800, 128, 99);
  const auto w = gen::RandWorkload(3, 128, 100);
  scan::UcrScan ucr;
  scan::MassScan mass;
  ucr.Build(data);
  mass.Build(data);
  double ucr_cpu = 0.0;
  double mass_cpu = 0.0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    ucr_cpu += ucr.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.cpu_seconds;
    mass_cpu += mass.Execute(w.queries[q], core::QuerySpec::Knn(1))
                    .stats.cpu_seconds;
  }
  EXPECT_GT(mass_cpu, ucr_cpu);
}

}  // namespace
}  // namespace hydra
