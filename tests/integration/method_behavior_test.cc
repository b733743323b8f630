// Method-specific behavioural invariants: the structural properties each
// paper method is defined by, observable through the public API.
#include <cmath>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "gen/random_walk.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "index/ads.h"
#include "index/dstree.h"
#include "index/isax2plus.h"
#include "index/mtree.h"
#include "index/rtree.h"
#include "index/sfatrie.h"
#include "index/vafile.h"
#include "scan/stepwise.h"
#include "transform/dft.h"
#include "transform/sfa.h"

namespace hydra {
namespace {

TEST(AdsBehavior, AdaptiveRefinementDeepensTheIndex) {
  // ADS+ splits leaves along query paths: after a query burst the index
  // must have at least as many leaves as right after building.
  const auto data = gen::RandomWalkDataset(4000, 128, 8101);
  index::AdsOptions o;
  o.leaf_capacity = 512;
  o.adaptive_leaf_capacity = 16;
  index::AdsPlus ads(o);
  ads.Build(data);
  const auto before = ads.footprint();
  const auto w = gen::RandWorkload(20, 128, 8102);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    ads.Execute(w.queries[q], core::QuerySpec::Knn(1));
  }
  const auto after = ads.footprint();
  EXPECT_GT(after.leaf_nodes, before.leaf_nodes)
      << "queries did not adaptively split any leaf";
  // Adaptation must not break exactness afterwards.
  const auto probe = gen::RandWorkload(3, 128, 8103);
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    const auto expected = core::BruteForceKnn(data, probe.queries[q], 1);
    const auto got = ads.Execute(probe.queries[q], core::QuerySpec::Knn(1));
    EXPECT_NEAR(got.neighbors[0].dist_sq, expected[0].dist_sq, 1e-6);
  }
}

TEST(AdsBehavior, LeafSizeBarelyAffectsQueryWork) {
  // The paper's Figure 2a: ADS+ query answering is insensitive to the
  // build-time leaf threshold (SIMS prunes with per-series summaries).
  const auto data = gen::RandomWalkDataset(6000, 128, 8104);
  const auto w = gen::RandWorkload(10, 128, 8105);
  std::vector<int64_t> examined;
  for (const size_t leaf : {128u, 2048u}) {
    index::AdsOptions o;
    o.leaf_capacity = leaf;
    index::AdsPlus ads(o);
    ads.Build(data);
    int64_t total = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      total += ads.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.raw_series_examined;
    }
    examined.push_back(total);
  }
  const double ratio = static_cast<double>(examined[0]) /
                       static_cast<double>(std::max<int64_t>(1, examined[1]));
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(DsTreeBehavior, DeeperTreesPruneBetter) {
  // Smaller leaves => finer envelopes => fewer raw series examined.
  const auto data = gen::RandomWalkDataset(6000, 128, 8106);
  const auto w = gen::RandWorkload(10, 128, 8107);
  int64_t small_leaf_examined = 0;
  int64_t large_leaf_examined = 0;
  for (const size_t leaf : {64u, 2048u}) {
    index::DsTreeOptions o;
    o.leaf_capacity = leaf;
    index::DsTree tree(o);
    tree.Build(data);
    int64_t total = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      total += tree.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.raw_series_examined;
    }
    (leaf == 64u ? small_leaf_examined : large_leaf_examined) = total;
  }
  EXPECT_LT(small_leaf_examined, large_leaf_examined);
}

TEST(DsTreeBehavior, VerticalSplittingNeverHurtsAndCanHelp) {
  // Vertical splits refine the segmentation only when the QoS margin says
  // they clearly beat the best horizontal split, so allowing them must not
  // degrade pruning; from a deliberately coarse 2-segment start on bursty
  // data they engage and improve it.
  const auto data = gen::SeismicLikeDataset(6000, 128, 8108);
  const auto w = gen::CtrlWorkload(data, 10, 8109, 0.1, 0.3);
  int64_t adaptive = 0;
  int64_t frozen = 0;
  for (const bool allow_vertical : {true, false}) {
    index::DsTreeOptions o;
    o.initial_segments = 2;
    o.max_segments = allow_vertical ? 32 : 2;
    o.leaf_capacity = 128;
    index::DsTree tree(o);
    tree.Build(data);
    int64_t total = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      total += tree.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.raw_series_examined;
    }
    (allow_vertical ? adaptive : frozen) = total;
  }
  EXPECT_LT(adaptive, frozen);
}

TEST(VaFileBehavior, BiggerBudgetExaminesFewerSeries) {
  const auto data = gen::RandomWalkDataset(6000, 128, 8110);
  const auto w = gen::RandWorkload(10, 128, 8111);
  std::vector<int64_t> examined;
  for (const int bits : {16, 128}) {
    index::VaFileOptions o;
    o.total_bits = bits;
    index::VaFile va(o);
    va.Build(data);
    int64_t total = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      total += va.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.raw_series_examined;
    }
    examined.push_back(total);
  }
  EXPECT_LT(examined[1], examined[0]);
}

TEST(VaFileBehavior, ApproximationFileShrinksWithBudget) {
  const auto data = gen::RandomWalkDataset(1000, 128, 8112);
  index::VaFile small{index::VaFileOptions{16, 32,
      transform::VaPlusQuantizer::Allocation::kNonUniform,
      transform::VaPlusQuantizer::CellPlacement::kKmeans}};
  index::VaFile large{index::VaFileOptions{16, 128,
      transform::VaPlusQuantizer::Allocation::kNonUniform,
      transform::VaPlusQuantizer::CellPlacement::kKmeans}};
  small.Build(data);
  large.Build(data);
  EXPECT_LE(small.footprint().disk_bytes, large.footprint().disk_bytes);
  // Either way, the approximation file is far smaller than the raw data.
  EXPECT_LT(large.footprint().disk_bytes,
            static_cast<int64_t>(data.bytes()) / 2);
}

TEST(StepwiseBehavior, EveryLevelTightensTheFilter) {
  // More filter levels (fewer refine levels) must not increase the number
  // of raw series refined.
  const auto data = gen::RandomWalkDataset(4000, 128, 8113);
  const auto w = gen::CtrlWorkload(data, 6, 8114, 0.05, 0.2);
  int64_t coarse = 0;
  int64_t fine = 0;
  for (const int refine_levels : {3, 0}) {
    scan::Stepwise method(refine_levels);
    method.Build(data);
    int64_t total = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      total += method.Execute(w.queries[q], core::QuerySpec::Knn(1))
                   .stats.raw_series_examined;
    }
    (refine_levels == 3 ? coarse : fine) = total;
  }
  EXPECT_LE(fine, coarse);
}

TEST(MTreeBehavior, TriangleFilterSavesDistanceComputations) {
  // The number of full distance computations must be well below the
  // dataset size on clustered data (routing-ball pruning).
  const auto data = gen::SaldLikeDataset(2000, 128, 8115);
  index::MTree mtree;
  mtree.Build(data);
  const auto w = gen::CtrlWorkload(data, 6, 8116, 0.05, 0.2);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto r = mtree.Execute(w.queries[q], core::QuerySpec::Knn(1));
    EXPECT_LT(r.stats.distance_computations,
              static_cast<int64_t>(data.size()))
        << "M-tree pruned nothing";
  }
}

TEST(RTreeBehavior, LeafVisitsBoundedByLeafCount) {
  const auto data = gen::RandomWalkDataset(3000, 128, 8117);
  index::RTreeOptions o;
  o.leaf_capacity = 50;
  index::RStarTree rtree(o);
  rtree.Build(data);
  const auto fp = rtree.footprint();
  const auto w = gen::RandWorkload(5, 128, 8118);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto r = rtree.Execute(w.queries[q], core::QuerySpec::Knn(1));
    EXPECT_LE(r.stats.nodes_visited, fp.total_nodes);
  }
}

TEST(SfaBehavior, LargerAlphabetTightensWordBounds) {
  // The symbol-level SFA lower bound tightens with the alphabet size (the
  // trie's MBR bound is alphabet-independent, so this is measured on the
  // quantizer directly — the property the paper's alphabet tuning trades
  // against trie fanout).
  const auto data = gen::RandomWalkDataset(2000, 128, 8119);
  const size_t dims = 16;
  std::vector<std::vector<double>> dfts;
  for (size_t i = 0; i < data.size(); ++i) {
    dfts.push_back(transform::PackedRealDft(data[i], dims, true));
  }
  const auto coarse = transform::SfaQuantizer::Train(
      dfts, 2, transform::SfaQuantizer::Binning::kEquiDepth);
  const auto fine = transform::SfaQuantizer::Train(
      dfts, 64, transform::SfaQuantizer::Binning::kEquiDepth);
  double coarse_sum = 0.0;
  double fine_sum = 0.0;
  for (size_t q = 0; q < 50; ++q) {
    for (size_t i = 50; i < 150; ++i) {
      coarse_sum += coarse.LowerBoundSq(dfts[q], coarse.Quantize(dfts[i]));
      fine_sum += fine.LowerBoundSq(dfts[q], fine.Quantize(dfts[i]));
    }
  }
  EXPECT_GT(fine_sum, coarse_sum);
}

TEST(Isax2PlusBehavior, SegmentCountMustDivideLength) {
  // 16 segments over length 96 (Deep1B) divides evenly; the registry
  // methods must build on all paper lengths.
  for (const size_t length : {96u, 128u, 256u}) {
    const auto data = gen::RandomWalkDataset(500, length, 8121);
    auto method = bench::CreateMethod("iSAX2+", 64);
    method->Build(data);
    const auto w = gen::RandWorkload(2, length, 8122);
    const auto expected = core::BruteForceKnn(data, w.queries[0], 1);
    const auto got = method->Execute(w.queries[0], core::QuerySpec::Knn(1));
    EXPECT_NEAR(got.neighbors[0].dist_sq, expected[0].dist_sq, 1e-6)
        << "len=" << length;
  }
}

TEST(StatsBehavior, CpuSecondsPopulatedEverywhere) {
  const auto data = gen::RandomWalkDataset(800, 64, 8123);
  const auto w = gen::RandWorkload(2, 64, 8124);
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, 64);
    method->Build(data);
    const auto r = method->Execute(w.queries[0], core::QuerySpec::Knn(1));
    EXPECT_GE(r.stats.cpu_seconds, 0.0) << name;
    EXPECT_GT(r.stats.distance_computations, 0) << name;
  }
}

}  // namespace
}  // namespace hydra
