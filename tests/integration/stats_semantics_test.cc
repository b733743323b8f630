// Measurement-semantics tests: the paper's measures (pruning ratio, random
// vs sequential accesses, footprint, TLB) must behave per their Section 4.2
// definitions for every method.
#include <cmath>
#include <initializer_list>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra {
namespace {

class StatsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gen::RandomWalkDataset(4000, 128, 2024);
    workload_ = gen::RandWorkload(8, 128, 2025);
  }

  core::Dataset data_;
  gen::Workload workload_;
};

TEST_F(StatsFixture, UcrScanExaminesEverything) {
  auto method = bench::CreateMethod("UCR-Suite");
  const auto run = bench::RunMethod(method.get(), data_, workload_);
  for (const auto& q : run.queries) {
    EXPECT_EQ(q.raw_series_examined, static_cast<int64_t>(data_.size()));
    EXPECT_EQ(q.sequential_reads, static_cast<int64_t>(data_.size()));
    EXPECT_EQ(q.random_seeks, 1);  // one scan start
  }
  EXPECT_NEAR(bench::MeanPruningRatio(run, data_.size()), 0.0, 1e-12);
}

TEST_F(StatsFixture, IndexesPruneOnRandomWalks) {
  // Random-walk data is highly summarizable: all indexes must prune most
  // of the collection (the paper's Synth-Rand pruning is near 1).
  for (const std::string& name : bench::PruningMethodNames()) {
    auto method = bench::CreateMethod(name, 64);
    const auto run = bench::RunMethod(method.get(), data_, workload_);
    const double pruning = bench::MeanPruningRatio(run, data_.size());
    EXPECT_GT(pruning, 0.5) << name;
    EXPECT_LE(pruning, 1.0) << name;
  }
}

TEST_F(StatsFixture, AdsPlusHasMostRandomAccesses) {
  // Skip-sequential per-series pruning => many skips (paper Figure 4c).
  auto ads = bench::CreateMethod("ADS+", 64);
  auto dstree = bench::CreateMethod("DSTree", 64);
  const auto run_ads = bench::RunMethod(ads.get(), data_, workload_);
  const auto run_ds = bench::RunMethod(dstree.get(), data_, workload_);
  int64_t ads_seeks = 0;
  int64_t ds_seeks = 0;
  for (const auto& q : run_ads.queries) ads_seeks += q.random_seeks;
  for (const auto& q : run_ds.queries) ds_seeks += q.random_seeks;
  EXPECT_GT(ads_seeks, ds_seeks);
}

TEST_F(StatsFixture, ContiguousLeafMethodsChargeWholeLeaves) {
  // DSTree, iSAX2+ and SFA read leaves through io::VerifyLeaf: one random
  // access per verified leaf plus a sequential read of each of its series
  // (Section 4.2). Unbudgeted, every charged series is examined; a budget
  // may stop mid-leaf, but the whole leaf was already charged.
  const int64_t series_bytes =
      static_cast<int64_t>(data_.length() * sizeof(core::Value));
  for (const std::string name : {"DSTree", "iSAX2+", "SFA"}) {
    auto method = bench::CreateMethod(name, 64);
    method->Build(data_);
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      const core::SeriesView query = workload_.queries[q];
      const core::QueryResult knn =
          method->Execute(query, core::QuerySpec::Knn(5));
      const double radius = std::sqrt(knn.neighbors.back().dist_sq);
      for (const core::QuerySpec& spec :
           {core::QuerySpec::Knn(5), core::QuerySpec::Range(radius),
            core::QuerySpec::NgApprox(5)}) {
        const core::SearchStats st = method->Execute(query, spec).stats;
        EXPECT_EQ(st.sequential_reads, st.raw_series_examined) << name;
        EXPECT_EQ(st.bytes_read, st.raw_series_examined * series_bytes)
            << name;
        EXPECT_GT(st.random_seeks, 0) << name;
        EXPECT_LE(st.random_seeks, st.nodes_visited) << name;
      }
      core::QuerySpec budgeted = core::QuerySpec::Knn(5);
      budgeted.max_raw_series = 50;
      const core::SearchStats st = method->Execute(query, budgeted).stats;
      EXPECT_TRUE(st.budget_exhausted) << name;
      EXPECT_GE(st.sequential_reads, st.raw_series_examined) << name;
    }
  }
}

TEST_F(StatsFixture, SequentialScanDoesMostSequentialReads) {
  auto ucr = bench::CreateMethod("UCR-Suite");
  auto va = bench::CreateMethod("VA+file");
  const auto run_ucr = bench::RunMethod(ucr.get(), data_, workload_);
  const auto run_va = bench::RunMethod(va.get(), data_, workload_);
  int64_t ucr_seq = 0;
  int64_t va_seq = 0;
  for (const auto& q : run_ucr.queries) ucr_seq += q.sequential_reads;
  for (const auto& q : run_va.queries) va_seq += q.sequential_reads;
  EXPECT_GT(ucr_seq, va_seq);  // paper Figure 4a: VA+ performs virtually none
}

TEST_F(StatsFixture, FootprintShapesAreConsistent) {
  for (const std::string name :
       {"ADS+", "DSTree", "iSAX2+", "SFA", "M-tree", "R*-tree"}) {
    auto method = bench::CreateMethod(name, 64);
    method->Build(data_);
    const core::Footprint fp = method->footprint();
    EXPECT_GT(fp.total_nodes, 0) << name;
    EXPECT_GT(fp.leaf_nodes, 0) << name;
    EXPECT_GE(fp.total_nodes, fp.leaf_nodes) << name;
    EXPECT_GT(fp.memory_bytes, 0) << name;
    EXPECT_EQ(fp.leaf_fill_fractions.size(),
              static_cast<size_t>(fp.leaf_nodes))
        << name;
    for (const double f : fp.leaf_fill_fractions) {
      EXPECT_GE(f, 0.0) << name;
    }
  }
}

TEST_F(StatsFixture, TlbWithinUnitInterval) {
  for (const std::string& name : bench::PruningMethodNames()) {
    auto method = bench::CreateMethod(name, 64);
    method->Build(data_);
    for (size_t q = 0; q < 3; ++q) {
      const double tlb = method->MeanTlb(workload_.queries[q]);
      EXPECT_GE(tlb, 0.0) << name;
      EXPECT_LE(tlb, 1.0 + 1e-9) << name;  // lb <= true distance
    }
  }
}

TEST_F(StatsFixture, VaPlusTlbTighterThanSfa) {
  // Paper Figure 8f: VA+file has one of the tightest bounds, SFA (alphabet
  // 8, coarse leaves) one of the loosest.
  auto va = bench::CreateMethod("VA+file");
  auto sfa = bench::CreateMethod("SFA", 512);
  va->Build(data_);
  sfa->Build(data_);
  double va_sum = 0.0;
  double sfa_sum = 0.0;
  for (size_t q = 0; q < 5; ++q) {
    va_sum += va->MeanTlb(workload_.queries[q]);
    sfa_sum += sfa->MeanTlb(workload_.queries[q]);
  }
  EXPECT_GT(va_sum, sfa_sum);
}

TEST_F(StatsFixture, BuildStatsPopulated) {
  for (const std::string& name : bench::BestSixNames()) {
    auto method = bench::CreateMethod(name, 64);
    const core::BuildStats b = method->Build(data_);
    EXPECT_GE(b.cpu_seconds, 0.0) << name;
    if (name != "UCR-Suite") {
      EXPECT_GT(b.bytes_read, 0) << name;
    }
  }
}

TEST_F(StatsFixture, AdsWritesLessThanIsax2PlusAtBuild) {
  // ADS+ never materializes raw leaves; iSAX2+ does (paper Figure 6a).
  auto ads = bench::CreateMethod("ADS+", 64);
  auto isax = bench::CreateMethod("iSAX2+", 64);
  const auto b_ads = ads->Build(data_);
  const auto b_isax = isax->Build(data_);
  EXPECT_LT(b_ads.bytes_written, b_isax.bytes_written);
}

TEST_F(StatsFixture, HarderQueriesPruneLess) {
  const auto easy = gen::CtrlWorkload(data_, 10, 3030, 0.05, 0.05);
  const auto hard = gen::CtrlWorkload(data_, 10, 3031, 3.0, 3.0);
  auto method = bench::CreateMethod("DSTree", 64);
  const auto run_easy = bench::RunMethod(method.get(), data_, easy);
  auto method2 = bench::CreateMethod("DSTree", 64);
  const auto run_hard = bench::RunMethod(method2.get(), data_, hard);
  EXPECT_GT(bench::MeanPruningRatio(run_easy, data_.size()),
            bench::MeanPruningRatio(run_hard, data_.size()));
}

}  // namespace
}  // namespace hydra
