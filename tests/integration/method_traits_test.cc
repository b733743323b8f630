// Asserts the static taxonomy of Table 1: the ten methods, their names, the
// capability table (every refusal explained, NamesWith equal to the support
// matrix), and the structural traits our implementation encodes (indexes
// expose footprints; scans do not; summarized indexes expose a TLB).
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "gen/random_walk.h"

namespace hydra {
namespace {

TEST(MethodTraits, TenMethodsExist) {
  EXPECT_EQ(bench::AllMethodNames().size(), 10u);
}

TEST(MethodTraits, EveryRefusedCapabilityCarriesAReason) {
  // The CLI, the server, Save/Open, and the batch engine all surface these
  // reasons verbatim: a refusal without one would be an unexplained "no".
  std::vector<std::pair<std::string, core::MethodTraits>> tables = {
      {"default", core::MethodTraits()}};
  for (const std::string& name : bench::AllMethodNames()) {
    tables.emplace_back(name, bench::CreateMethod(name)->traits());
  }
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    tables.emplace_back("Sharded " + name,
                        bench::CreateShardedMethod(name, 2, 1)->traits());
  }
  for (const auto& [name, traits] : tables) {
    for (const core::Capability c : core::kAllCapabilities) {
      if (traits.Has(c)) {
        EXPECT_TRUE(traits.Reason(c).empty()) << name;
      } else {
        EXPECT_FALSE(traits.Reason(c).empty())
            << name << " refuses " << core::CapabilityName(c);
      }
    }
  }
}

TEST(MethodTraits, NamesWithEncodesTheSupportMatrix) {
  // Table 1 plus the execution capabilities, as AllMethodNames() orders
  // them: the four ng-capable trees support every mode; the seven indexes
  // relax epsilon, persist, and shard; five trees run on the intra-query
  // engine; only adaptive ADS+ serializes queries; and only traversals
  // that visit several leaves can bind a leaf budget.
  using Names = std::vector<std::string>;
  const Names ng = {"ADS+", "DSTree", "iSAX2+", "SFA"};
  const Names indexes = {"ADS+",    "DSTree", "iSAX2+", "M-tree",
                         "R*-tree", "SFA",    "VA+file"};
  const std::vector<std::pair<core::Capability, Names>> matrix = {
      {core::Capability::kNgApprox, ng},
      {core::Capability::kEpsilon, indexes},
      {core::Capability::kDeltaEpsilon, ng},
      {core::Capability::kLeafBudget,
       {"DSTree", "iSAX2+", "M-tree", "R*-tree", "SFA"}},
      {core::Capability::kConcurrentQueries,
       {"DSTree", "iSAX2+", "M-tree", "R*-tree", "SFA", "VA+file",
        "UCR-Suite", "MASS", "Stepwise"}},
      {core::Capability::kPersistence, indexes},
      {core::Capability::kSharding, indexes},
      {core::Capability::kIntraQuery,
       {"ADS+", "DSTree", "iSAX2+", "M-tree", "SFA"}},
  };
  ASSERT_EQ(matrix.size(), core::kCapabilityCount);
  for (const auto& [capability, names] : matrix) {
    EXPECT_EQ(bench::NamesWith(capability), names)
        << core::CapabilityName(capability);
  }
}

TEST(MethodTraits, IndexesExposeFootprints) {
  const auto data = gen::RandomWalkDataset(800, 64, 61);
  for (const std::string name :
       {"ADS+", "DSTree", "iSAX2+", "SFA", "M-tree", "R*-tree"}) {
    auto m = bench::CreateMethod(name, 64);
    m->Build(data);
    EXPECT_GT(m->footprint().total_nodes, 0) << name;
  }
}

TEST(MethodTraits, VaFileHasNoTreeNodes) {
  const auto data = gen::RandomWalkDataset(800, 64, 62);
  auto m = bench::CreateMethod("VA+file");
  m->Build(data);
  const auto fp = m->footprint();
  EXPECT_EQ(fp.total_nodes, 0);
  EXPECT_GT(fp.disk_bytes, 0);  // the approximation file
}

TEST(MethodTraits, ScansHaveEmptyFootprint) {
  const auto data = gen::RandomWalkDataset(200, 64, 63);
  for (const std::string name : {"UCR-Suite", "MASS"}) {
    auto m = bench::CreateMethod(name);
    m->Build(data);
    EXPECT_EQ(m->footprint().total_nodes, 0) << name;
  }
}

TEST(MethodTraits, SummarizedMethodsExposeTlb) {
  const auto data = gen::RandomWalkDataset(500, 64, 64);
  const auto probe = gen::RandomWalkDataset(1, 64, 65);
  for (const std::string& name : bench::PruningMethodNames()) {
    auto m = bench::CreateMethod(name, 32);
    m->Build(data);
    EXPECT_FALSE(std::isnan(m->MeanTlb(probe[0]))) << name;
  }
  // Raw scans have no summarized leaves.
  auto ucr = bench::CreateMethod("UCR-Suite");
  ucr->Build(data);
  EXPECT_TRUE(std::isnan(ucr->MeanTlb(probe[0])));
}

TEST(MethodTraits, AdsDiskFootprintIsSummaryOnly) {
  // Table 1 / Section 3.2: ADS+ stores iSAX summaries, not raw leaves.
  const auto data = gen::RandomWalkDataset(1000, 128, 66);
  auto ads = bench::CreateMethod("ADS+", 64);
  auto isax = bench::CreateMethod("iSAX2+", 64);
  ads->Build(data);
  isax->Build(data);
  EXPECT_LT(ads->footprint().disk_bytes, isax->footprint().disk_bytes);
}

}  // namespace
}  // namespace hydra
