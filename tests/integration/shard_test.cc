// The sharded-index contract: sharded exact k-NN and range answers are
// bit-identical to the unsharded method for all seven index methods, at
// every shard count and fan-out thread count, including after a Save/Open
// round-trip of the sharded container; budgets split without exceeding the
// global cap; approximate modes keep their guarantees through the merge;
// manifest problems surface as clean util::Status errors, never crashes.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/index_codec.h"
#include "shard/sharded_index.h"

namespace hydra {
namespace {

constexpr size_t kCount = 400;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;
constexpr size_t kK = 5;
constexpr double kRadius = 8.0;

const size_t kShardCounts[] = {1, 2, 7};
const size_t kThreadCounts[] = {1, 8};

core::Dataset TestData() {
  return gen::RandomWalkDataset(kCount, kLength, 7401);
}
gen::Workload TestQueries() { return gen::RandWorkload(4, kLength, 7402); }

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectSameAnswers(const std::vector<core::Neighbor>& got,
                       const std::vector<core::Neighbor>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].dist_sq, want[i].dist_sq) << context << " rank " << i;
  }
}

/// The headline guarantee, over every (method, shards, threads) cell:
/// exact k-NN and exact range through the sharded container match the
/// unsharded method bit for bit.
TEST(ShardedBitIdentity, ExactKnnAndRangeMatchUnshardedEverywhere) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    // Fresh unsharded reference per method (ADS+ adapts during queries,
    // so references are computed once and reused across cells).
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(data);
    std::vector<std::vector<core::Neighbor>> knn_ref;
    std::vector<std::vector<core::Neighbor>> range_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      knn_ref.push_back(
          reference->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
              .neighbors);
      range_ref.push_back(
          reference
              ->Execute(workload.queries[q], core::QuerySpec::Range(kRadius))
              .neighbors);
    }
    for (const size_t shards : kShardCounts) {
      for (const size_t threads : kThreadCounts) {
        auto sharded =
            bench::CreateShardedMethod(name, shards, threads, kLeaf);
        sharded->Build(data);
        const std::string context = name + " shards=" +
                                    std::to_string(shards) + " threads=" +
                                    std::to_string(threads);
        for (size_t q = 0; q < workload.queries.size(); ++q) {
          const core::QueryResult knn = sharded->Execute(
              workload.queries[q], core::QuerySpec::Knn(kK));
          ExpectSameAnswers(knn.neighbors, knn_ref[q],
                            context + " knn query " + std::to_string(q));
          EXPECT_EQ(knn.delivered(), core::QualityMode::kExact) << context;
          EXPECT_FALSE(knn.budget_fired()) << context;
          const core::QueryResult range = sharded->Execute(
              workload.queries[q], core::QuerySpec::Range(kRadius));
          ExpectSameAnswers(range.neighbors, range_ref[q],
                            context + " range query " + std::to_string(q));
        }
      }
    }
  }
}

/// Save → Open of the sharded container answers bit-identically, for every
/// persistent method, at an uneven shard count, across thread counts.
TEST(ShardedPersistence, RoundTripAnswersAreBitIdentical) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    const std::string dir = FreshDir("shard_rt_" + name);
    auto built = bench::CreateShardedMethod(name, 7, 2, kLeaf);
    built->Build(data);
    std::vector<std::vector<core::Neighbor>> knn_ref;
    std::vector<std::vector<core::Neighbor>> range_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      knn_ref.push_back(
          built->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
              .neighbors);
      range_ref.push_back(
          built->Execute(workload.queries[q], core::QuerySpec::Range(kRadius))
              .neighbors);
    }
    const util::Result<int64_t> saved = built->Save(dir);
    ASSERT_TRUE(saved.ok()) << name << ": " << saved.status().message();
    EXPECT_GT(saved.value(), 0) << name;

    for (const size_t threads : kThreadCounts) {
      // Opened with a *different* configured shard count: the manifest
      // wins, like every persisted method option.
      auto opened = bench::CreateShardedMethod(name, 3, threads, kLeaf);
      const util::Result<core::BuildStats> stats = opened->Open(dir, data);
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().message();
      EXPECT_EQ(stats.value().cpu_seconds, 0.0) << name;
      EXPECT_GE(stats.value().load_seconds, 0.0) << name;
      const auto* container =
          dynamic_cast<const shard::ShardedIndex*>(opened.get());
      ASSERT_NE(container, nullptr);
      EXPECT_EQ(container->shard_count(), 7u) << name;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        ExpectSameAnswers(
            opened->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
                .neighbors,
            knn_ref[q], name + " opened knn q" + std::to_string(q));
        ExpectSameAnswers(
            opened
                ->Execute(workload.queries[q],
                          core::QuerySpec::Range(kRadius))
                .neighbors,
            range_ref[q], name + " opened range q" + std::to_string(q));
      }
    }
  }
}

TEST(ShardedTraits, ContainerMirrorsItsComponentButRefusesNesting) {
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    const core::MethodTraits inner = bench::CreateMethod(name)->traits();
    const core::MethodTraits outer =
        bench::CreateShardedMethod(name, 2, 1)->traits();
    for (const core::Capability c : core::kAllCapabilities) {
      if (c == core::Capability::kSharding) continue;
      EXPECT_EQ(outer.Has(c), inner.Has(c))
          << name << " " << core::CapabilityName(c);
      EXPECT_EQ(outer.Reason(c), inner.Reason(c))
          << name << " " << core::CapabilityName(c);
    }
    EXPECT_FALSE(outer.Has(core::Capability::kSharding)) << name;
  }
}

TEST(ShardedBudgets, GlobalRawBudgetIsNeverExceededBySplitShards) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    for (const int64_t budget : {int64_t{3}, int64_t{50}}) {
      // budget=3 over 7 shards starves four of them (split rule: B/N with
      // the first B mod N shards getting one extra).
      auto sharded = bench::CreateShardedMethod(name, 7, 2, kLeaf);
      sharded->Build(data);
      core::QuerySpec spec = core::QuerySpec::Knn(kK);
      spec.max_raw_series = budget;
      const core::QueryResult r =
          sharded->Execute(workload.queries[0], spec);
      EXPECT_LE(r.stats.raw_series_examined, budget)
          << name << " budget=" << budget;
      if (r.budget_fired()) {
        EXPECT_EQ(r.delivered(), core::QualityMode::kNgApprox) << name;
      }
      // Whatever came back reports true distances (the id's real
      // distance to the query), truncated or not. Methods sum dimensions
      // in reordered-early-abandon order, so allow a few ulps against the
      // straight-sum oracle.
      for (const core::Neighbor& n : r.neighbors) {
        const double truth =
            core::SquaredEuclidean(workload.queries[0], data[n.id]);
        EXPECT_NEAR(n.dist_sq, truth, 1e-9 * (1.0 + truth)) << name;
      }
    }
  }
}

TEST(ShardedModes, EpsilonGuaranteeSurvivesTheMerge) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  constexpr double kEps = 0.5;
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    auto sharded = bench::CreateShardedMethod(name, 7, 2, kLeaf);
    sharded->Build(data);
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
      const core::SeriesView q = workload.queries[qi];
      const std::vector<core::Neighbor> truth =
          core::BruteForceKnn(data, q, kK);
      const core::QueryResult r =
          sharded->Execute(q, core::QuerySpec::Epsilon(kK, kEps));
      EXPECT_EQ(r.delivered(), core::QualityMode::kEpsilon) << name;
      ASSERT_EQ(r.neighbors.size(), kK) << name;
      for (size_t i = 0; i < kK; ++i) {
        // Definition 5: every reported distance within (1+eps) of the
        // true distance at the same rank (small slack for fp rounding).
        EXPECT_LE(std::sqrt(r.neighbors[i].dist_sq),
                  (1.0 + kEps) * std::sqrt(truth[i].dist_sq) + 1e-9)
            << name;
      }
    }
  }
}

TEST(ShardedModes, NgFanOutMergesOneDescentPerShard) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name :
       bench::NamesWith(core::Capability::kNgApprox)) {
    auto sharded = bench::CreateShardedMethod(name, 2, 2, kLeaf);
    sharded->Build(data);
    const core::QueryResult r = sharded->Execute(
        workload.queries[0], core::QuerySpec::NgApprox(kK));
    EXPECT_EQ(r.delivered(), core::QualityMode::kNgApprox) << name;
    EXPECT_LE(r.neighbors.size(), kK) << name;
    EXPECT_GE(r.neighbors.size(), 1u) << name;
    for (const core::Neighbor& n : r.neighbors) {
      const double truth =
          core::SquaredEuclidean(workload.queries[0], data[n.id]);
      EXPECT_NEAR(n.dist_sq, truth, 1e-9 * (1.0 + truth)) << name;
    }
  }
}

TEST(ShardedLayout, ShardCountClampsToTheDatasetSize) {
  const core::Dataset small = gen::RandomWalkDataset(5, kLength, 7403);
  auto sharded = bench::CreateShardedMethod("DSTree", 1000, 2, kLeaf);
  sharded->Build(small);
  const auto* container =
      dynamic_cast<const shard::ShardedIndex*>(sharded.get());
  ASSERT_NE(container, nullptr);
  EXPECT_EQ(container->shard_count(), 5u);  // one series per shard
  const gen::Workload workload = gen::RandWorkload(2, kLength, 7404);
  auto reference = bench::CreateMethod("DSTree", kLeaf);
  reference->Build(small);
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const core::SeriesView q = workload.queries[qi];
    // k beyond the collection: every series comes back, merged across
    // the one-series shards, identical to the unsharded answer.
    ExpectSameAnswers(
        sharded->Execute(q, core::QuerySpec::Knn(10)).neighbors,
        reference->Execute(q, core::QuerySpec::Knn(10)).neighbors,
        "clamped shards");
  }
}

TEST(ShardedStats, LedgersSumAcrossShards) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  // VA+file reads every approximation cell: lower_bound_computations is
  // exactly 2N per query regardless of sharding, so the summed ledger is
  // checkable in closed form.
  auto sharded = bench::CreateShardedMethod("VA+file", 7, 1);
  sharded->Build(data);
  const core::QueryResult r =
      sharded->Execute(workload.queries[0], core::QuerySpec::Knn(kK));
  EXPECT_EQ(r.stats.lower_bound_computations,
            static_cast<int64_t>(2 * kCount));
  EXPECT_GT(r.stats.cpu_seconds, 0.0);
  // The footprint also aggregates across shards.
  const core::Footprint fp = sharded->footprint();
  EXPECT_GT(fp.memory_bytes, 0);
}

TEST(ShardedErrors, ForeignAndGarbledContainersFailCleanly) {
  const core::Dataset data = TestData();
  const std::string dir = FreshDir("shard_err");
  auto built = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  built->Build(data);
  ASSERT_TRUE(built->Save(dir).ok());

  // A plain method refuses the sharded container (method-name mismatch).
  auto plain = bench::CreateMethod("DSTree", kLeaf);
  const auto plain_open = plain->Open(dir, data);
  EXPECT_FALSE(plain_open.ok());
  EXPECT_NE(plain_open.status().message().find("Sharded[DSTree]"),
            std::string::npos);

  // A sharded container of another component refuses too.
  auto wrong_inner = bench::CreateShardedMethod("SFA", 2, 1, kLeaf);
  const auto wrong_open = wrong_inner->Open(dir, data);
  EXPECT_FALSE(wrong_open.ok());

  // A sharded container refuses a dataset of the wrong shape.
  const core::Dataset other = gen::RandomWalkDataset(kCount / 2, kLength,
                                                     7405);
  auto mismatched = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  const auto mismatch_open = mismatched->Open(dir, other);
  EXPECT_FALSE(mismatch_open.ok());

  // Flipping a byte in the container body surfaces as a checksum error,
  // never a crash.
  const std::string path = io::IndexFilePath(dir);
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();
  auto corrupt = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  const auto corrupt_open = corrupt->Open(dir, data);
  EXPECT_FALSE(corrupt_open.ok());
}

TEST(ShardedHarness, RunMethodShardedMatchesRunMethod) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  auto reference = bench::CreateMethod("SFA");
  const bench::MethodRun serial =
      bench::RunMethod(reference.get(), data, workload, kK);
  const bench::MethodRun sharded =
      bench::RunMethodSharded("SFA", 3, 2, data, workload, kK);
  EXPECT_EQ(sharded.method, "Sharded[SFA]");
  ASSERT_EQ(sharded.nn_dists_sq.size(), serial.nn_dists_sq.size());
  for (size_t q = 0; q < serial.nn_dists_sq.size(); ++q) {
    EXPECT_EQ(sharded.nn_dists_sq[q], serial.nn_dists_sq[q]) << q;
  }
}

}  // namespace
}  // namespace hydra
