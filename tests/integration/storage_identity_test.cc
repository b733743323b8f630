// Backend bit-identity battery: every answer produced over the mmap +
// buffer-pool backend must equal the in-RAM answer bit for bit — same
// neighbor ids, same squared distances — for all seven index methods,
// across exact / epsilon / budgeted specs, range queries, sharded
// composition, and intra-query parallelism, with a pool budget far below
// the dataset so real eviction happens mid-query. Also pins the measured
// cold/warm contract: a first pass over a cold pool misses, a second
// pass over the warm pool hits at a higher rate.
//
// The leaf-extent battery (LeafExtentTest) covers the contiguous-leaf
// methods over a pool of 1/6 of the data whose frames hold one leaf:
// answers equal ram in every mode, a leaf costs at most one measured miss
// (so misses <= modeled random accesses), Build and Open lay out the same
// extent, the extent lives exactly as long as its index, and an extent
// that cannot be written changes the read path, never the answer.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "storage/backend.h"
#include "storage/file_dataset.h"

namespace hydra {
namespace {

constexpr size_t kCount = 2000;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;

void ExpectSameAnswers(const std::vector<core::Neighbor>& ram,
                       const std::vector<core::Neighbor>& mmap,
                       const std::string& label) {
  ASSERT_EQ(ram.size(), mmap.size()) << label;
  for (size_t i = 0; i < ram.size(); ++i) {
    EXPECT_EQ(ram[i].id, mmap[i].id) << label << " rank " << i;
    EXPECT_EQ(ram[i].dist_sq, mmap[i].dist_sq) << label << " rank " << i;
  }
}

class StorageIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/hydra_storage_identity.bin";
    const core::Dataset generated =
        gen::RandomWalkDataset(kCount, kLength, 909);
    ASSERT_TRUE(io::WriteSeriesFile(path_, generated).ok());
    workload_ = gen::RandWorkload(4, kLength, 910);

    storage::StorageOptions ram;
    auto ram_opened = storage::StorageHandle::Open(path_, "ident", ram);
    ASSERT_TRUE(ram_opened.ok()) << ram_opened.status().message();
    ram_ = std::move(ram_opened).value();

    // ~512KB of data behind a 32KB pool: every query cycles the frames.
    storage::StorageOptions mmap;
    mmap.backend = storage::StorageBackend::kMmap;
    mmap.pool.budget_bytes = 32 << 10;
    mmap.pool.page_bytes = 8 << 10;
    auto mmap_opened = storage::StorageHandle::Open(path_, "ident", mmap);
    ASSERT_TRUE(mmap_opened.ok()) << mmap_opened.status().message();
    mmap_ = std::move(mmap_opened).value();
    ASSERT_TRUE(mmap_.pooled());
    // The premise of the battery: the pool cannot hold the dataset.
    ASSERT_LT(mmap.pool.budget_bytes,
              kCount * kLength * sizeof(core::Value) / 4);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Runs the same spec sequence over both backends on fresh instances of
  // `name` and asserts bit-identical answers. The sequence matters for
  // ADS+ (adaptive: each query refines the index), so both backends must
  // execute it in the same order.
  void CheckMethod(const std::string& name,
                   const std::vector<core::QuerySpec>& specs) {
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    core::SearchStats mmap_stats;
    for (const core::QuerySpec& spec : specs) {
      for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
        core::QueryResult a = on_ram->Execute(query, spec);
        core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
        EXPECT_EQ(a.stats.pool_misses, 0) << name;  // RAM never pools
        EXPECT_EQ(a.stats.pool_hits, 0) << name;
        mmap_stats.Add(b.stats);
      }
    }
    // The mmap run went through the pool: misses are real preads.
    EXPECT_GT(mmap_stats.pool_misses, 0) << name;
    EXPECT_EQ(mmap_stats.pool_bytes_read > 0, mmap_stats.pool_misses > 0)
        << name;
  }

  std::string path_;
  gen::Workload workload_;
  storage::StorageHandle ram_;
  storage::StorageHandle mmap_;
};

TEST_F(StorageIdentityTest, AllMethodsExactEpsilonAndBudgeted) {
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 200;  // binds for every method
  const std::vector<core::QuerySpec> specs = {
      core::QuerySpec::Knn(5), core::QuerySpec::Epsilon(5, 0.1), budgeted};
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    SCOPED_TRACE(name);
    CheckMethod(name, specs);
  }
}

TEST_F(StorageIdentityTest, RangeQueriesMatch) {
  for (const std::string& name :
       bench::NamesWith(core::Capability::kSharding)) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      // A radius at the 5th neighbor guarantees a non-trivial match set.
      const auto truth = core::BruteForceKnn(ram_.dataset(), query, 5);
      const double radius = std::sqrt(truth.back().dist_sq) + 1e-6;
      core::QueryResult a =
          on_ram->Execute(query, core::QuerySpec::Range(radius));
      core::QueryResult b =
          on_mmap->Execute(query, core::QuerySpec::Range(radius));
      ASSERT_GE(a.neighbors.size(), 5u) << name;
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
    }
  }
}

TEST_F(StorageIdentityTest, ShardedCompositionMatches) {
  // Sharded slices of a file-backed dataset address the pool through
  // their slice base — zero copies, same answers.
  for (const std::string& name : {std::string("DSTree"), std::string("SFA")}) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    auto on_mmap = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      core::QueryResult a = on_ram->Execute(query, core::QuerySpec::Knn(5));
      core::QueryResult b = on_mmap->Execute(query, core::QuerySpec::Knn(5));
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
      EXPECT_GT(b.stats.pool_misses, 0) << name;
    }
  }
}

TEST_F(StorageIdentityTest, IntraQueryParallelMatches) {
  core::QuerySpec spec = core::QuerySpec::Knn(5);
  spec.query_threads = 2;
  for (const std::string& name :
       bench::NamesWith(core::Capability::kIntraQuery)) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(mmap_.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      core::QueryResult a = on_ram->Execute(query, spec);
      core::QueryResult b = on_mmap->Execute(query, spec);
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
    }
  }
}

TEST_F(StorageIdentityTest, ColdPoolMissesWarmPoolHits) {
  auto method = bench::CreateMethod("DSTree", kLeaf);
  method->Build(mmap_.dataset());
  auto run = [&] {
    core::SearchStats total;
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      total.Add(method->Execute(query, core::QuerySpec::Knn(5)).stats);
    }
    return total;
  };
  const core::SearchStats cold = run();
  const core::SearchStats warm = run();
  EXPECT_GT(cold.pool_misses, 0);
  const auto rate = [](const core::SearchStats& s) {
    const int64_t lookups = s.pool_hits + s.pool_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(s.pool_hits) /
                              static_cast<double>(lookups);
  };
  // The pool retains pages across queries: the identical second pass
  // finds more of its working set resident.
  EXPECT_GE(rate(warm), rate(cold));
  EXPECT_LE(warm.pool_misses, cold.pool_misses);
}

// ---------------------------------------------------------------------------
// Leaf extents.

const std::vector<std::string> kContiguousLeafMethods = {"DSTree", "iSAX2+",
                                                         "SFA"};
constexpr size_t kDataBytes = kCount * kLength * sizeof(core::Value);

/// A pool of `budget` bytes whose frames hold one full leaf.
storage::StorageOptions Pooled(size_t budget) {
  storage::StorageOptions options;
  options.backend = storage::StorageBackend::kMmap;
  options.pool.budget_bytes = budget;
  options.pool.page_bytes = kLeaf * kLength * sizeof(core::Value);
  return options;
}

class LeafExtentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/hydra_leaf_extent";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/data.bin";
    const core::Dataset generated =
        gen::RandomWalkDataset(kCount, kLength, 909);
    ASSERT_TRUE(io::WriteSeriesFile(path_, generated).ok());
    workload_ = gen::RandWorkload(4, kLength, 910);
    auto ram = storage::StorageHandle::Open(path_, "ram", {});
    ASSERT_TRUE(ram.ok()) << ram.status().message();
    ram_ = std::move(ram).value();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  storage::StorageHandle OpenPooled(size_t budget) {
    auto opened = storage::StorageHandle::Open(path_, "mmap", Pooled(budget));
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    return std::move(opened).value();
  }

  /// Radius of the 5th neighbor: a range query with a non-trivial answer.
  double RadiusFor(core::SeriesView query) const {
    const auto truth = core::BruteForceKnn(ram_.dataset(), query, 5);
    return std::sqrt(truth.back().dist_sq) + 1e-6;
  }

  /// Every spec of the battery for `query`: exact, epsilon, delta-epsilon,
  /// ng, a budget that binds, and a range query.
  std::vector<core::QuerySpec> SpecsFor(core::SeriesView query) const {
    core::QuerySpec budgeted = core::QuerySpec::Knn(5);
    budgeted.max_raw_series = 100;
    return {core::QuerySpec::Knn(5),
            core::QuerySpec::Epsilon(5, 0.5),
            core::QuerySpec::DeltaEpsilon(5, 1.0, 0.2),
            core::QuerySpec::NgApprox(5),
            budgeted,
            core::QuerySpec::Range(RadiusFor(query))};
  }

  std::string dir_;
  std::string path_;
  gen::Workload workload_;
  storage::StorageHandle ram_;
};

TEST_F(LeafExtentTest, AnswersMatchRamAndMissesStayWithinTheModel) {
  for (const std::string& name : kContiguousLeafMethods) {
    SCOPED_TRACE(name);
    storage::StorageHandle pooled = OpenPooled(kDataBytes / 6);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(pooled.dataset());
    EXPECT_EQ(pooled.LeafExtentStatus(),
              "in use (" + std::to_string(kCount) + " series in 1 extent)");
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      for (const core::QuerySpec& spec : SpecsFor(query)) {
        const core::QueryResult a = on_ram->Execute(query, spec);
        const core::QueryResult b = on_mmap->Execute(query, spec);
        ExpectSameAnswers(a.neighbors, b.neighbors, name);
        // One leaf is one chunk: at most one miss per modeled access.
        EXPECT_GT(b.stats.random_seeks, 0);
        EXPECT_LE(b.stats.pool_misses, b.stats.random_seeks);
        EXPECT_EQ(b.stats.pool_misses, b.stats.pool_pread_calls);
      }
    }
  }
}

TEST_F(LeafExtentTest, ShardsTimesQueryThreadsMatchRam) {
  core::QuerySpec spec = core::QuerySpec::Knn(5);
  spec.query_threads = 2;
  for (const std::string& name : kContiguousLeafMethods) {
    SCOPED_TRACE(name);
    storage::StorageHandle pooled = OpenPooled(kDataBytes / 6);
    auto on_ram = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    auto on_mmap = bench::CreateShardedMethod(name, 3, 2, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(pooled.dataset());  // three extents, made concurrently
    EXPECT_EQ(pooled.LeafExtentStatus(),
              "in use (" + std::to_string(kCount) + " series in 3 extents)");
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      const core::QueryResult a = on_ram->Execute(query, spec);
      const core::QueryResult b = on_mmap->Execute(query, spec);
      ExpectSameAnswers(a.neighbors, b.neighbors, name);
      EXPECT_LE(b.stats.pool_misses, b.stats.random_seeks);
    }
  }
}

TEST_F(LeafExtentTest, BuildAndOpenReadTheSameExtent) {
  // The extent is not saved: Open lays it out again from the tree, so a
  // cold pool sees the same traffic, query by query, as after Build.
  const auto traffic = [&](core::SearchMethod* method) {
    std::vector<int64_t> counters;
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      for (const core::QuerySpec& spec : SpecsFor(query)) {
        const core::SearchStats s = method->Execute(query, spec).stats;
        counters.insert(counters.end(),
                        {s.pool_hits, s.pool_misses, s.pool_evictions,
                         s.pool_pread_calls, s.pool_bytes_read});
      }
    }
    return counters;
  };
  for (const std::string& name : kContiguousLeafMethods) {
    SCOPED_TRACE(name);
    const std::string index_dir = dir_ + "/index_" + name;
    std::vector<int64_t> built_traffic;
    {
      storage::StorageHandle pooled = OpenPooled(kDataBytes / 6);
      auto built = bench::CreateMethod(name, kLeaf);
      built->Build(pooled.dataset());
      ASSERT_TRUE(built->Save(index_dir).ok());
      built_traffic = traffic(built.get());
    }
    storage::StorageHandle pooled = OpenPooled(kDataBytes / 6);
    auto opened = bench::CreateMethod(name, kLeaf);
    ASSERT_TRUE(opened->Open(index_dir, pooled.dataset()).ok());
    EXPECT_EQ(pooled.LeafExtentStatus(),
              "in use (" + std::to_string(kCount) + " series in 1 extent)");
    EXPECT_EQ(traffic(opened.get()), built_traffic);
  }
}

TEST_F(LeafExtentTest, WholeFilePoolMakesNoExtent) {
  // Frames are whole pages, so a pool that holds the data holds one page
  // more than its bytes (the last page is partial).
  const size_t page_bytes = Pooled(0).pool.page_bytes;
  for (const std::string& name : kContiguousLeafMethods) {
    SCOPED_TRACE(name);
    storage::StorageHandle pooled = OpenPooled(kDataBytes + page_bytes);
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(pooled.dataset());
    EXPECT_EQ(pooled.LeafExtentStatus(),
              "not used (the pool holds the whole file)");
    EXPECT_EQ(pooled.Describe().find("leaf extent"), std::string::npos);
  }
}

TEST_F(LeafExtentTest, RebuildsKeepOneExtentAlive) {
  auto file = storage::FileDataset::Open(path_, "mmap",
                                         Pooled(kDataBytes / 6).pool);
  ASSERT_TRUE(file.ok()) << file.status().message();
  const std::unique_ptr<storage::FileDataset> data = std::move(file).value();
  std::unique_ptr<core::SearchMethod> method;
  for (int build = 0; build < 5; ++build) {
    method = bench::CreateMethod(kContiguousLeafMethods[build % 3], kLeaf);
    method->Build(data->dataset());
    EXPECT_EQ(data->pool().LeafExtentStatus(),
              "in use (" + std::to_string(kCount) + " series in 1 extent)")
        << "build " << build;
  }
  method.reset();
  EXPECT_EQ(data->pool().LeafExtentStatus(), "not used");
}

TEST_F(LeafExtentTest, UnwritableDirectoryKeepsIdReadsAndAnswers) {
  // With the data file unlinked and its directory gone, no extent can be
  // created (even as root); the open descriptor still serves by-id reads.
  storage::StorageHandle pooled = OpenPooled(kDataBytes / 6);
  ASSERT_EQ(::unlink(path_.c_str()), 0);
  ASSERT_EQ(::rmdir(dir_.c_str()), 0);
  for (const std::string& name : kContiguousLeafMethods) {
    SCOPED_TRACE(name);
    auto on_ram = bench::CreateMethod(name, kLeaf);
    auto on_mmap = bench::CreateMethod(name, kLeaf);
    on_ram->Build(ram_.dataset());
    on_mmap->Build(pooled.dataset());
    for (size_t qi = 0; qi < workload_.queries.size(); ++qi) {
      const core::SeriesView query = workload_.queries[qi];
      for (const core::QuerySpec& spec : SpecsFor(query)) {
        ExpectSameAnswers(on_ram->Execute(query, spec).neighbors,
                          on_mmap->Execute(query, spec).neighbors, name);
      }
    }
  }
  const std::string described = pooled.Describe();
  EXPECT_NE(described.find("; leaf extent unavailable, leaves read by id "
                           "(cannot create a leaf extent in " +
                           dir_),
            std::string::npos)
      << described;
}

}  // namespace
}  // namespace hydra
