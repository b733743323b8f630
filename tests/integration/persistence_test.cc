// The Build / Save / Open lifecycle contract for every persistent method:
// an opened index answers every supported QuerySpec mode bit-identically
// (ids, distances, and work counters) to the freshly built one, its
// footprint reconciles with the built index and the serialized bytes with
// the file on disk, serialization is deterministic, corrupt or mismatched
// index files fail with a clean error status (never a CHECK abort), and
// lifecycle misuse (Save before Build, double Open) dies loudly.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/index_codec.h"

namespace hydra {
namespace {

constexpr size_t kCount = 600;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;

core::Dataset TestData() {
  return gen::RandomWalkDataset(kCount, kLength, 9301);
}
gen::Workload TestQueries() { return gen::RandWorkload(5, kLength, 9302); }

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every QuerySpec shape the method's traits advertise, including a
/// budgeted spec and an exact range query.
std::vector<core::QuerySpec> SpecBattery(const core::MethodTraits& traits) {
  std::vector<core::QuerySpec> specs;
  specs.push_back(core::QuerySpec::Knn(5));
  if (traits.Has(core::Capability::kNgApprox)) {
    specs.push_back(core::QuerySpec::NgApprox(3));
  }
  if (traits.Has(core::Capability::kEpsilon)) {
    specs.push_back(core::QuerySpec::Epsilon(5, 0.5));
  }
  if (traits.Has(core::Capability::kDeltaEpsilon)) {
    specs.push_back(core::QuerySpec::DeltaEpsilon(5, 0.5, 0.5));
  }
  core::QuerySpec budgeted = core::QuerySpec::Knn(5);
  budgeted.max_raw_series = 50;
  specs.push_back(budgeted);
  specs.push_back(core::QuerySpec::Range(8.0));
  return specs;
}

/// Answers the whole battery for the whole workload, in a fixed order
/// (ADS+ adapts during queries, so the execution order is part of the
/// contract being compared).
std::vector<core::QueryResult> RunBattery(core::SearchMethod* method,
                                          const gen::Workload& workload) {
  std::vector<core::QueryResult> results;
  for (const core::QuerySpec& spec : SpecBattery(method->traits())) {
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      results.push_back(method->Execute(workload.queries[q], spec));
    }
  }
  return results;
}

void ExpectBitIdentical(const core::QueryResult& a, const core::QueryResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << context;
    EXPECT_EQ(a.neighbors[i].dist_sq, b.neighbors[i].dist_sq) << context;
  }
  // Everything stats-relevant except measured wall-clock time.
  EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations)
      << context;
  EXPECT_EQ(a.stats.raw_series_examined, b.stats.raw_series_examined)
      << context;
  EXPECT_EQ(a.stats.lower_bound_computations,
            b.stats.lower_bound_computations)
      << context;
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << context;
  EXPECT_EQ(a.stats.sequential_reads, b.stats.sequential_reads) << context;
  EXPECT_EQ(a.stats.random_seeks, b.stats.random_seeks) << context;
  EXPECT_EQ(a.stats.bytes_read, b.stats.bytes_read) << context;
  EXPECT_EQ(a.stats.answer_mode_delivered, b.stats.answer_mode_delivered)
      << context;
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted) << context;
}

void ExpectSameFootprint(const core::Footprint& a, const core::Footprint& b,
                         const std::string& context) {
  EXPECT_EQ(a.total_nodes, b.total_nodes) << context;
  EXPECT_EQ(a.leaf_nodes, b.leaf_nodes) << context;
  EXPECT_EQ(a.memory_bytes, b.memory_bytes) << context;
  EXPECT_EQ(a.disk_bytes, b.disk_bytes) << context;
  EXPECT_EQ(a.leaf_fill_fractions, b.leaf_fill_fractions) << context;
  EXPECT_EQ(a.leaf_depths, b.leaf_depths) << context;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(PersistenceRoundTrip, OpenedIndexAnswersBitIdentically) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  int ordinal = 0;
  for (const std::string& name :
       bench::NamesWith(core::Capability::kPersistence)) {
    const std::string dir =
        FreshDir("roundtrip_" + std::to_string(ordinal++));
    auto built = bench::CreateMethod(name, kLeaf);
    built->Build(data);
    const auto saved = built->Save(dir);
    ASSERT_TRUE(saved.ok()) << name << ": " << saved.status().message();
    // The reported byte count reconciles with the real file.
    EXPECT_EQ(static_cast<uint64_t>(saved.value()),
              std::filesystem::file_size(io::IndexFilePath(dir)))
        << name;
    const core::Footprint built_fp = built->footprint();

    // Open into a *differently configured* instance: the persisted
    // options must win, or a replica with other defaults would answer
    // from a different tree shape.
    auto opened = bench::CreateMethod(name);
    const auto open_stats = opened->Open(dir, data);
    ASSERT_TRUE(open_stats.ok()) << name << ": "
                                 << open_stats.status().message();
    EXPECT_TRUE(opened->built()) << name;
    EXPECT_EQ(open_stats.value().cpu_seconds, 0.0) << name;
    EXPECT_EQ(open_stats.value().bytes_read, saved.value()) << name;
    ExpectSameFootprint(opened->footprint(), built_fp, name);

    const auto built_answers = RunBattery(built.get(), workload);
    const auto opened_answers = RunBattery(opened.get(), workload);
    ASSERT_EQ(built_answers.size(), opened_answers.size()) << name;
    for (size_t i = 0; i < built_answers.size(); ++i) {
      ExpectBitIdentical(built_answers[i], opened_answers[i],
                         name + " battery entry " + std::to_string(i));
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(PersistenceRoundTrip, SerializationIsDeterministic) {
  // Saving the same built index twice — and re-saving an opened copy —
  // must produce byte-identical files: replicas built from one master
  // index are interchangeable.
  const core::Dataset data = TestData();
  for (const std::string& name :
       bench::NamesWith(core::Capability::kPersistence)) {
    auto built = bench::CreateMethod(name, kLeaf);
    built->Build(data);
    const std::string dir_a = FreshDir("det_a");
    const std::string dir_b = FreshDir("det_b");
    ASSERT_TRUE(built->Save(dir_a).ok()) << name;
    ASSERT_TRUE(built->Save(dir_b).ok()) << name;
    EXPECT_EQ(FileContents(io::IndexFilePath(dir_a)),
              FileContents(io::IndexFilePath(dir_b)))
        << name;
    auto opened = bench::CreateMethod(name);
    ASSERT_TRUE(opened->Open(dir_a, data).ok()) << name;
    const std::string dir_c = FreshDir("det_c");
    ASSERT_TRUE(opened->Save(dir_c).ok()) << name;
    EXPECT_EQ(FileContents(io::IndexFilePath(dir_a)),
              FileContents(io::IndexFilePath(dir_c)))
        << name;
    for (const auto& dir : {dir_a, dir_b, dir_c}) {
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(PersistenceErrors, CorruptionFailsWithCleanStatus) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("DSTree", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE(built->Save(dir).ok());
  const std::string file = io::IndexFilePath(dir);
  const std::string good = FileContents(file);

  // Flip one payload byte: a checksum error, reported as such.
  std::string bad = good;
  bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0xFF);
  { std::ofstream(file, std::ios::binary) << bad; }
  auto flipped = bench::CreateMethod("DSTree")->Open(dir, data);
  ASSERT_FALSE(flipped.ok());
  EXPECT_NE(flipped.status().message().find("checksum"), std::string::npos)
      << flipped.status().message();

  // Truncate: a clean failure, not a crash.
  { std::ofstream(file, std::ios::binary) << good.substr(0, good.size() / 3); }
  auto truncated = bench::CreateMethod("DSTree")->Open(dir, data);
  EXPECT_FALSE(truncated.ok());

  // Future format version (right after the 8-byte magic, outside any
  // checksum): reported as a version error.
  std::string future = good;
  future[8] = static_cast<char>(future[8] + 1);
  { std::ofstream(file, std::ios::binary) << future; }
  auto versioned = bench::CreateMethod("DSTree")->Open(dir, data);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("version"), std::string::npos)
      << versioned.status().message();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, MismatchesAreRefused) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("SFA", kLeaf);
  built->Build(data);
  const std::string dir = FreshDir("mismatch");
  ASSERT_TRUE(built->Save(dir).ok());

  // A different collection (the fingerprint stores count/length/bytes).
  const core::Dataset other = gen::RandomWalkDataset(kCount / 2, kLength, 1);
  auto wrong_data = bench::CreateMethod("SFA")->Open(dir, other);
  ASSERT_FALSE(wrong_data.ok());
  EXPECT_NE(wrong_data.status().message().find("fingerprint"),
            std::string::npos)
      << wrong_data.status().message();

  // A different method.
  auto wrong_method = bench::CreateMethod("DSTree")->Open(dir, data);
  EXPECT_FALSE(wrong_method.ok());

  // A missing index directory.
  auto missing = bench::CreateMethod("SFA")->Open(FreshDir("nowhere"), data);
  EXPECT_FALSE(missing.ok());
  std::filesystem::remove_all(dir);
}

TEST(PersistenceErrors, ScansRefuseSaveAndOpenHonestly) {
  const core::Dataset data = TestData();
  for (const std::string name : {"UCR-Suite", "MASS", "Stepwise"}) {
    auto scan = bench::CreateMethod(name);
    scan->Build(data);
    const auto saved = scan->Save(FreshDir("scan_save"));
    ASSERT_FALSE(saved.ok()) << name;
    EXPECT_NE(saved.status().message().find("persisted index"),
              std::string::npos)
        << saved.status().message();
    auto fresh = bench::CreateMethod(name);
    EXPECT_FALSE(fresh->Open(FreshDir("scan_open"), data).ok()) << name;
  }
}

TEST(PersistenceHarness, RunMethodFromIndexSkipsBuild) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  auto built = bench::CreateMethod("VA+file");
  const bench::MethodRun fresh =
      bench::RunMethod(built.get(), data, workload, /*k=*/3);
  const std::string dir = FreshDir("harness");
  ASSERT_TRUE(built->Save(dir).ok());

  auto reopened = bench::CreateMethod("VA+file");
  const auto run = bench::RunMethodFromIndex(reopened.get(), dir, data,
                                             workload, /*k=*/3);
  ASSERT_TRUE(run.ok()) << run.status().message();
  // Load time is recorded separately; no build time is charged.
  EXPECT_EQ(run.value().build.cpu_seconds, 0.0);
  EXPECT_GE(run.value().build.load_seconds, 0.0);
  ASSERT_EQ(run.value().nn_dists_sq.size(), fresh.nn_dists_sq.size());
  for (size_t i = 0; i < fresh.nn_dists_sq.size(); ++i) {
    EXPECT_EQ(run.value().nn_dists_sq[i], fresh.nn_dists_sq[i]);
  }
  // And the error path surfaces as a status, not an abort.
  auto broken = bench::CreateMethod("VA+file");
  EXPECT_FALSE(
      bench::RunMethodFromIndex(broken.get(), FreshDir("gone"), data,
                                workload, 3)
          .ok());
  std::filesystem::remove_all(dir);
}

using PersistenceDeathTest = ::testing::Test;

TEST(PersistenceDeathTest, SaveBeforeBuildDies) {
  auto method = bench::CreateMethod("DSTree");
  EXPECT_DEATH(method->Save(FreshDir("premature")).ok(),
               "Save requires a built method");
}

TEST(PersistenceDeathTest, DoubleOpenDies) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("VA+file");
  built->Build(data);
  const std::string dir = FreshDir("double_open");
  ASSERT_TRUE(built->Save(dir).ok());
  auto opened = bench::CreateMethod("VA+file");
  ASSERT_TRUE(opened->Open(dir, data).ok());
  EXPECT_DEATH(opened->Open(dir, data).ok(), "never double-open");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceDeathTest, OpenAfterBuildDies) {
  const core::Dataset data = TestData();
  auto built = bench::CreateMethod("VA+file");
  built->Build(data);
  const std::string dir = FreshDir("open_after_build");
  ASSERT_TRUE(built->Save(dir).ok());
  EXPECT_DEATH(built->Open(dir, data).ok(), "requires an unbuilt method");
  std::filesystem::remove_all(dir);
}

TEST(PersistenceDeathTest, DoubleBuildDies) {
  const core::Dataset data = TestData();
  auto method = bench::CreateMethod("UCR-Suite");
  method->Build(data);
  EXPECT_DEATH(method->Build(data), "already built");
}

}  // namespace
}  // namespace hydra
