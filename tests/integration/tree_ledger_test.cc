// Ledger pin for the tree methods' query plans: DSTree, iSAX2+, SFA and
// R*-tree × {exact, epsilon, delta-epsilon, ng, raw budget, leaf budget,
// range}, single-threaded under the scalar kernel set on a fixed seeded
// dataset. Each case asserts the work counters summed over the workload,
// how many queries a budget stopped, and a hash of every answer id, so a
// change to a traversal's seeding, pruning, leaf accounting or stopping
// rule shows up here even when the answers survive it. A second case
// sends the ng descents down their fallback paths and checks that the
// bounds they compute there are charged.
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/simd/kernels.h"
#include "gen/realistic.h"
#include "gen/workload.h"

namespace hydra {
namespace {

// Restores the process-wide kernel selection even when a test fails.
class KernelGuard {
 public:
  KernelGuard() : prior_(&core::simd::ActiveKernels()) {}
  ~KernelGuard() { (void)core::simd::UseKernels(prior_->name); }

 private:
  const core::simd::KernelSet* prior_;
};

// One case's ledger, summed over the workload's queries.
struct Ledger {
  int64_t nodes = 0;
  int64_t lower_bounds = 0;
  int64_t distances = 0;
  int64_t raw = 0;
  int64_t sequential = 0;
  int64_t seeks = 0;
  int64_t bytes = 0;
  int64_t budget_fired = 0;
  uint64_t ids = 0;  // FNV-1a over every query's answer ids in rank order

  bool operator==(const Ledger&) const = default;
};

std::string Format(const Ledger& l) {
  return "{" + std::to_string(l.nodes) + ", " +
         std::to_string(l.lower_bounds) + ", " + std::to_string(l.distances) +
         ", " + std::to_string(l.raw) + ", " + std::to_string(l.sequential) +
         ", " + std::to_string(l.seeks) + ", " + std::to_string(l.bytes) +
         ", " + std::to_string(l.budget_fired) + ", " +
         std::to_string(l.ids) + "u}";
}

struct Case {
  const char* method;
  const char* plan;
  Ledger want;
};

constexpr size_t kK = 5;

core::QuerySpec SpecFor(const std::string& plan, double radius) {
  if (plan == "exact") return core::QuerySpec::Knn(kK);
  if (plan == "epsilon") return core::QuerySpec::Epsilon(kK, 0.5);
  if (plan == "delta-epsilon") {
    return core::QuerySpec::DeltaEpsilon(kK, 0.5, 0.9);
  }
  // A delta small enough that the leaf-visit stopping rule binds.
  if (plan == "delta-cap") return core::QuerySpec::DeltaEpsilon(kK, 0.5, 0.02);
  if (plan == "ng") return core::QuerySpec::NgApprox(kK);
  if (plan == "range") return core::QuerySpec::Range(radius);
  core::QuerySpec spec = core::QuerySpec::Knn(kK);
  if (plan == "max-raw") spec.max_raw_series = 200;
  if (plan == "max-leaves") spec.max_visited_leaves = 3;
  return spec;
}

// Each row is a method's query plan in numbers: a refactor of the search
// driver must reproduce it exactly, and a deliberate plan change updates
// it with the reason.
const Case kCases[] = {
    {"DSTree", "exact",
     {393, 442, 7416, 7416, 7416, 166, 3796992, 0, 8087484938659159241u}},
    {"DSTree", "epsilon",
     {260, 286, 4920, 4920, 4920, 111, 2519040, 0, 8087484938659159241u}},
    {"DSTree", "delta-epsilon",
     {260, 286, 4920, 4920, 4920, 111, 2519040, 0, 8087484938659159241u}},
    {"DSTree", "delta-cap",
     {78, 108, 567, 567, 567, 12, 290304, 0, 10248162865560679912u}},
    {"DSTree", "ng",
     {6, 0, 280, 280, 280, 6, 143360, 0, 16351027026773512663u}},
    {"DSTree", "max-raw",
     {112, 150, 1200, 1200, 1337, 31, 684544, 6, 12399590851925841614u}},
    {"DSTree", "max-leaves",
     {95, 130, 812, 812, 812, 18, 415744, 6, 1031017831913228927u}},
    {"DSTree", "range",
     {276, 328, 5068, 5068, 5068, 115, 2594816, 0, 7032597206077105357u}},
    {"iSAX2+", "exact",
     {4051, 7282, 9931, 9931, 9931, 4025, 5084672, 0, 8087484938659159241u}},
    {"iSAX2+", "epsilon",
     {1701, 7266, 5094, 5094, 5094, 1683, 2608128, 0, 8087484938659159241u}},
    {"iSAX2+", "delta-epsilon",
     {1701, 7266, 5094, 5094, 5094, 1683, 2608128, 0, 8087484938659159241u}},
    {"iSAX2+", "delta-cap",
     {167, 7252, 1102, 1102, 1102, 150, 564224, 0, 8087484938659159241u}},
    {"iSAX2+", "ng",
     {6, 0, 50, 50, 50, 6, 25600, 0, 6867390331561287177u}},
    {"iSAX2+", "max-raw",
     {248, 7252, 1200, 1200, 1292, 237, 661504, 6, 8087484938659159241u}},
    {"iSAX2+", "max-leaves",
     {32, 7246, 318, 318, 318, 18, 162816, 6, 2701245838428741280u}},
    {"iSAX2+", "range",
     {2589, 7262, 5965, 5965, 5965, 2579, 3054080, 0, 7032597206077105357u}},
    {"SFA", "exact",
     {356, 509, 6534, 6534, 6534, 286, 3345408, 0, 8087484938659159241u}},
    {"SFA", "epsilon",
     {241, 407, 4363, 4363, 4363, 184, 2233856, 0, 8087484938659159241u}},
    {"SFA", "delta-epsilon",
     {241, 407, 4363, 4363, 4363, 184, 2233856, 0, 8087484938659159241u}},
    {"SFA", "delta-cap",
     {54, 192, 656, 656, 656, 18, 335872, 0, 2691346062565429277u}},
    {"SFA", "ng",
     {6, 0, 227, 227, 227, 6, 116224, 0, 3663612475180406714u}},
    {"SFA", "max-raw",
     {72, 216, 1200, 1200, 1301, 39, 666112, 6, 8884343620945540250u}},
    {"SFA", "max-leaves",
     {54, 192, 656, 656, 656, 18, 335872, 6, 2691346062565429277u}},
    {"SFA", "range",
     {247, 397, 4647, 4647, 4647, 198, 2379264, 0, 7032597206077105357u}},
    // R*-tree has no delta-epsilon mode and no ng descent (ng runs as
    // exact, its documented fallback).
    {"R*-tree", "exact",
     {275, 11680, 1653, 1653, 1653, 1906, 846336, 0, 8087484938659159241u}},
    {"R*-tree", "epsilon",
     {194, 8106, 251, 251, 251, 426, 128512, 0, 2288902975774237790u}},
    {"R*-tree", "ng",
     {275, 11680, 1653, 1653, 1653, 1906, 846336, 0, 8087484938659159241u}},
    {"R*-tree", "max-raw",
     {149, 6157, 802, 802, 802, 932, 410624, 3, 3498443226520300546u}},
    {"R*-tree", "max-leaves",
     {38, 1112, 426, 426, 426, 442, 218112, 6, 14328938917638601014u}},
    {"R*-tree", "range",
     {181, 7559, 968, 968, 968, 1130, 495616, 0, 7032597206077105357u}},
};

TEST(TreeLedger, CountersAndAnswersMatchThePinnedPlans) {
  KernelGuard guard;
  ASSERT_TRUE(core::simd::UseKernels("scalar").ok());
  const core::Dataset data = gen::MakeDataset("synth", 3000, 128, 8080);
  const gen::Workload w = gen::CtrlWorkload(data, 6, 8081, 0.05, 0.8);
  std::vector<double> radii;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto nn = core::BruteForceKnn(data, w.queries[q], 1);
    radii.push_back(1.2 * std::sqrt(nn.front().dist_sq));
  }

  std::string built;
  std::unique_ptr<core::SearchMethod> method;
  for (const Case& c : kCases) {
    if (built != c.method) {
      method = bench::CreateMethod(c.method, 64);
      method->Build(data);
      built = c.method;
    }
    Ledger got;
    got.ids = 1469598103934665603ull;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult r =
          method->Execute(w.queries[q], SpecFor(c.plan, radii[q]));
      got.nodes += r.stats.nodes_visited;
      got.lower_bounds += r.stats.lower_bound_computations;
      got.distances += r.stats.distance_computations;
      got.raw += r.stats.raw_series_examined;
      got.sequential += r.stats.sequential_reads;
      got.seeks += r.stats.random_seeks;
      got.bytes += r.stats.bytes_read;
      got.budget_fired += r.stats.budget_exhausted ? 1 : 0;
      for (const core::Neighbor& n : r.neighbors) {
        got.ids = (got.ids ^ n.id) * 1099511628211ull;
      }
    }
    EXPECT_EQ(got, c.want) << c.method << " " << c.plan
                           << " ledger: " << Format(got);
  }
}

// Queries whose ng descent finds no covering path, so it falls back to
// bounding the candidates and must charge every bound it computes:
//   - iSAX2+: a square wave flipping sign every 8 points; no series
//     shares its first-level word.
//   - SFA: one low-frequency sinusoid; at some depth its word's slot is
//     empty, so the descent detours through the closest non-empty slot.
TEST(TreeLedger, NgFallbackDescentsChargeTheirBounds) {
  KernelGuard guard;
  ASSERT_TRUE(core::simd::UseKernels("scalar").ok());
  const core::Dataset data = gen::MakeDataset("synth", 3000, 128, 8080);
  const size_t n = data.length();
  std::vector<core::Value> square(n), sinusoid(n);
  for (size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) / n;
    square[t] = (t / 8) % 2 == 0 ? 1.0f : -1.0f;
    sinusoid[t] = static_cast<core::Value>(-2.0 * std::cos(phase) -
                                           2.5 * std::sin(phase));
  }
  const std::pair<const char*, const std::vector<core::Value>*> cases[] = {
      {"iSAX2+", &square}, {"SFA", &sinusoid}};
  for (const auto& [name, query] : cases) {
    const std::unique_ptr<core::SearchMethod> method =
        bench::CreateMethod(name, 64);
    method->Build(data);
    const core::QueryResult r =
        method->Execute(*query, core::QuerySpec::NgApprox(kK));
    EXPECT_GT(r.stats.lower_bound_computations, 0) << name;
    EXPECT_EQ(r.stats.nodes_visited, 1) << name;
    EXPECT_FALSE(r.neighbors.empty()) << name;
  }
}

}  // namespace
}  // namespace hydra
