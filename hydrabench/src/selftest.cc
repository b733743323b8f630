// Self-tests of the benchmark's pure helpers; `hydrabench selftest` runs
// them, and every benchmark run does so first.
#include "selftest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "reference.h"
#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace hydrabench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 199; ++i) samples.push_back(i);
  Expect(!Percentile(samples, 0.95).has_value(),
         "p95 of 199 samples is refused (fewer than 10 beyond it)");
  samples.push_back(200);
  const auto p95 = Percentile(samples, 0.95);
  Expect(p95.has_value() && *p95 == 190.0, "p95 of 1..200 is 190");
  Expect(MinSamplesFor(0.5) == 20 && MinSamplesFor(0.95) == 200,
         "sample minimums for p50 and p95");
  std::vector<double> with_failure(19, 1.0);
  with_failure.push_back(INFINITY);
  const auto p50 = Percentile(with_failure, 0.5);
  Expect(p50.has_value() && *p50 == 1.0, "p50 with one failed request");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void TestSelfTime() {
  // parent [0,100]: children [10,30] and [20,50] overlap, [90,120] is
  // clipped at 100, and a grandchild [12,18] must not count again.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 7}, {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},       {"c", 90, 120, 0, 7},
      {"grand", 12, 18, 1, 7},
  };
  const std::vector<double> self = SelfSeconds(spans);
  Expect(std::fabs(self[0] - 50e-9) < 1e-15, "parent self time 50ns");
  Expect(std::fabs(self[1] - 14e-9) < 1e-15, "child a self time 14ns");
  Expect(std::fabs(self[3] - 30e-9) < 1e-15, "leaf span self = duration");
  ThreadSpans t{0, spans};
  const auto totals = Aggregate({t, t});
  Expect(totals.at("parent").count == 2 &&
             std::fabs(totals.at("parent").self_s - 100e-9) < 1e-15,
         "aggregate sums self time over threads");

  SpanLog log(true);
  {
    ScopedSpan outer(&log, "outer", 42);
    ScopedSpan inner(&log, "inner");
  }
  const auto collected = log.Collect();
  Expect(collected.size() == 1 && collected[0].spans.size() == 2 &&
             collected[0].spans[1].parent == 0 &&
             collected[0].spans[1].request_id == 42,
         "nested ScopedSpan records parent and inherits request id");
  SpanLog off(false);
  { ScopedSpan s(&off, "x"); }
  Expect(off.Collect().empty(), "disabled log records nothing");
}

void TestScheduleDeterminism() {
  const Schedule a = BuildSchedule(11, 30.0, 20.0, 0.5, 1.0);
  const Schedule b = BuildSchedule(11, 30.0, 20.0, 0.5, 1.0);
  const Schedule c = BuildSchedule(12, 30.0, 20.0, 0.5, 1.0);
  bool same = a.arrivals.size() == b.arrivals.size();
  for (size_t i = 0; same && i < a.arrivals.size(); ++i) {
    same = a.arrivals[i].due_s == b.arrivals[i].due_s &&
           a.arrivals[i].query == b.arrivals[i].query &&
           a.arrivals[i].repeat == b.arrivals[i].repeat;
  }
  Expect(same, "same seed gives the same schedule");
  Expect(c.arrivals.size() != a.arrivals.size() ||
             c.arrivals[0].due_s != a.arrivals[0].due_s,
         "another seed gives another schedule");
  Expect(a.arrivals.size() > 450 && a.arrivals.size() < 750,
         "about rate x duration arrivals");
  std::map<uint32_t, double> first_due;
  bool gaps_ok = true;
  double last = 0.0;
  for (const Arrival& x : a.arrivals) {
    gaps_ok = gaps_ok && x.due_s >= last;
    last = x.due_s;
    if (!x.repeat) {
      gaps_ok = gaps_ok && first_due.count(x.query) == 0 &&
                x.query == first_due.size();
      first_due[x.query] = x.due_s;
    } else {
      gaps_ok = gaps_ok && first_due.count(x.query) == 1 &&
                x.due_s - first_due[x.query] >= 1.0;
    }
  }
  Expect(gaps_ok,
         "fresh queries are new and in order; repeats are >= gap old");
  const double repeats = static_cast<double>(std::count_if(
      a.arrivals.begin(), a.arrivals.end(),
      [](const Arrival& x) { return x.repeat; }));
  Expect(std::fabs(repeats / static_cast<double>(a.arrivals.size()) - 0.5) <
             0.07,
         "the share of repeats is near the repeat share");
}

void TestComparator() {
  const std::vector<TrueNeighbor> truth = {{1, 1.0}, {2, 2.0}, {3, 3.0}};
  const auto exact = [](uint64_t id) -> std::optional<double> {
    if (id == 4) return 3.0;  // ties the k-th
    if (id == 5) return 3.5;  // does not
    return std::nullopt;
  };
  Expect(CompareAnswer({{1, 1.0}, {2, 2.0}, {3, 3.0}}, truth, exact).empty(),
         "exact answer passes");
  Expect(CompareAnswer({{1, 1.0}, {2, 2.0}, {4, 3.0}}, truth, exact).empty(),
         "a tie at the k-th distance passes");
  Expect(CompareAnswer({{1, 1.0}, {2, 2.0}, {3, 3.0 * (1 + 1e-9)}}, truth,
                       exact)
             .empty(),
         "rounding within tolerance passes");
  Expect(!CompareAnswer({{1, 1.0}, {2, 2.0}, {5, 3.0}}, truth, exact).empty(),
         "a non-tie claiming the k-th distance fails");
  Expect(!CompareAnswer({{1, 1.0}, {2, 2.0}, {2, 3.0}}, truth, exact).empty(),
         "a duplicated id fails");
  Expect(!CompareAnswer({{1, 1.0}, {2, 2.0}, {3, 3.1}}, truth, exact).empty(),
         "a wrong distance fails");
  Expect(!CompareAnswer({{1, 1.0}, {2, 2.0}}, truth, exact).empty(),
         "a short answer fails");
  Expect(!CompareAnswer({{1, 1.0}, {2, 2.0}, {9, 3.0}}, truth, exact).empty(),
         "an id that is no series fails");
}

void TestBruteForce() {
  // Rows 0..39 of a tiny set, with rows 7 and 23 identical (a tie).
  const size_t n = 40, len = 5;
  std::vector<float> data(n * len);
  SplitMix64 rng(3);
  for (float& v : data) v = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
  for (size_t j = 0; j < len; ++j) data[23 * len + j] = data[7 * len + j];
  std::vector<float> queries(data.begin() + 7 * len, data.begin() + 8 * len);
  queries[0] += 0.25f;
  const auto top = BruteForceTopK(data.data(), n, len, queries.data(), 1, 4,
                                  2);
  Expect(top.size() == 1 && top[0].size() == 4, "top-k shape");
  Expect(top[0][0].id == 7 && top[0][1].id == 23 &&
             top[0][0].dist_sq == top[0][1].dist_sq,
         "ties ordered by id");
  bool sorted = true;
  for (size_t i = 1; i < top[0].size(); ++i) {
    sorted = sorted && top[0][i - 1].dist_sq <= top[0][i].dist_sq;
  }
  Expect(sorted, "ascending distances");
  double best_other = INFINITY;
  for (size_t r = 0; r < n; ++r) {
    if (r == 7 || r == 23 || r == top[0][2].id || r == top[0][3].id) continue;
    best_other = std::min(
        best_other, ReferenceDistSq(&data[r * len], queries.data(), len));
  }
  Expect(best_other >= top[0][3].dist_sq, "no closer row left out");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentileRule();
  TestSelfTime();
  TestScheduleDeterminism();
  TestComparator();
  TestBruteForce();
  if (failures == 0) std::fprintf(stderr, "selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace hydrabench
