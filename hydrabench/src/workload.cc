#include "workload.h"

#include <sys/resource.h>

#include <cstdio>
#include <map>
#include <thread>

#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/disk_model.h"
#include "io/series_file.h"
#include "schedule.h"
#include "util/timer.h"

namespace hydrabench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  // Why each workload exists is in BENCHMARK.json and README.md.
  static const std::vector<WorkloadSpec> kAll = {
      // 200 MB in ram, larger than the L3: index and core work.
      {"knn-ram", "DSTree", 200000, 256, false, 0, 1, 2, 256},
      // A pool of 1/6 of the data with 1 MiB pages: storage does the work.
      // At 100k series the same ratio runs ~0.6 queries/s, too slow to
      // repeat, so the data is small and the ratio is kept. One thread
      // per query: with two, four readers contend for the pool's four
      // frames and throughput swung by +-25% between runs on a 4-vCPU
      // host with CPU steal, against +-3% with one.
      {"knn-ooc", "DSTree", 25000, 256, true, size_t{4} << 20, 1, 1, 128},
      // The whole file pooled, 2 shards behind the server (traversal
      // width there is server policy).
      {"serve-open", "iSAX2+", 100000, 256, true, 0, 2, 1, 1000},
  };
  return kAll;
}

size_t PoolBytes(const WorkloadSpec& spec) {
  return spec.pool_bytes > 0 ? spec.pool_bytes
                             : spec.count * spec.length * sizeof(float) +
                                   (size_t{1} << 20);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int Prepare(const WorkloadSpec& spec, uint64_t seed, const RunFiles& files) {
  hydra::util::WallTimer timer;
  const hydra::core::Dataset data =
      hydra::gen::RandomWalkDataset(spec.count, spec.length, seed);
  const hydra::gen::Workload ctrl =
      hydra::gen::CtrlWorkload(data, spec.queries, seed + 1);
  // Ctrl noise grows with the query index; a seeded shuffle makes every
  // prefix of the file a fair mix of easy and hard queries.
  std::vector<size_t> order(ctrl.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix64 rng(seed + 2);
  Shuffle(order.data(), order.size(), &rng);
  const hydra::core::Dataset queries = [&] {
    hydra::core::Dataset shuffled("queries", spec.length);
    for (const size_t i : order) shuffled.Append(ctrl.queries[i]);
    return shuffled;
  }();
  for (const auto& [path, set] :
       {std::pair{files.data(), &data}, std::pair{files.queries(), &queries}}) {
    const hydra::util::Status written =
        hydra::io::WriteSeriesFile(path, *set);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return 1;
    }
  }
  const double generate_s = timer.Seconds();
  timer.Reset();
  const auto truth = BruteForceTopK(
      data.values().data(), data.size(), data.length(),
      queries.values().data(), queries.size(), kK,
      std::max(1u, std::thread::hardware_concurrency()));
  if (!WriteTruth(files.truth(), truth)) {
    std::fprintf(stderr, "error: cannot write %s\n", files.truth().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "prepared %s seed %llu: %zu x %zu data, %zu queries "
               "(generate %.2fs, reference %.2fs)\n",
               spec.name, static_cast<unsigned long long>(seed), spec.count,
               spec.length, spec.queries, generate_s, timer.Seconds());
  return 0;
}

bool LoadInputs(const RunFiles& files, Inputs* inputs) {
  auto queries = hydra::io::ReadSeriesFile(files.queries(), "queries");
  if (!queries.ok()) {
    std::fprintf(stderr, "error: %s\n", queries.status().message().c_str());
    return false;
  }
  inputs->queries = std::move(queries).value();
  if (!ReadTruth(files.truth(), &inputs->truth) ||
      inputs->truth.size() != inputs->queries.size()) {
    std::fprintf(stderr, "error: bad reference file %s\n",
                 files.truth().c_str());
    return false;
  }
  if (!inputs->rows.Open(files.data()) ||
      inputs->rows.length() != inputs->queries.length()) {
    std::fprintf(stderr, "error: cannot read rows of %s\n",
                 files.data().c_str());
    return false;
  }
  return true;
}

std::string CheckAnswer(const Inputs& inputs, size_t q,
                        const std::vector<AnswerNeighbor>& answer) {
  const hydra::core::SeriesView query = inputs.queries[q];
  return CompareAnswer(
      answer, inputs.truth[q],
      [&](uint64_t id) -> std::optional<double> {
        std::vector<float> row;
        if (!inputs.rows.Read(id, &row)) return std::nullopt;
        return ReferenceDistSq(row.data(), query.data(), row.size());
      });
}

hydra::storage::PoolCounters PoolDelta(
    const hydra::storage::PoolCounters& before,
    const hydra::storage::PoolCounters& after) {
  return {after.hits - before.hits, after.misses - before.misses,
          after.evictions - before.evictions,
          after.pread_calls - before.pread_calls,
          after.bytes_read - before.bytes_read};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace hydrabench

namespace hydrabench {

// Span names recorded by the workloads; each gets a self-time metric.
const std::vector<const char*>& SpanNames() {
  static const std::vector<const char*> kNames = {
      "setup",   "storage.open", "index.build", "io.save",    "io.open",
      "serve.start", "request",  "core.execute", "serve.query"};
  return kNames;
}

void AddLayerMetrics(const LayerFigures& f, RunResult* r) {
  const double n = f.executed > 0 ? static_cast<double>(f.executed) : 1.0;
  const auto per_query = [&](double total) { return total / n; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const hydra::core::SearchStats& s = f.stats;
  const double raw_bytes = static_cast<double>(s.raw_series_examined) *
                           static_cast<double>(f.series_bytes);
  r->Add("storage.open_s", f.storage_open_s, "s");
  r->Add("storage.pool_hit_ratio",
         ratio(static_cast<double>(f.pool.hits),
               static_cast<double>(f.pool.hits + f.pool.misses)),
         "ratio");
  r->Add("storage.misses_per_query",
         per_query(static_cast<double>(f.pool.misses)), "count");
  r->Add("storage.pread_mb_per_query",
         per_query(static_cast<double>(f.pool.bytes_read) / (1 << 20)),
         "MiB");
  r->Add("storage.evictions_per_query",
         per_query(static_cast<double>(f.pool.evictions)), "count");
  r->Add("storage.read_amplification",
         ratio(static_cast<double>(f.pool.bytes_read), raw_bytes), "ratio");
  r->Add("storage.miss_to_modeled_ratio",
         ratio(static_cast<double>(f.pool.misses),
               static_cast<double>(s.random_seeks)),
         "ratio");
  r->Add("index.build_s", f.build_s, "s");
  r->Add("index.mem_mb", f.mem_mb, "MiB");
  r->Add("index.raw_examined_per_query",
         per_query(static_cast<double>(s.raw_series_examined)), "count");
  r->Add("index.pruning_ratio",
         f.data_count == 0
             ? 0.0
             : 1.0 - per_query(static_cast<double>(s.raw_series_examined)) /
                         static_cast<double>(f.data_count),
         "ratio");
  r->Add("index.lb_per_query",
         per_query(static_cast<double>(s.lower_bound_computations)),
         "count");
  r->Add("index.nodes_per_query",
         per_query(static_cast<double>(s.nodes_visited)), "count");

  const std::map<std::string, SpanTotals> spans = Aggregate(f.spans);
  const auto mean_ms = [&](const char* name, bool self) {
    const auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return 1e3 * (self ? it->second.self_s : it->second.total_s) /
           static_cast<double>(it->second.count);
  };
  r->Add("core.execute_ms", mean_ms("core.execute", false), "ms");
  r->Add("core.query_cpu_s", per_query(s.cpu_seconds), "s");
  r->Add("core.distance_per_query",
         per_query(static_cast<double>(s.distance_computations)), "count");
  r->Add("io.index_open_s", f.index_open_s, "s");
  r->Add("io.index_save_s", f.save_s, "s");
  r->Add("io.index_bytes", static_cast<double>(f.index_bytes), "bytes");
  // The paper's modeled ledger, kept apart from every measured figure.
  r->Add("io.modeled_hdd_ms_per_query",
         1e3 * per_query(hydra::io::DiskModel::Hdd().QueryIoSeconds(s)),
         "ms");
  r->Add("io.modeled_ssd_ms_per_query",
         1e3 * per_query(hydra::io::DiskModel::Ssd().QueryIoSeconds(s)),
         "ms");
  r->Add("io.modeled_random_per_query",
         per_query(static_cast<double>(s.random_seeks)), "count");
  r->Add("serve_p50_ms", f.serve_p50_ms, "ms");
  r->Add("serve_p95_ms", f.serve_p95_ms, "ms");
  r->Add("serve_max_qps", f.serve_max_qps, "1/s");
  r->Add("failed_ratio",
         ratio(static_cast<double>(f.failed), static_cast<double>(f.attempted)),
         "ratio");
  r->Add("serve.start_s", f.serve_start_s, "s");
  r->Add("serve.cache_hit_ratio", f.cache_hit_ratio, "ratio");
  r->Add("serve.cache_planned_hit_ratio", f.cache_planned_hit_ratio, "ratio");
  r->Add("serve.hit_rtt_p50_ms", f.hit_rtt_p50_ms, "ms");
  r->Add("serve.overhead_p50_ms", f.overhead_p50_ms, "ms");
  r->Add("serve.rejected", static_cast<double>(f.rejected), "count");
  r->Add("loadgen.late_p95_ms", f.late_p95_ms, "ms");
  r->Add("trace.overhead_ratio", f.trace_overhead_ratio, "ratio");
  int64_t span_count = 0;
  for (const ThreadSpans& t : f.spans) {
    span_count += static_cast<int64_t>(t.spans.size());
  }
  r->Add("trace.spans", static_cast<double>(span_count), "count");
  for (const char* name : SpanNames()) {
    r->Add(std::string("self_ms.") + name, mean_ms(name, true), "ms");
  }
}

}  // namespace hydrabench
