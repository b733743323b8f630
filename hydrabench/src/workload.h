// The benchmark's three workloads and what they share: their fixed
// shapes, the prepare step (seeded data, queries and reference answers
// written to the run directory), and the metric list each run prints.
#ifndef HYDRABENCH_WORKLOAD_H_
#define HYDRABENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/search_stats.h"
#include "reference.h"
#include "series_io.h"
#include "spans.h"
#include "storage/buffer_pool.h"

namespace hydrabench {

/// k of every query (exact k-NN).
inline constexpr size_t kK = 10;

struct WorkloadSpec {
  const char* name;
  /// Index method, by its paper name.
  const char* method;
  size_t count;
  size_t length;
  /// mmap storage (buffer pool) instead of ram.
  bool mmap;
  /// Pool budget for mmap storage; 0 = the whole file.
  size_t pool_bytes;
  /// Shards of the served container (serve workloads).
  size_t shards;
  /// Traversal threads per query of the knn closed loop.
  size_t query_threads;
  /// Distinct queries generated and checked against the reference.
  size_t queries;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// The buffer-pool budget of an mmap workload: its pool_bytes, or the
/// whole data file plus one page of slack.
size_t PoolBytes(const WorkloadSpec& spec);
const WorkloadSpec* FindWorkload(const std::string& name);

/// Files of one prepared run, under its run directory.
struct RunFiles {
  std::string dir;
  std::string data() const { return dir + "/data.bin"; }
  std::string queries() const { return dir + "/queries.bin"; }
  std::string truth() const { return dir + "/truth.bin"; }
  std::string index() const { return dir + "/index"; }
  std::string spans() const { return dir + "/spans.json"; }
};

/// Generates the workload's data (synth random walks) and Ctrl queries
/// from `seed`, writes them as hydra series files, and computes the
/// reference answers. Returns 0 on success, else prints and returns 1.
int Prepare(const WorkloadSpec& spec, uint64_t seed, const RunFiles& files);

/// Inputs of a measuring run, loaded from a prepared run directory.
struct Inputs {
  hydra::core::Dataset queries;
  std::vector<std::vector<TrueNeighbor>> truth;
  RowReader rows;
};
bool LoadInputs(const RunFiles& files, Inputs* inputs);

/// Checks one answer against the reference for query `q`; "" when right.
std::string CheckAnswer(const Inputs& inputs, size_t q,
                        const std::vector<AnswerNeighbor>& answer);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a measuring run reports; main prints it as the result line. The
/// run is correct when nothing failed.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// First wrong answer or failure, for the log.
  std::string first_error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked request; a non-empty `error` counts it failed.
  /// Not thread-safe: callers serialize.
  void Record(const std::string& error) {
    ++attempted;
    if (!error.empty()) Fail(error);
  }
  /// A failure that is not one request (set-up, an invalid phase, ...).
  void Fail(const std::string& error) {
    ++failed;
    if (first_error.empty()) first_error = error;
  }
};

struct MeasureOptions {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up is repeated and setup_s is the median: at least kMinSetups
/// times, and more (up to kMaxSetups) until kSetupSeconds have been spent,
/// so a fast set-up is sampled often enough to have a steady median.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 15;
inline constexpr double kSetupSeconds = 2.0;
inline bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  const int reps = static_cast<int>(setup_s.size());
  return reps < kMinSetups || (reps < kMaxSetups && total < kSetupSeconds);
}

RunResult MeasureKnn(const WorkloadSpec& spec, const RunFiles& files,
                     const MeasureOptions& options);
RunResult MeasureServe(const WorkloadSpec& spec, const RunFiles& files,
                       const MeasureOptions& options);

/// Raw figures behind the per-layer metrics. Zero where a workload does
/// not use a layer (the "none" workloads of each metric).
struct LayerFigures {
  double storage_open_s = 0.0;
  /// Measured pool counters over the timed queries.
  hydra::storage::PoolCounters pool;
  /// Queries the index executed in the timed window, and their summed
  /// ledgers (counters from SearchStats; pool fields unused here).
  int64_t executed = 0;
  hydra::core::SearchStats stats;
  size_t data_count = 0;
  size_t series_bytes = 0;
  double build_s = 0.0;
  double mem_mb = 0.0;
  double index_open_s = 0.0;
  double save_s = 0.0;
  int64_t index_bytes = 0;
  double serve_start_s = 0.0;
  /// The open-loop view of serve-open (see serve_workload.cc).
  double serve_p50_ms = 0.0;
  double serve_p95_ms = 0.0;
  double serve_max_qps = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double cache_hit_ratio = 0.0;
  double cache_planned_hit_ratio = 0.0;
  double hit_rtt_p50_ms = 0.0;
  double overhead_p50_ms = 0.0;
  int64_t rejected = 0;
  double late_p95_ms = 0.0;
  double trace_overhead_ratio = 0.0;
  std::vector<ThreadSpans> spans;
};

/// Appends every per-layer metric, in BENCHMARK.json order.
void AddLayerMetrics(const LayerFigures& figures, RunResult* result);

/// Pool counters accumulated between two snapshots.
hydra::storage::PoolCounters PoolDelta(
    const hydra::storage::PoolCounters& before,
    const hydra::storage::PoolCounters& after);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace hydrabench

#endif  // HYDRABENCH_WORKLOAD_H_
