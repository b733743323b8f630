// knn-ram / knn-ooc: a closed loop of in-process clients calling
// SearchMethod::Execute on an index built at set-up.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench/registry.h"
#include "core/method.h"
#include "schedule.h"
#include "stats.h"
#include "storage/backend.h"
#include "workload.h"

namespace hydrabench {
namespace {

constexpr size_t kClients = 2;
/// Untimed lead-in so the pool and caches reach their steady state.
constexpr double kWarmupSeconds = 1.0;

struct LoopResult {
  std::vector<double> latency_s;
  hydra::core::SearchStats stats;
  hydra::storage::PoolCounters pool;
  int64_t attempted = 0;
  double wall_s = 0.0;
};

/// Runs kClients closed-loop clients for `seconds` after the warm-up (and
/// on, up to 3 x `seconds` more, until `min_samples` queries were timed).
/// Wrong answers go to `result`.
LoopResult ClosedLoop(hydra::core::SearchMethod* method,
                      const hydra::storage::StorageHandle& handle,
                      const Inputs& inputs, size_t query_threads,
                      uint64_t seed, double seconds, size_t min_samples,
                      SpanLog* log, RunResult* result) {
  const size_t pool = inputs.queries.size();
  // Whole passes over the pool, each in its own seeded order, so every
  // run sees the full range of query difficulty.
  const size_t passes = 64;
  std::vector<uint32_t> order(pool * passes);
  SplitMix64 rng(seed);
  for (size_t p = 0; p < passes; ++p) {
    uint32_t* pass = &order[p * pool];
    for (size_t i = 0; i < pool; ++i) pass[i] = static_cast<uint32_t>(i);
    Shuffle(pass, pool, &rng);
  }
  hydra::core::QuerySpec spec = hydra::core::QuerySpec::Knn(kK);
  spec.query_threads = query_threads;

  LoopResult out;
  std::mutex mutex;
  std::atomic<uint64_t> next{0};
  hydra::storage::PoolCounters pool_start;
  const int64_t begin_ns = NowNs();
  const int64_t timed_ns =
      begin_ns + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t end_ns = timed_ns + static_cast<int64_t>(seconds * 1e9);
  const int64_t cap_ns = end_ns + static_cast<int64_t>(3 * seconds * 1e9);
  std::atomic<size_t> timed_count{0};
  std::atomic<int64_t> last_done_ns{timed_ns};
  std::atomic<bool> pool_marked{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<double> latency;
      hydra::core::SearchStats stats;
      int64_t attempted = 0;
      while (true) {
        // Past `seconds`, go on only until min_samples were timed.
        const int64_t start = NowNs();
        if (start >= end_ns &&
            (timed_count.load() >= min_samples || start >= cap_ns)) {
          break;
        }
        const bool timed = start >= timed_ns;
        if (timed && !pool_marked.exchange(true)) {
          std::lock_guard<std::mutex> lock(mutex);
          pool_start = handle.counters();
        }
        const uint64_t i = next.fetch_add(1);
        const size_t q = order[i % order.size()];
        hydra::core::QueryResult answer;
        int64_t t0 = 0;
        int64_t t1 = 0;
        {
          ScopedSpan request(timed ? log : nullptr, "request", i + 1);
          t0 = NowNs();
          {
            ScopedSpan execute(timed ? log : nullptr, "core.execute");
            answer = method->Execute(inputs.queries[q], spec);
          }
          t1 = NowNs();
          std::vector<AnswerNeighbor> got;
          for (const auto& n : answer.neighbors) {
            got.push_back({n.id, n.dist_sq});
          }
          const std::string wrong = CheckAnswer(inputs, q, got);
          std::lock_guard<std::mutex> lock(mutex);
          result->Record(wrong.empty()
                             ? ""
                             : "query " + std::to_string(q) + ": " + wrong);
        }
        if (!timed) continue;
        timed_count.fetch_add(1);
        ++attempted;
        latency.push_back(static_cast<double>(t1 - t0) * 1e-9);
        stats.Add(answer.stats);
        int64_t prev = last_done_ns.load();
        while (t1 > prev && !last_done_ns.compare_exchange_weak(prev, t1)) {
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      out.latency_s.insert(out.latency_s.end(), latency.begin(),
                           latency.end());
      out.stats.Add(stats);
      out.attempted += attempted;
    });
  }
  for (std::thread& t : clients) t.join();
  out.pool = PoolDelta(pool_start, handle.counters());
  out.wall_s = static_cast<double>(last_done_ns.load() - timed_ns) * 1e-9;
  return out;
}

void Merge(const LoopResult& from, LoopResult* into) {
  into->latency_s.insert(into->latency_s.end(), from.latency_s.begin(),
                         from.latency_s.end());
  into->stats.Add(from.stats);
  into->pool.hits += from.pool.hits;
  into->pool.misses += from.pool.misses;
  into->pool.evictions += from.pool.evictions;
  into->pool.pread_calls += from.pool.pread_calls;
  into->pool.bytes_read += from.pool.bytes_read;
  into->attempted += from.attempted;
  into->wall_s += from.wall_s;
}

}  // namespace

RunResult MeasureKnn(const WorkloadSpec& spec, const RunFiles& files,
                     const MeasureOptions& options) {
  RunResult result;
  Inputs inputs;
  if (!LoadInputs(files, &inputs)) {
    result.Fail("inputs unreadable");
    return result;
  }
  SpanLog log(options.trace);
  SpanLog off(false);
  hydra::storage::StorageOptions storage;
  storage.backend = spec.mmap ? hydra::storage::StorageBackend::kMmap
                              : hydra::storage::StorageBackend::kRam;
  storage.pool.budget_bytes = PoolBytes(spec);

  // Set-up, several times: storage open until the index can answer.
  std::vector<double> setup_s, open_s, build_s;
  std::optional<hydra::storage::StorageHandle> handle;
  std::unique_ptr<hydra::core::SearchMethod> method;
  while (MoreSetups(setup_s)) {
    method.reset();
    handle.reset();
    const int64_t t0 = NowNs();
    ScopedSpan setup(&log, "setup");
    {
      ScopedSpan span(&log, "storage.open");
      auto opened =
          hydra::storage::StorageHandle::Open(files.data(), "data", storage);
      if (!opened.ok()) {
        result.Fail(opened.status().message());
        return result;
      }
      handle.emplace(std::move(opened).value());
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span(&log, "index.build");
      method = hydra::bench::CreateMethod(spec.method);
      method->Build(handle->dataset());
    }
    const int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    open_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    build_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  }

  LayerFigures figures;
  {
    const int64_t t0 = NowNs();
    ScopedSpan span(&log, "io.save");
    const auto saved = method->Save(files.index());
    figures.save_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!saved.ok()) {
      result.Fail("save: " + saved.status().message());
    } else {
      figures.index_bytes = saved.value();
    }
  }
  std::error_code ignored;
  std::filesystem::remove_all(files.index(), ignored);

  // The traced run measures plain and traced halves in the order plain,
  // traced, traced, plain, so drift over the run cancels out of
  // trace.overhead_ratio.
  const auto loop = [&](double seconds, SpanLog* span_log,
                        size_t min_samples = 0) {
    return ClosedLoop(method.get(), *handle, inputs, spec.query_threads,
                      options.seed, seconds, min_samples, span_log, &result);
  };
  LoopResult plain;
  std::optional<LoopResult> traced;
  if (!options.trace) {
    plain = loop(options.seconds, &off, MinSamplesFor(0.95));
  } else {
    const double half = options.seconds / 2.0;
    plain = loop(half, &off);
    traced = loop(half, &log);
    Merge(loop(half, &log), &*traced);
    Merge(loop(half, &off), &plain);
  }

  const auto p50 = Percentile(plain.latency_s, 0.50);
  if (!options.trace) {
    const auto p95 = Percentile(plain.latency_s, 0.95);
    if (!p50 || !p95) {
      result.Fail("too few timed queries for p95: " +
                  std::to_string(plain.latency_s.size()));
    }
    const double data_bytes =
        static_cast<double>(std::filesystem::file_size(files.data()));
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("query_qps",
               static_cast<double>(plain.attempted) / plain.wall_s, "1/s");
    result.Add("query_p50_ms", 1e3 * p50.value_or(0.0), "ms");
    result.Add("query_p95_ms", 1e3 * p95.value_or(0.0), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("index_bytes_per_data_byte",
               static_cast<double>(figures.index_bytes) / data_bytes,
               "ratio");
    return result;
  }

  const LoopResult& t = *traced;
  figures.storage_open_s = Median(open_s);
  figures.pool = t.pool;
  figures.executed = t.attempted;
  figures.stats = t.stats;
  figures.data_count = spec.count;
  figures.series_bytes = spec.length * sizeof(float);
  figures.build_s = Median(build_s);
  figures.mem_mb =
      static_cast<double>(method->footprint().memory_bytes) / (1 << 20);
  const auto traced_p50 = Percentile(t.latency_s, 0.50);
  if (!p50 || !traced_p50) result.Fail("too few timed queries for a p50");
  figures.trace_overhead_ratio =
      traced_p50 && p50 ? *traced_p50 / *p50 - 1.0 : 0.0;
  figures.attempted = result.attempted;
  figures.failed = result.failed;
  figures.spans = log.Collect();
  AddLayerMetrics(figures, &result);
  if (!log.WriteJson(files.spans())) result.Fail("cannot write spans");
  return result;
}

}  // namespace hydrabench
