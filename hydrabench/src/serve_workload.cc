// serve-open: a persisted 2-shard iSAX2+ container opened at set-up and
// served by an in-process serve::Server; load is an open loop of seeded
// Poisson arrivals (schedule.h) sent over loopback connections.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench/registry.h"
#include "core/method.h"
#include "schedule.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "storage/backend.h"
#include "workload.h"

namespace hydrabench {
namespace {

constexpr size_t kServeThreads = 2;
/// Generator connections: a request waits for a free one, and that wait
/// counts in its latency (timed from when it was due).
constexpr size_t kGenerators = 4;
constexpr double kRepeatShare = 0.5;
/// A repeat targets a query due at least this long before, so its answer
/// is cached by the time the repeat arrives.
constexpr double kMinRepeatGap = 1.0;
/// serve_max_qps: the highest ladder rate whose p95 latency meets this.
constexpr double kLatencyLimitMs = 250.0;
/// Rate of the nominal phase (serve_p50_ms / serve_p95_ms), and the
/// request rate the closed loop's plan is drawn at.
constexpr double kNominalRate = 20.0;
/// Requests per open-loop phase: enough for a p95 (stats.h).
constexpr double kPhaseRequests = 260.0;
/// The fixed rate ladder: 10% apart, finer than serve_max_qps's bound.
constexpr double kLadderBase = 20.0;
constexpr double kLadderStep = 1.1;
constexpr int kLadderRungs = 16;
/// The closed loop (query_* metrics): connections, and the span of plan
/// drawn for it (cut where the prepared queries run out).
constexpr size_t kClosedConnections = 3;
constexpr double kClosedPlanSeconds = 600.0;
constexpr double kWarmupSeconds = 1.0;
/// Largest departure of the achieved cache hit ratio from the plan
/// before the run is declared invalid.
constexpr double kPlanTolerance = 0.10;

double Rung(int i) { return kLadderBase * std::pow(kLadderStep, i); }

struct PhaseResult {
  /// Per timed request, from due time to answer; +inf when it failed.
  std::vector<double> latency_s;
  std::vector<double> late_s;
  std::vector<double> hit_rtt_s;
  std::vector<double> miss_overhead_s;
  hydra::core::SearchStats stats;
  int64_t attempted = 0;
  int64_t executed = 0;
  int64_t rejected = 0;
  /// Repeats among the timed requests (the plan), and cached answers
  /// among them (what the server achieved).
  double planned_hit_ratio = 0.0;
  double achieved_hit_ratio = 0.0;
  hydra::storage::PoolCounters pool;
  /// First send to last answer of the timed requests.
  double wall_s = 0.0;
};

/// How DriveServer paces requests.
struct Pacing {
  /// Open loop: each request is due at its planned time. Closed loop
  /// (false): each connection sends its next request when the previous
  /// one is answered, until `seconds` have passed after the warm-up.
  bool open = true;
  double warmup_s = 0.0;
  double seconds = 0.0;
};

/// Plays `plan` against `server` from `connections` loopback clients and
/// checks every answer against the reference.
PhaseResult DriveServer(hydra::serve::Server* server,
                        const hydra::storage::StorageHandle& handle,
                        const Schedule& plan, const Pacing& pacing,
                        size_t connections, const Inputs& inputs,
                        SpanLog* log, RunResult* result) {
  PhaseResult out;
  const size_t n = plan.arrivals.size();
  std::vector<double> latency(n, std::numeric_limits<double>::infinity());
  std::vector<double> late(n, 0.0);
  std::vector<int64_t> sent_at(n, 0);
  std::vector<int64_t> done_at(n, 0);
  // -1 = failed or never sent, 0 = executed, 1 = answered from cache.
  std::vector<int8_t> cached(n, -1);
  std::vector<int8_t> timed(n, 0);
  std::vector<hydra::core::SearchStats> stats(n);
  std::vector<std::unique_ptr<hydra::serve::Client>> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<hydra::serve::Client>());
    const auto connected =
        clients.back()->Connect("127.0.0.1", server->port());
    if (!connected.ok()) {
      result->Fail("connect: " + connected.message());
      return out;
    }
  }
  const auto pool_before = handle.counters();
  std::mutex mutex;
  std::atomic<size_t> next{0};
  // Sending starts a little after the threads do, so none is late at t=0.
  const int64_t start_ns = NowNs() + 20'000'000;
  const int64_t timed_ns =
      start_ns + static_cast<int64_t>(pacing.warmup_s * 1e9);
  const int64_t end_ns =
      timed_ns + static_cast<int64_t>(pacing.seconds * 1e9);
  std::vector<std::thread> generators;
  for (size_t c = 0; c < connections; ++c) {
    generators.emplace_back([&, c] {
      hydra::serve::Client& client = *clients[c];
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        const Arrival& a = plan.arrivals[i];
        if (a.query >= inputs.queries.size()) {
          std::lock_guard<std::mutex> lock(mutex);
          result->Fail("the plan needs more distinct queries than the " +
                       std::to_string(inputs.queries.size()) + " prepared");
          break;
        }
        int64_t due = start_ns + static_cast<int64_t>(a.due_s * 1e9);
        if (pacing.open) {
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(due)));
        } else {
          due = std::max(NowNs(), start_ns);
          if (due >= end_ns) break;
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(due)));
        }
        timed[i] = pacing.open || due >= timed_ns ? 1 : 0;
        ScopedSpan request(timed[i] ? log : nullptr, "request", i + 1);
        hydra::serve::QueryRequest req;
        req.spec = hydra::core::QuerySpec::Knn(kK);
        const hydra::core::SeriesView q = inputs.queries[a.query];
        req.query.assign(q.begin(), q.end());
        req.request_id = i + 1;
        hydra::serve::AnswerResponse answer;
        hydra::serve::ErrorCode code = hydra::serve::ErrorCode::kInternal;
        const int64_t sent = NowNs();
        hydra::util::Status status;
        {
          ScopedSpan query(timed[i] ? log : nullptr, "serve.query");
          status = client.Query(req, &answer, &code);
        }
        const int64_t done = NowNs();
        late[i] = static_cast<double>(sent - due) * 1e-9;
        sent_at[i] = sent;
        done_at[i] = done;
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mutex);
          if (code == hydra::serve::ErrorCode::kResourceExhausted) {
            ++out.rejected;
          }
          result->Record("request " + std::to_string(i) + ": " +
                         status.message());
          continue;
        }
        std::vector<AnswerNeighbor> got;
        for (const auto& nb : answer.result.neighbors) {
          got.push_back({nb.id, nb.dist_sq});
        }
        const std::string wrong = CheckAnswer(inputs, a.query, got);
        {
          std::lock_guard<std::mutex> lock(mutex);
          result->Record(wrong.empty() ? ""
                                       : "query " + std::to_string(a.query) +
                                             ": " + wrong);
        }
        if (!wrong.empty()) continue;
        latency[i] = static_cast<double>(done - due) * 1e-9;
        cached[i] = answer.cached ? 1 : 0;
        stats[i] = answer.result.stats;
      }
    });
  }
  for (std::thread& t : generators) t.join();
  out.pool = PoolDelta(pool_before, handle.counters());
  int64_t repeats = 0;
  int64_t hits = 0;
  int64_t first_sent = std::numeric_limits<int64_t>::max();
  int64_t last_done = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!timed[i] || sent_at[i] == 0) continue;
    ++out.attempted;
    repeats += plan.arrivals[i].repeat ? 1 : 0;
    first_sent = std::min(first_sent, sent_at[i]);
    last_done = std::max(last_done, done_at[i]);
    out.latency_s.push_back(latency[i]);
    out.late_s.push_back(late[i]);
    const double rtt = static_cast<double>(done_at[i] - sent_at[i]) * 1e-9;
    if (cached[i] == 1) {
      ++hits;
      out.hit_rtt_s.push_back(rtt);
    } else if (cached[i] == 0) {
      out.miss_overhead_s.push_back(rtt - stats[i].cpu_seconds);
      out.stats.Add(stats[i]);
      ++out.executed;
    }
  }
  if (out.attempted > 0) {
    out.planned_hit_ratio = static_cast<double>(repeats) /
                            static_cast<double>(out.attempted);
    out.achieved_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(out.attempted);
    out.wall_s = static_cast<double>(last_done - first_sent) * 1e-9;
  }
  return out;
}

/// Checks a phase against its plan: the achieved cache hit ratio must be
/// within kPlanTolerance of the planned one, and (open loop) the
/// generator must not have fallen behind by more than the latency limit.
/// A departure makes the run invalid.
void CheckFidelity(const char* phase, const PhaseResult& r, bool open,
                   RunResult* result) {
  if (std::fabs(r.achieved_hit_ratio - r.planned_hit_ratio) >
      kPlanTolerance * r.planned_hit_ratio) {
    result->Fail(std::string("invalid run: ") + phase +
                 " cache hit ratio " + std::to_string(r.achieved_hit_ratio) +
                 ", planned " + std::to_string(r.planned_hit_ratio));
  }
  const auto late_p95 = Percentile(r.late_s, 0.95);
  if (open && late_p95 && *late_p95 * 1e3 > kLatencyLimitMs) {
    result->Fail(std::string("invalid run: ") + phase +
                 " generator p95 lateness " +
                 std::to_string(*late_p95 * 1e3) + " ms");
  }
}

/// A rung passes when its p95 (failures count as misses) meets the limit
/// and the backlog does not grow: the last quarter's median latency also
/// meets it.
bool RungPasses(const PhaseResult& phase) {
  const auto p95 = Percentile(phase.latency_s, 0.95);
  if (!p95 || *p95 * 1e3 > kLatencyLimitMs) return false;
  const size_t n = phase.latency_s.size();
  std::vector<double> tail(phase.latency_s.begin() + 3 * n / 4,
                           phase.latency_s.end());
  return Median(tail) * 1e3 <= kLatencyLimitMs;
}

}  // namespace

RunResult MeasureServe(const WorkloadSpec& spec, const RunFiles& files,
                       const MeasureOptions& options) {
  RunResult result;
  Inputs inputs;
  if (!LoadInputs(files, &inputs)) {
    result.Fail("inputs unreadable");
    return result;
  }
  SpanLog log(options.trace);
  hydra::storage::StorageOptions storage;
  storage.backend = hydra::storage::StorageBackend::kMmap;
  const double data_bytes =
      static_cast<double>(std::filesystem::file_size(files.data()));
  // A pool that holds the whole file: queries pay only the hit path.
  storage.pool.budget_bytes = PoolBytes(spec);
  const auto make_method = [&] {
    return hydra::bench::CreateShardedMethod(spec.method, spec.shards, 0);
  };
  const auto open_storage =
      [&]() -> std::optional<hydra::storage::StorageHandle> {
    auto opened =
        hydra::storage::StorageHandle::Open(files.data(), "data", storage);
    if (!opened.ok()) {
      result.Fail(opened.status().message());
      return std::nullopt;
    }
    return std::move(opened).value();
  };

  LayerFigures figures;
  // Offline: build and persist the index the set-up opens.
  {
    auto handle = open_storage();
    if (!handle) {
      return result;
    }
    auto method = make_method();
    int64_t t0 = NowNs();
    {
      ScopedSpan span(&log, "index.build");
      method->Build(handle->dataset());
    }
    figures.build_s = static_cast<double>(NowNs() - t0) * 1e-9;
    figures.mem_mb =
        static_cast<double>(method->footprint().memory_bytes) / (1 << 20);
    t0 = NowNs();
    ScopedSpan span(&log, "io.save");
    const auto saved = method->Save(files.index());
    figures.save_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!saved.ok()) {
      result.Fail("save: " + saved.status().message());
      return result;
    }
    figures.index_bytes = saved.value();
  }

  // Set-up, several times: storage open, index Open, server start.
  std::vector<double> setup_s, open_s, index_open_s, start_s;
  std::optional<hydra::storage::StorageHandle> handle;
  std::shared_ptr<hydra::core::SearchMethod> method;
  std::unique_ptr<hydra::serve::Server> server;
  hydra::serve::ServerOptions server_options;
  server_options.serve_threads = kServeThreads;
  while (MoreSetups(setup_s)) {
    server.reset();
    method.reset();
    handle.reset();
    const int64_t t0 = NowNs();
    ScopedSpan setup(&log, "setup");
    {
      ScopedSpan span(&log, "storage.open");
      handle = open_storage();
      if (!handle) return result;
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span(&log, "io.open");
      method = make_method();
      const auto opened = method->Open(files.index(), handle->dataset());
      if (!opened.ok()) {
        result.Fail("open: " + opened.status().message());
        return result;
      }
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(&log, "serve.start");
      server = std::make_unique<hydra::serve::Server>(server_options);
      const auto started = server->Start(method, &handle->dataset());
      if (!started.ok()) {
        result.Fail("start: " + started.message());
        return result;
      }
    }
    const int64_t t3 = NowNs();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    open_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    index_open_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    start_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
  }
  std::error_code ignored;
  std::filesystem::remove_all(files.index(), ignored);

  SpanLog off(false);
  if (!options.trace) {
    // The closed loop on the set-up server (its cache starts empty): the
    // plan fixes which requests repeat; its arrival times are not used.
    Schedule plan =
        BuildSchedule(options.seed * 7919 + 1, kNominalRate,
                      kClosedPlanSeconds, kRepeatShare, kMinRepeatGap);
    // The plan ends before its first fresh query beyond the prepared
    // pool; a fast enough server then finishes it before `seconds`.
    for (size_t i = 0; i < plan.arrivals.size(); ++i) {
      if (plan.arrivals[i].query >= inputs.queries.size()) {
        plan.arrivals.resize(i);
        break;
      }
    }
    const PhaseResult closed = DriveServer(
        server.get(), *handle, plan,
        {.open = false, .warmup_s = kWarmupSeconds, .seconds = options.seconds},
        kClosedConnections, inputs, &off, &result);
    std::fprintf(stderr,
                 "closed loop: %lld timed requests, hits %.3f of %.3f "
                 "planned\n",
                 static_cast<long long>(closed.attempted),
                 closed.achieved_hit_ratio, closed.planned_hit_ratio);
    CheckFidelity("closed loop", closed, false, &result);
    const auto p50 = Percentile(closed.latency_s, 0.50);
    const auto p95 = Percentile(closed.latency_s, 0.95);
    if (!p50 || !p95) {
      result.Fail("too few timed requests for p95: " +
                  std::to_string(closed.latency_s.size()));
    }
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("query_qps",
               static_cast<double>(closed.attempted) / closed.wall_s, "1/s");
    result.Add("query_p50_ms", 1e3 * p50.value_or(0.0), "ms");
    result.Add("query_p95_ms", 1e3 * p95.value_or(0.0), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("index_bytes_per_data_byte",
               static_cast<double>(figures.index_bytes) / data_bytes,
               "ratio");
    return result;
  }

  // Traced run. A short closed loop first fills the buffer pool, as on a
  // long-running server; then each open-loop phase gets a fresh server,
  // so its cache starts empty and the phase plays exactly its own plan.
  DriveServer(server.get(), *handle,
              BuildSchedule(options.seed * 7919 + 3, kNominalRate, 60.0, 0.0,
                            kMinRepeatGap),
              {.open = false, .warmup_s = 0.0, .seconds = kWarmupSeconds},
              kClosedConnections, inputs, &off, &result);
  int64_t rejected = 0;
  const auto open_phase = [&](double rate, uint64_t plan_seed,
                              SpanLog* span_log) {
    hydra::serve::Server phase_server(server_options);
    PhaseResult phase;
    if (!phase_server.Start(method, &handle->dataset()).ok()) {
      result.Fail("phase server did not start");
      return phase;
    }
    const Schedule plan =
        BuildSchedule(plan_seed, rate, kPhaseRequests / rate, kRepeatShare,
                      kMinRepeatGap);
    phase = DriveServer(&phase_server, *handle, plan, {.open = true},
                        kGenerators, inputs, span_log, &result);
    rejected += phase.rejected;
    std::fprintf(stderr,
                 "open loop %.1f/s: %lld requests, p50 %.1f ms, p95 %.1f ms, "
                 "late p95 %.1f ms, hits %.2f of %.2f planned\n",
                 rate, static_cast<long long>(phase.attempted),
                 1e3 * Percentile(phase.latency_s, 0.5).value_or(0.0),
                 1e3 * Percentile(phase.latency_s, 0.95).value_or(0.0),
                 1e3 * Percentile(phase.late_s, 0.95).value_or(0.0),
                 phase.achieved_hit_ratio, phase.planned_hit_ratio);
    return phase;
  };
  const uint64_t nominal_seed = options.seed * 7919 + 2;
  const PhaseResult nominal = open_phase(kNominalRate, nominal_seed, &off);
  CheckFidelity("nominal", nominal, true, &result);

  // serve_max_qps: bisection over the fixed ladder for the highest rung
  // that meets the latency limit.
  int pass = -1;
  int miss = kLadderRungs;
  while (miss - pass > 1) {
    const int mid = (pass + miss) / 2;
    const PhaseResult rung = open_phase(
        Rung(mid), options.seed * 7919 + 100 + static_cast<uint64_t>(mid),
        &off);
    (RungPasses(rung) ? pass : miss) = mid;
  }
  if (pass < 0) result.Fail("no ladder rate meets the latency limit");
  const PhaseResult traced = open_phase(kNominalRate, nominal_seed, &log);

  const auto p50 = Percentile(nominal.latency_s, 0.50);
  const auto p95 = Percentile(nominal.latency_s, 0.95);
  figures.storage_open_s = Median(open_s);
  figures.pool = traced.pool;
  figures.executed = traced.executed;
  figures.stats = traced.stats;
  figures.data_count = spec.count;
  figures.series_bytes = spec.length * sizeof(float);
  figures.index_open_s = Median(index_open_s);
  figures.serve_start_s = Median(start_s);
  figures.serve_p50_ms = 1e3 * p50.value_or(0.0);
  figures.serve_p95_ms = 1e3 * p95.value_or(0.0);
  figures.serve_max_qps = pass < 0 ? 0.0 : Rung(pass);
  figures.cache_hit_ratio = traced.achieved_hit_ratio;
  figures.cache_planned_hit_ratio = traced.planned_hit_ratio;
  figures.hit_rtt_p50_ms = 1e3 * Median(traced.hit_rtt_s);
  figures.overhead_p50_ms = 1e3 * Median(traced.miss_overhead_s);
  figures.rejected = rejected;
  figures.late_p95_ms =
      1e3 * Percentile(traced.late_s, 0.95).value_or(0.0);
  const auto traced_p50 = Percentile(traced.latency_s, 0.50);
  figures.trace_overhead_ratio =
      traced_p50 && p50 ? *traced_p50 / *p50 - 1.0 : 0.0;
  figures.spans = log.Collect();
  figures.failed = result.failed;
  figures.attempted = result.attempted;
  AddLayerMetrics(figures, &result);
  if (!log.WriteJson(files.spans())) result.Fail("cannot write spans");
  return result;
}

}  // namespace hydrabench
