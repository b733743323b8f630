// Serve-daemon throughput scenario: queries per second versus client
// concurrency and answer-cache hit ratio, through real loopback sockets
// against the in-process serve::Server. This exhibit is ours, not the
// paper's — it characterizes the daemon subsystem: how much the framed
// protocol + admission + scheduler stack costs on top of direct Execute,
// and how much a warm answer cache buys back. The hit ratio is driven by
// the request schedule: each client replays its own pool of distinct
// queries round-robin, and the pools are disjoint, so every pool query
// misses exactly once (the cache inserts before the answer is written)
// and every repeat hits. The achieved rate is read back from the
// server's own cache counters and must equal the planned one.
//
// Usage: serve_throughput [count] [length] [requests] [--json <path>]
// Writes the machine-readable sweep to BENCH_serve.json by default.
// Exits 1 when a request fails or an achieved hit ratio departs from its
// plan.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/query_spec.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::bench {
namespace {

int Run(int argc, char** argv) {
  const char* json_path = ExtractJsonPath(&argc, argv, "BENCH_serve.json");
  const size_t count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const size_t length =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 128;
  const size_t requests =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 96;
  HYDRA_CHECK_MSG(count > 0 && length > 0 && requests > 0,
                  "count/length/requests must be positive");

  Banner("Serve throughput",
         "daemon QPS vs client concurrency x answer-cache hit ratio",
         "the socket/framing/admission stack adds a small constant per "
         "query; cache hits skip Execute entirely, so QPS rises with the "
         "hit ratio and with concurrency until the cores saturate");

  const auto data = gen::MakeDataset("synth", count, length, 41);
  // The query pool is the largest any target ratio needs (one distinct
  // query per request); each sweep uses a prefix of it. Same seed-style
  // discipline as every exhibit: the schedule is fully deterministic.
  const gen::Workload pool = gen::CtrlWorkload(data, requests, 42);

  std::shared_ptr<core::SearchMethod> method =
      bench::CreateMethod("DSTree", LeafFor("DSTree", count));
  util::WallTimer build_timer;
  method->Build(data);
  std::printf("dataset: %zu x %zu synth, %zu requests per sweep, k=10, "
              "method DSTree (build %.2fs)\n\n",
              count, length, requests, build_timer.Seconds());

  const core::QuerySpec spec = core::QuerySpec::Knn(10);
  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("serve_throughput");
  json.Key("runs");
  json.BeginArray();

  util::Table table({"clients", "target_hit", "requests", "wall_s", "qps",
                     "planned_hit", "achieved_hit"});
  bool all_ok = true;
  for (const size_t clients : {1, 2, 4, 8}) {
    for (const double target_hit : {0.0, 0.5, 0.9}) {
      // Client c issues n_c requests from its own pool of
      // P_c = max(1, n_c * (1 - target)) distinct queries, replayed
      // round-robin: it misses P_c times and hits n_c - P_c times.
      std::vector<size_t> first(clients + 1, 0);  // pool c: [first[c], first[c+1])
      std::vector<size_t> issued(clients);
      for (size_t c = 0; c < clients; ++c) {
        issued[c] = (c + 1) * requests / clients - c * requests / clients;
        const size_t own = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(issued[c]) *
                                   (1.0 - target_hit)));
        first[c + 1] = first[c] + std::min(own, issued[c]);
      }
      const size_t pool_size = first[clients];
      HYDRA_CHECK(pool_size <= pool.queries.size());
      const size_t planned_hits = requests - pool_size;

      serve::ServerOptions options;
      options.serve_threads = clients;
      options.max_inflight = 2 * clients + 8;
      serve::Server server(options);
      const util::Status started = server.Start(method, &data);
      HYDRA_CHECK_MSG(started.ok(), "serve bench could not bind loopback");

      std::vector<std::string> errors(clients);
      util::WallTimer timer;
      std::vector<std::thread> workers;
      for (size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          serve::Client client;
          const util::Status connected =
              client.Connect("127.0.0.1", server.port());
          if (!connected.ok()) {
            errors[c] = connected.message();
            return;
          }
          const size_t own = first[c + 1] - first[c];
          for (size_t i = 0; i < issued[c]; ++i) {
            serve::QueryRequest request;
            request.spec = spec;
            const core::SeriesView q = pool.queries[first[c] + i % own];
            request.query.assign(q.begin(), q.end());
            serve::AnswerResponse answer;
            const util::Status s = client.Query(request, &answer, nullptr);
            if (!s.ok()) {
              errors[c] = s.message();
              return;
            }
          }
        });
      }
      for (std::thread& t : workers) t.join();
      const double wall = timer.Seconds();
      const serve::AnswerCache::Counters counters = server.cache_counters();
      server.Shutdown();
      for (size_t c = 0; c < clients; ++c) {
        if (!errors[c].empty()) {
          std::fprintf(stderr, "error: client %zu: %s\n", c,
                       errors[c].c_str());
          all_ok = false;
        }
      }

      const uint64_t lookups = counters.hits + counters.misses;
      const double achieved =
          lookups == 0 ? 0.0
                       : static_cast<double>(counters.hits) /
                             static_cast<double>(lookups);
      const double planned = static_cast<double>(planned_hits) /
                             static_cast<double>(requests);
      if (counters.hits != planned_hits || counters.misses != pool_size) {
        std::fprintf(stderr,
                     "error: %zu clients at target %.2f: %llu hits / %llu "
                     "misses, planned %zu / %zu\n",
                     clients, target_hit,
                     static_cast<unsigned long long>(counters.hits),
                     static_cast<unsigned long long>(counters.misses),
                     planned_hits, pool_size);
        all_ok = false;
      }
      const double qps = static_cast<double>(requests) / wall;
      table.AddRow({util::Table::Num(static_cast<double>(clients), 0),
                    util::Table::Num(target_hit, 2),
                    util::Table::Num(static_cast<double>(requests), 0),
                    util::Table::Num(wall, 3), util::Table::Num(qps, 1),
                    util::Table::Num(planned, 2),
                    util::Table::Num(achieved, 2)});

      json.BeginObject();
      json.Key("clients");
      json.Uint(clients);
      json.Key("target_hit_ratio");
      json.Double(target_hit);
      json.Key("requests");
      json.Uint(requests);
      json.Key("distinct_queries");
      json.Uint(pool_size);
      json.Key("wall_seconds");
      json.Double(wall);
      json.Key("qps");
      json.Double(qps);
      json.Key("cache_hits");
      json.Uint(counters.hits);
      json.Key("cache_misses");
      json.Uint(counters.misses);
      json.Key("planned_hit_ratio");
      json.Double(planned);
      json.Key("achieved_hit_ratio");
      json.Double(achieved);
      json.EndObject();
    }
  }
  table.Print("serve throughput (requests are split across the clients)");
  const size_t hw = util::ThreadPool::HardwareConcurrency();
  if (hw < 2) {
    std::printf("\nnote: this machine exposes %zu core(s); concurrency "
                "rows cannot overlap execution here, so QPS scaling with "
                "clients needs multi-core hardware. (Hit-ratio scaling is "
                "hardware-independent.)\n", hw);
  }

  json.EndArray();
  json.EndObject();
  if (json_path != nullptr) {
    const util::Status written = json.WriteTo(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return 1;
    }
    std::printf("\nwrote machine-readable sweep to %s\n", json_path);
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) { return hydra::bench::Run(argc, argv); }
