// Batch-engine throughput scenario: queries/sec versus worker threads for
// one optimized scan and two index methods, sweeping 1..max(4, hardware)
// threads over a fixed workload. This exhibit is ours, not the paper's —
// the paper runs every query serially under identical conditions; the
// ROADMAP's production north-star needs concurrent query answering on top
// of the same methods (cf. "Data Series Indexing Gone Parallel").
// Usage: throughput_scaling [--json <path>] — the optional flag writes
// the sweep as machine-readable JSON next to the printed table.
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hydra::bench {
namespace {

int Run(int argc, char** argv) {
  const char* json_path = ExtractJsonPath(&argc, argv, nullptr);
  Banner("Batch throughput",
         "queries/sec vs worker threads (batch engine, shared index)",
         "near-linear scaling while cores last — batch answers are "
         "bit-identical to the serial path, so speedup is free accuracy-"
         "wise; ADS+ is excluded (adaptive, serial-only)");

  const size_t count = 20000;
  const size_t length = 256;
  const size_t queries = 96;
  const auto data = gen::MakeDataset("synth", count, length, 21);
  const gen::Workload workload = gen::CtrlWorkload(data, queries, 22);

  const size_t hw = util::ThreadPool::HardwareConcurrency();
  std::printf("dataset: %zu x %zu synth, %zu queries, k=1; "
              "hardware_concurrency=%zu\n\n", count, length, queries, hw);

  std::vector<size_t> sweep;
  for (size_t t = 1; t <= std::max<size_t>(4, hw); t *= 2) sweep.push_back(t);

  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("throughput_scaling");
  json.Key("runs");
  json.BeginArray();

  util::Table table(
      {"method", "threads", "wall_s", "queries_per_s", "speedup"});
  for (const std::string name : {"UCR-Suite", "DSTree", "VA+file"}) {
    auto method = CreateMethod(name, LeafFor(name, count));
    method->Build(data);
    // Warm-up pass so first-touch costs (thread-local scratch, page
    // faults) don't pollute the 1-thread baseline.
    (void)SearchKnnBatch(method.get(), workload, core::QuerySpec::Knn(1),
                         /*threads=*/1);
    double serial_wall = 0.0;
    for (const size_t threads : sweep) {
      util::WallTimer timer;
      const core::BatchKnnResult batch =
          SearchKnnBatch(method.get(), workload, core::QuerySpec::Knn(1),
                         threads);
      const double wall = timer.Seconds();
      if (threads == 1) serial_wall = wall;
      const double qps = static_cast<double>(batch.queries.size()) / wall;
      table.AddRow({name, util::Table::Num(static_cast<double>(threads), 0),
                    util::Table::Num(wall, 3), util::Table::Num(qps, 1),
                    util::Table::Num(serial_wall / wall, 2)});
      json.BeginObject();
      json.Key("method");
      json.String(name);
      json.Key("threads");
      json.Uint(threads);
      json.Key("threads_used");
      json.Uint(batch.threads_used);
      json.Key("queries");
      json.Uint(batch.queries.size());
      json.Key("wall_seconds");
      json.Double(wall);
      json.Key("queries_per_second");
      json.Double(qps);
      json.EndObject();
    }
  }
  table.Print("batch throughput (speedup = wall_1thread / wall_Nthreads)");
  if (hw < 4) {
    std::printf("\nnote: this machine exposes %zu core(s); thread counts "
                "above that measure oversubscription, not scaling.\n", hw);
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
  return 0;
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) { return hydra::bench::Run(argc, argv); }
