// hydrabench: the repository benchmark's measuring program.
//
//   hydrabench selftest
//   hydrabench prepare --workload W --seed N --dir D
//   hydrabench measure --workload W --seed N --seconds S --trace 0|1
//                      --dir D [--source DIGEST]
//
// `prepare` writes the seeded data, queries and reference answers into D;
// `measure` runs the workload over them and prints, as its last line, one
// JSON object {correct, attempted, failed, metrics}. hydrabench/run.py
// drives both in separate processes, so the measured process's peak RSS
// holds only what the system under test uses.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fingerprint.h"
#include "selftest.h"
#include "workload.h"

namespace hydrabench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hydrabench selftest\n"
               "       hydrabench prepare --workload W --seed N --dir D\n"
               "       hydrabench measure --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--source DIGEST]\n");
  return 2;
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

void PrintResult(RunResult* result) {
  std::string metrics;
  char buf[96];
  for (const Metric& m : result->metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      result->Fail("metric " + m.name + " is not finite");
      value = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  if (!result->first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", result->first_error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result->failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, result->attempted)),
              static_cast<long long>(result->failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "selftest") return RunSelfTests();
  const char* workload = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* dir = Flag(argc, argv, "--dir");
  const WorkloadSpec* spec = workload ? FindWorkload(workload) : nullptr;
  if (spec == nullptr || seed == nullptr || dir == nullptr) return Usage();
  const uint64_t seed_value = std::strtoull(seed, nullptr, 10);
  const RunFiles files{dir};
  if (command == "prepare") return Prepare(*spec, seed_value, files);
  if (command != "measure") return Usage();

  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  const char* source = Flag(argc, argv, "--source");
  MeasureOptions options;
  options.seed = seed_value;
  options.seconds = seconds ? std::atof(seconds) : 0.0;
  options.trace = trace != nullptr && std::strcmp(trace, "1") == 0;
  if (!(options.seconds > 0.0)) return Usage();
  std::printf("fingerprint %s\n",
              Fingerprint(*spec, seed_value, source ? source : "unknown",
                          options.seconds)
                  .c_str());
  RunResult result = std::string(spec->name) == "serve-open"
                         ? MeasureServe(*spec, files, options)
                         : MeasureKnn(*spec, files, options);
  PrintResult(&result);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hydrabench

int main(int argc, char** argv) { return hydrabench::Main(argc, argv); }
