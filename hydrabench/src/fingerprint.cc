#include "fingerprint.h"

#include <fstream>
#include <sstream>
#include <thread>

#include "core/simd/kernels.h"

#ifndef HYDRABENCH_BUILD_FLAGS
#define HYDRABENCH_BUILD_FLAGS "unknown"
#endif

namespace hydrabench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Fingerprint(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& source, double seconds) {
  std::ostringstream out;
  out << "{\"workload\":" << Quoted(spec.name) << ",\"seed\":" << seed
      << ",\"seconds\":" << seconds
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << Quoted(CpuModel()) << ",\"kernels\":"
      << Quoted(hydra::core::simd::ActiveKernels().name)
      << ",\"build_flags\":" << Quoted(HYDRABENCH_BUILD_FLAGS)
      << ",\"source\":" << Quoted(source)
      << ",\"method\":" << Quoted(spec.method) << ",\"shards\":"
      << spec.shards << ",\"query_threads\":" << spec.query_threads
      << ",\"data\":\"" << spec.count << "x" << spec.length
      << "\",\"data_bytes\":" << spec.count * spec.length * sizeof(float)
      << ",\"storage\":\"" << (spec.mmap ? "mmap" : "ram")
      << "\",\"pool_bytes\":"
      << (spec.mmap ? PoolBytes(spec) : 0)
      << "}";
  return out.str();
}

}  // namespace hydrabench
