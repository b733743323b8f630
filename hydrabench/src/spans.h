// The benchmark's own span log: spans recorded from outside the library,
// around its public calls (StorageHandle::Open, Build, Save, Open,
// Execute, Server::Start, Client::Query), so per-layer time is measured
// without touching the program. The library's obs::Tracer stays off: its
// internal spans would flood the same rings and cost far more.
//
// Each thread appends to its own vector (no lock on the hot path); a
// thread-local stack gives every span its parent and request id. Spans
// are kept in memory and written out once, at the end of the run.
#ifndef HYDRABENCH_SPANS_H_
#define HYDRABENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hydrabench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same thread's list, or -1.
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// Spans of one thread, in open order.
struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Per span name: how often it occurred, total and self time (seconds).
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time of every span: its duration minus the union of the
/// intervals its children cover (children clipped to the parent).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Totals per span name over all threads.
std::map<std::string, SpanTotals> Aggregate(
    const std::vector<ThreadSpans>& threads);

class SpanLog {
 public:
  /// A disabled log records nothing; ScopedSpan then costs one branch.
  explicit SpanLog(bool enabled);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  /// Snapshot of every thread's spans (call after the workers joined).
  std::vector<ThreadSpans> Collect() const;
  /// Writes the spans as JSON (one object per span) to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  friend class ScopedSpan;
  ThreadSpans* ThisThread();

  const bool enabled_;
  /// Process-unique, so a thread's cached list never outlives its log.
  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// Records one span for its scope (nothing when `log` is null or
/// disabled). `request_id` 0 inherits the parent's.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* owner_ = nullptr;
  size_t index_ = 0;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

}  // namespace hydrabench

#endif  // HYDRABENCH_SPANS_H_
