#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace hydrabench {
namespace {

std::atomic<uint64_t> next_log_id{1};

struct OpenStack {
  uint64_t log_id = 0;
  ThreadSpans* spans = nullptr;
  std::vector<size_t> open;
};

thread_local OpenStack tls_stack;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = static_cast<double>(duration - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, SpanTotals> Aggregate(
    const std::vector<ThreadSpans>& threads) {
  std::map<std::string, SpanTotals> totals;
  for (const ThreadSpans& t : threads) {
    const std::vector<double> self = SelfSeconds(t.spans);
    for (size_t i = 0; i < t.spans.size(); ++i) {
      SpanTotals& agg = totals[t.spans[i].name];
      ++agg.count;
      agg.total_s +=
          static_cast<double>(t.spans[i].end_ns - t.spans[i].start_ns) * 1e-9;
      agg.self_s += self[i];
    }
  }
  return totals;
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), id_(next_log_id.fetch_add(1)) {}

ThreadSpans* SpanLog::ThisThread() {
  if (tls_stack.log_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    threads_.back()->thread = static_cast<uint32_t>(threads_.size() - 1);
    threads_.back()->spans.reserve(4096);
    tls_stack = {id_, threads_.back().get(), {}};
  }
  return tls_stack.spans;
}

std::vector<ThreadSpans> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadSpans> out;
  for (const auto& t : threads_) out.push_back(*t);
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  bool first = true;
  for (const ThreadSpans& t : Collect()) {
    for (const Span& s : t.spans) {
      std::fprintf(f,
                   "%s{\"thread\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request_id\":%llu}",
                   first ? "" : ",\n", t.thread, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id));
      first = false;
    }
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t request_id) {
  if (log == nullptr || !log->enabled()) return;
  owner_ = log->ThisThread();
  Span span;
  span.name = name;
  span.request_id = request_id;
  if (!tls_stack.open.empty()) {
    span.parent = static_cast<int64_t>(tls_stack.open.back());
    if (request_id == 0) {
      span.request_id = owner_->spans[tls_stack.open.back()].request_id;
    }
  }
  index_ = owner_->spans.size();
  tls_stack.open.push_back(index_);
  span.start_ns = NowNs();
  owner_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (owner_ == nullptr) return;
  owner_->spans[index_].end_ns = NowNs();
  tls_stack.open.pop_back();
}

}  // namespace hydrabench
