#include "scan/ucr_scan.h"

#include "core/distance.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::scan {

core::BuildStats UcrScan::DoBuild(const core::Dataset& data) {
  data_ = &data;
  return core::BuildStats{};  // no preprocessing
}

core::QueryResult UcrScan::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  util::WallTimer timer;

  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  io::ChargeScanStart(&result.stats);
  // Only the series actually scanned are charged: the max_raw budget
  // truncates the sequential pass (a budgeted scan is a prefix scan).
  for (size_t i = 0; i < data_->size(); ++i) {
    if (plan.RawCapReached(&result.stats)) break;
    const double d = order.Distance((*data_)[i], heap.Bound());
    ++result.stats.distance_computations;
    ++result.stats.raw_series_examined;
    heap.Offer(static_cast<core::SeriesId>(i), d);
  }
  io::ChargeSequentialRead(
      static_cast<size_t>(result.stats.raw_series_examined),
      data_->length() * sizeof(core::Value), &result.stats);
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult UcrScan::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  const double radius = plan.radius;
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  util::WallTimer timer;

  core::QueryResult result;
  core::RangeCollector collector(radius * radius);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  io::ChargeScanStart(&result.stats);
  io::ChargeSequentialRead(data_->size(), data_->length() * sizeof(core::Value),
                           &result.stats);
  for (size_t i = 0; i < data_->size(); ++i) {
    const double d = order.Distance((*data_)[i], collector.Bound());
    ++result.stats.distance_computations;
    collector.Offer(static_cast<core::SeriesId>(i), d);
  }
  result.stats.raw_series_examined = static_cast<int64_t>(data_->size());
  result.neighbors = collector.TakeSorted();
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

}  // namespace hydra::scan
