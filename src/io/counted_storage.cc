#include "io/counted_storage.h"

#include "util/check.h"

namespace hydra::io {

CountedStorage::CountedStorage(const core::Dataset* data)
    : data_(data),
      source_(data != nullptr ? data->raw_source() : nullptr),
      base_(data != nullptr ? data->raw_base() : 0) {
  HYDRA_CHECK(data != nullptr);
}

core::SeriesView CountedStorage::Read(core::SeriesId i,
                                      core::SearchStats* stats) {
  HYDRA_DCHECK(i < data_->size());
  if (stats != nullptr) {
    if (static_cast<int64_t>(i) != cursor_ + 1) {
      ++stats->random_seeks;
    }
    ++stats->sequential_reads;
    stats->bytes_read += static_cast<int64_t>(series_bytes());
  }
  cursor_ = static_cast<int64_t>(i);
  return Fetch(i, stats);
}

core::SeriesView CountedStorage::ReadPrecharged(core::SeriesId i,
                                                core::SearchStats* stats) {
  HYDRA_DCHECK(i < data_->size());
  return Fetch(i, stats);
}

void ChargeContiguousRead(size_t series_count, size_t series_bytes,
                          core::SearchStats* stats) {
  ++stats->random_seeks;
  stats->sequential_reads += static_cast<int64_t>(series_count);
  stats->bytes_read += static_cast<int64_t>(series_count * series_bytes);
}

}  // namespace hydra::io
