#include "storage/buffer_pool.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>

#include "core/dataset.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/status.h"

namespace hydra::storage {

BufferPool::BufferPool(const io::SeriesFile* file,
                       const BufferPoolOptions& options)
    : file_(file) {
  HYDRA_CHECK_MSG(file_ != nullptr && file_->fd() >= 0,
                  "BufferPool needs an open SeriesFile");
  const size_t series_bytes = file_->series_bytes();
  per_page_ = options.page_bytes / series_bytes;
  if (per_page_ == 0) per_page_ = 1;  // one series per page at minimum
  page_count_ = (file_->count() + per_page_ - 1) / per_page_;
  const size_t frame_value_count = per_page_ * file_->length();
  size_t frames = options.budget_bytes / (per_page_ * series_bytes);
  if (frames == 0) frames = 1;  // the pool always holds at least one page
  // More frames than pages would never be filled; cap to the file.
  if (page_count_ != 0 && frames > page_count_) frames = page_count_;
  frames_.resize(frames);
  for (Frame& frame : frames_) {
    frame.values.resize(frame_value_count);
  }
  resident_.reserve(frames);
}

/// A leaf extent: positions of an unlinked, leaf-ordered series file,
/// read through the owning pool's frames under their own file id. A miss
/// loads the leaf holding the position (a leaf longer than a frame loads
/// in frame-sized chunks from its start), so reading a leaf costs one
/// pread of exactly its bytes.
class BufferPool::Extent : public core::RawSeriesSource {
 public:
  Extent(BufferPool* pool, io::SeriesFile file,
         std::span<const size_t> leaf_starts)
      : pool_(pool),
        file_(std::move(file)),
        starts_(leaf_starts.begin(), leaf_starts.end()),
        id_(pool->AttachExtent(file_.count())) {}
  ~Extent() override { pool_->DetachExtent(id_, file_.count()); }

  core::SeriesView ReadPinned(size_t position, Pin* pin,
                              core::SearchStats* stats) override {
    HYDRA_CHECK_MSG(position < file_.count(),
                    "leaf extent read beyond its series");
    core::SeriesView held;
    if (pool_->ReadHeld(id_, position, pin, stats, &held)) return held;
    // The leaf holding `position` starts at the last start <= position
    // (empty leaves repeat a start, and upper_bound skips them).
    const auto next = std::upper_bound(starts_.begin(), starts_.end(),
                                       position);
    const size_t leaf = *(next - 1);
    const size_t end = next == starts_.end() ? file_.count() : *next;
    const size_t per_frame = pool_->series_per_page();
    const size_t start = leaf + (position - leaf) / per_frame * per_frame;
    return pool_->ReadChunk(id_, file_,
                            {start, std::min(per_frame, end - start)},
                            position, pin, stats);
  }

 protected:
  // Pins bind to the pool, which owns the frames; this forward only keeps
  // the contract whole.
  void Unpin(uint64_t token) override { pool_->Unpin(token); }

 private:
  BufferPool* pool_;
  io::SeriesFile file_;
  std::vector<size_t> starts_;  // leaf starts, ascending; starts_[0] == 0
  uint32_t id_;
};

std::unique_ptr<core::RawSeriesSource> BufferPool::MakeLeafExtent(
    const core::Dataset& data, std::span<const core::SeriesId> ids,
    std::span<const size_t> leaf_starts) {
  if (!WantsLeafExtent() || ids.empty()) return nullptr;
  HYDRA_CHECK_MSG(!leaf_starts.empty() && leaf_starts.front() == 0,
                  "leaf extent needs the leaf starts, the first at 0");
  HYDRA_OBS_SPAN_ARG("leaf_extent_write", "series", ids.size());
  HYDRA_CHECK_MSG(data.length() == file_->length(),
                  "leaf extent series length differs from the pool's file");
  const std::filesystem::path parent =
      std::filesystem::path(file_->path()).parent_path();
  auto written = io::SeriesFile::WriteUnlinked(
      parent.empty() ? std::string(".") : parent.string(), data, ids);
  if (!written.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    extent_error_ = written.status().message();
    return nullptr;
  }
  return std::make_unique<Extent>(this, std::move(written).value(),
                                  leaf_starts);
}

uint32_t BufferPool::AttachExtent(size_t series) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++live_extents_;
  extent_series_ += series;
  return next_file_id_++;
}

void BufferPool::DetachExtent(uint32_t file_id, size_t series) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.key == kFree || frame.key != Key(file_id, frame.start)) {
      continue;
    }
    HYDRA_CHECK_MSG(frame.pins == 0 && !frame.loading,
                    "leaf extent destroyed while a query reads it");
    resident_.erase(frame.key);
    frame.key = kFree;
  }
  --live_extents_;
  extent_series_ -= series;
}

std::string BufferPool::LeafExtentStatus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (live_extents_ > 0) {
    return "in use (" + std::to_string(extent_series_) + " series in " +
           std::to_string(live_extents_) +
           (live_extents_ == 1 ? " extent)" : " extents)");
  }
  if (!WantsLeafExtent()) return "not used (the pool holds the whole file)";
  if (!extent_error_.empty()) {
    return "unavailable, leaves read by id (" + extent_error_ + ")";
  }
  return "not used";
}

core::SeriesView BufferPool::ReadPinned(size_t index, Pin* pin,
                                        core::SearchStats* stats) {
  HYDRA_CHECK_MSG(index < file_->count(),
                  "BufferPool read beyond the series file");
  core::SeriesView held;
  if (ReadHeld(kDataFile, index, pin, stats, &held)) return held;
  const size_t start = index / per_page_ * per_page_;
  return ReadChunk(kDataFile, *file_,
                   {start, std::min(per_page_, file_->count() - start)},
                   index, pin, stats);
}

core::SeriesView BufferPool::ReadChunk(uint32_t file_id,
                                       const io::SeriesFile& file, Chunk chunk,
                                       size_t index, Pin* pin,
                                       core::SearchStats* stats) {
  HYDRA_DCHECK(index >= chunk.start && index - chunk.start < chunk.count &&
               chunk.count <= per_page_);
  const uint64_t key = Key(file_id, chunk.start);
  const size_t offset = (index - chunk.start) * file.length();
  std::unique_lock<std::mutex> lock(mutex_);
  // Pinned-page rule: drop the old hold before acquiring the new one, so a
  // reader never pins two frames at once. Unpin relocks, so release while
  // unlocked-equivalent path: do it inline here under the lock.
  if (PinSource(*pin) == this) {
    Frame& held = frames_[PinToken(*pin)];
    HYDRA_CHECK_MSG(held.pins > 0, "BufferPool pin underflow");
    --held.pins;
    BindPin(pin, nullptr, 0);
    cv_.notify_all();
  } else {
    // A pin on a *different* source must be released through that source.
    pin->Release();
  }
  for (;;) {
    const auto it = resident_.find(key);
    if (it != resident_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.loading) {
        // Another reader's pread is in flight for this chunk; wait for it
        // rather than fetching twice.
        HYDRA_OBS_SPAN_ARG("pool_wait", "series", chunk.start);
        cv_.wait(lock);
        continue;
      }
      ++frame.pins;
      frame.last_use = ++tick_;
      BindPin(pin, this, it->second);
      if (stats != nullptr) ++stats->pool_hits;
      total_hits_.fetch_add(1, std::memory_order_relaxed);
      return core::SeriesView(frame.values.data() + offset, file.length());
    }
    // Miss: claim the least-recently-used unpinned, non-loading frame.
    size_t victim = frames_.size();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (size_t f = 0; f < frames_.size(); ++f) {
      const Frame& frame = frames_[f];
      if (frame.pins != 0 || frame.loading) continue;
      if (frame.key == kFree) {  // a free frame beats any eviction
        victim = f;
        break;
      }
      if (frame.last_use < oldest) {
        oldest = frame.last_use;
        victim = f;
      }
    }
    if (victim == frames_.size()) {
      // Every frame is pinned or loading. The pinned-page rule guarantees
      // progress: each reader holds at most one pin and drops it on its
      // next read, so a frame frees up without us holding anything.
      cv_.wait(lock);
      continue;
    }
    Frame& frame = frames_[victim];
    const bool evicting = frame.key != kFree;
    if (evicting) {
      resident_.erase(frame.key);
      if (stats != nullptr) ++stats->pool_evictions;
      total_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    frame.key = key;
    frame.start = chunk.start;
    frame.count = chunk.count;
    frame.loading = true;
    ++frame.pins;  // pinned through the load so no one can steal the frame
    resident_.emplace(key, victim);
    lock.unlock();
    util::Status read;
    {
      HYDRA_OBS_SPAN_ARG("pool_miss_pread", "series", chunk.start);
      read = file.ReadSeries(chunk.start, chunk.count, frame.values.data());
    }
    lock.lock();
    frame.loading = false;
    if (!read.ok()) {
      // The validated file vanished or shrank mid-run; the answer this
      // read was verifying can no longer be computed correctly.
      --frame.pins;
      frame.key = kFree;
      resident_.erase(key);
      cv_.notify_all();
      HYDRA_CHECK_MSG(false, read.message().c_str());
    }
    frame.last_use = ++tick_;
    BindPin(pin, this, victim);
    const auto bytes = static_cast<int64_t>(chunk.count * file.series_bytes());
    if (stats != nullptr) {
      ++stats->pool_misses;
      ++stats->pool_pread_calls;
      stats->pool_bytes_read += bytes;
    }
    total_misses_.fetch_add(1, std::memory_order_relaxed);
    total_preads_.fetch_add(1, std::memory_order_relaxed);
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    cv_.notify_all();  // waiters for this chunk can now pin it
    return core::SeriesView(frame.values.data() + offset, file.length());
  }
}

void BufferPool::Unpin(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& frame = frames_[token];
  HYDRA_CHECK_MSG(frame.pins > 0, "BufferPool pin underflow");
  --frame.pins;
  cv_.notify_all();
}

PoolCounters BufferPool::counters() const {
  PoolCounters totals;
  totals.hits = total_hits_.load(std::memory_order_relaxed);
  totals.misses = total_misses_.load(std::memory_order_relaxed);
  totals.evictions = total_evictions_.load(std::memory_order_relaxed);
  totals.pread_calls = total_preads_.load(std::memory_order_relaxed);
  totals.bytes_read = total_bytes_.load(std::memory_order_relaxed);
  return totals;
}

}  // namespace hydra::storage
