// A fixed-budget buffer pool over an io::SeriesFile: the raw layer of the
// out-of-core backend. Pages hold whole series (a series never spans two
// pages), frames are recycled LRU among unpinned pages, and every fetch is
// a real pread(2) with measured accounting — this is the disk-access
// pattern the paper's fig04/fig06/fig07 measure, made an actual bounded
// I/O path instead of a pointer dereference.
//
// Invariants:
//   - Memory is bounded: frame_count() frames of page_bytes (rounded down
//     to whole series) each, fixed at construction. No fetch ever
//     allocates.
//   - Pinned-page discipline: a frame with pins > 0 is never evicted or
//     reloaded; readers hold at most one pin (core::RawSeriesSource::Pin)
//     and release it before their next fetch, so pool capacity 1 is
//     deadlock-free — a reader needing a frame while every frame is
//     pinned blocks until a pin drops, and some reader's next read (or
//     query end) always drops one.
//   - Single-flight loads: concurrent misses of one page wait for the
//     first fetcher instead of issuing duplicate preads.
//
// Counters: per-read deltas go to the caller's SearchStats (pool_hits /
// pool_misses / pool_evictions / pool_pread_calls / pool_bytes_read —
// *measured*, disjoint from the modeled DiskModel counters); process-wide
// totals accumulate in counters() for end-of-run summaries.
//
// Leaf extents (MakeLeafExtent): when the frames cannot hold the whole
// file, a tree index asks for its series in depth-first leaf order, and
// the pool writes them to an unlinked series file next to the data file
// (io::SeriesFile::WriteUnlinked). The extent is served by these same
// frames — they are keyed by (file, first series) — so there is one
// budget, one LRU and one set of counters. A data-file frame holds a
// page; an extent frame holds one leaf (a leaf longer than a frame takes
// frame-sized pieces), so a leaf costs one pread of exactly its bytes.
// The extent lives as long as the returned object (the index owns it);
// destroying it drops its frames. If the extent cannot be written the
// index reads by id, and LeafExtentStatus() keeps the reason.
#ifndef HYDRA_STORAGE_BUFFER_POOL_H_
#define HYDRA_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/raw_source.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "io/series_file.h"
#include "util/check.h"

namespace hydra::storage {

struct BufferPoolOptions {
  /// Total frame-memory budget; the frame count is budget / page size,
  /// floored, with a minimum of one frame.
  size_t budget_bytes = size_t{64} << 20;
  /// Requested page size; rounded down to a whole number of series (and
  /// up to at least one series).
  size_t page_bytes = size_t{1} << 20;
};

/// Snapshot of the process-wide measured totals.
struct PoolCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t pread_calls = 0;
  int64_t bytes_read = 0;
};

class BufferPool : public core::RawSeriesSource {
 public:
  /// `file` must stay open for the pool's lifetime.
  BufferPool(const io::SeriesFile* file, const BufferPoolOptions& options);

  /// See core::RawSeriesSource. `index` addresses the file's series;
  /// `stats` (nullable) receives the measured deltas. An I/O failure on
  /// the fetch path (the backing file truncated or replaced mid-run)
  /// CHECK-aborts with the pread's typed message — by then the data the
  /// query was promised no longer exists, and a wrong answer would be
  /// worse than a crash. Probe the file first via SeriesFile::ReadAt to
  /// handle truncation as a recoverable error.
  core::SeriesView ReadPinned(size_t index, Pin* pin,
                              core::SearchStats* stats) override;

  /// See core::RawSeriesSource: true unless the frames hold every page
  /// of the file (then every page loads once anyway, and a copy would
  /// only cost).
  bool WantsLeafExtent() const override {
    return frames_.size() < page_count_;
  }
  /// See core::RawSeriesSource. Returns nullptr without writing when
  /// !WantsLeafExtent(), or when the extent cannot be written (the reason
  /// goes to LeafExtentStatus).
  std::unique_ptr<core::RawSeriesSource> MakeLeafExtent(
      const core::Dataset& data, std::span<const core::SeriesId> ids,
      std::span<const size_t> leaf_starts) override;

  /// One phrase for the storage summary: "in use (<n> series in <m>
  /// extents)", "not used (the pool holds the whole file)", "unavailable,
  /// leaves read by id (<reason>)" or "not used".
  std::string LeafExtentStatus() const;

  /// Geometry, fixed at construction.
  size_t series_per_page() const { return per_page_; }
  size_t page_count() const { return page_count_; }
  size_t frame_count() const { return frames_.size(); }
  size_t frame_bytes() const {
    return per_page_ * file_->series_bytes();
  }

  PoolCounters counters() const;

 protected:
  void Unpin(uint64_t token) override;

 private:
  class Extent;

  /// Frames are keyed by (file id, first series); the data file is id 0
  /// and each extent takes the next id (never reused, so a key names one
  /// file).
  static constexpr uint32_t kDataFile = 0;
  static constexpr uint64_t kFree = ~uint64_t{0};
  static uint64_t Key(uint32_t file_id, size_t start) {
    return (uint64_t{file_id} << 40) | start;
  }

  /// The series a frame loads: a page of the data file, or a leaf (or a
  /// frame-sized piece of one) of an extent.
  struct Chunk {
    size_t start;
    size_t count;
  };
  /// Fast path: series `index` of file `file_id` lies in the frame `pin`
  /// already holds. Sets `out` and counts a hit. The pin keeps the frame
  /// from being evicted or reloaded, so its fields are read unlocked.
  bool ReadHeld(uint32_t file_id, size_t index, Pin* pin,
                core::SearchStats* stats, core::SeriesView* out) {
    HYDRA_CHECK_MSG(pin != nullptr, "BufferPool reads require a pin");
    if (PinSource(*pin) != this) return false;
    const Frame& held = frames_[PinToken(*pin)];
    if (held.key != Key(file_id, held.start) || index < held.start ||
        index - held.start >= held.count) {
      return false;
    }
    if (stats != nullptr) ++stats->pool_hits;
    total_hits_.fetch_add(1, std::memory_order_relaxed);
    const size_t length = file_->length();
    *out = core::SeriesView(
        held.values.data() + (index - held.start) * length, length);
    return true;
  }
  /// Pins the frame holding `chunk` of `file` (known to the frames as
  /// `file_id`), loading it on a miss, and returns series `index`.
  core::SeriesView ReadChunk(uint32_t file_id, const io::SeriesFile& file,
                             Chunk chunk, size_t index, Pin* pin,
                             core::SearchStats* stats);
  /// Registers a new extent of `series` series; returns its file id.
  uint32_t AttachExtent(size_t series);
  /// Drops every frame of extent `file_id` (none may be pinned).
  void DetachExtent(uint32_t file_id, size_t series);

  struct Frame {
    std::vector<core::Value> values;
    /// Key of the resident chunk, or kFree.
    uint64_t key = kFree;
    size_t start = 0;
    size_t count = 0;
    int pins = 0;
    /// True while the pread of this frame's chunk is in flight (off-lock);
    /// readers of the same chunk wait on cv_ instead of double-fetching.
    bool loading = false;
    uint64_t last_use = 0;
  };

  const io::SeriesFile* file_;
  size_t per_page_;
  size_t page_count_;
  std::vector<Frame> frames_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, size_t> resident_;  // key -> frame
  uint64_t tick_ = 0;
  // Leaf extents, under mutex_.
  uint32_t next_file_id_ = kDataFile + 1;
  size_t live_extents_ = 0;
  size_t extent_series_ = 0;
  std::string extent_error_;  // why the last extent could not be written

  std::atomic<int64_t> total_hits_{0};
  std::atomic<int64_t> total_misses_{0};
  std::atomic<int64_t> total_evictions_{0};
  std::atomic<int64_t> total_preads_{0};
  std::atomic<int64_t> total_bytes_{0};
};

}  // namespace hydra::storage

#endif  // HYDRA_STORAGE_BUFFER_POOL_H_
