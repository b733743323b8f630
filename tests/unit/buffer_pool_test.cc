// Unit battery for the out-of-core buffer pool: geometry derivation,
// LRU victim order, the pinned-page discipline (including a genuine
// blocking wait on a one-frame pool), counter accounting, the pool-side
// contract of io::CountedStorage::Prefetch, and concurrent readers (the
// TSan CI lane runs this suite via the `storage` label).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/raw_source.h"
#include "core/search_stats.h"
#include "io/counted_storage.h"
#include "io/series_file.h"
#include "storage/buffer_pool.h"

namespace hydra::storage {
namespace {

constexpr size_t kLength = 8;
constexpr size_t kSeriesBytes = kLength * sizeof(core::Value);

// Writes `count` series where series i is constant-valued i, and opens a
// positional handle on the result. The value encodes the identity, so
// every test can verify a read returned the series it asked for.
class PoolTest : public ::testing::Test {
 protected:
  void OpenFile(size_t count) {
    path_ = ::testing::TempDir() + "/hydra_pool_test.bin";
    core::Dataset data("pool", kLength);
    for (size_t i = 0; i < count; ++i) {
      std::vector<core::Value> row(kLength, static_cast<core::Value>(i));
      data.Append(row);
    }
    ASSERT_TRUE(io::WriteSeriesFile(path_, data).ok());
    auto opened = io::SeriesFile::Open(path_);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    file_ = std::move(opened).value();
  }

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  // One series per page, `frames` frames: the smallest geometry that
  // still exercises eviction, so victim choice is fully observable.
  BufferPoolOptions TinyPool(size_t frames) {
    BufferPoolOptions options;
    options.page_bytes = kSeriesBytes;
    options.budget_bytes = frames * kSeriesBytes;
    return options;
  }

  io::SeriesFile file_;
  std::string path_;
};

TEST_F(PoolTest, GeometryFromBudget) {
  OpenFile(100);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = 10 * 4 * kSeriesBytes;
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.series_per_page(), 4u);
  EXPECT_EQ(pool.page_count(), 25u);  // ceil(100 / 4)
  EXPECT_EQ(pool.frame_count(), 10u);
  EXPECT_EQ(pool.frame_bytes(), 4 * kSeriesBytes);
}

TEST_F(PoolTest, GeometryClampsToMinimums) {
  OpenFile(10);
  BufferPoolOptions options;
  options.page_bytes = 1;    // below one series: rounds up to one
  options.budget_bytes = 1;  // below one frame: rounds up to one
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.series_per_page(), 1u);
  EXPECT_EQ(pool.frame_count(), 1u);
}

TEST_F(PoolTest, FramesNeverExceedPages) {
  OpenFile(3);
  BufferPoolOptions options;
  options.page_bytes = kSeriesBytes;
  options.budget_bytes = 100 * kSeriesBytes;  // budget for 100 frames
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.frame_count(), 3u);  // only 3 pages exist
}

TEST_F(PoolTest, ReadReturnsRequestedSeries) {
  OpenFile(20);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  for (size_t i : {size_t{0}, size_t{7}, size_t{19}, size_t{7}}) {
    const core::SeriesView view = pool.ReadPinned(i, &pin, nullptr);
    ASSERT_EQ(view.size(), kLength);
    EXPECT_FLOAT_EQ(view[0], static_cast<core::Value>(i));
    EXPECT_FLOAT_EQ(view[kLength - 1], static_cast<core::Value>(i));
  }
}

TEST_F(PoolTest, LruEvictsLeastRecentlyUsed) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  pool.ReadPinned(0, &pin, &stats);  // miss: load page 0
  pool.ReadPinned(1, &pin, &stats);  // miss: load page 1
  pool.ReadPinned(0, &pin, &stats);  // hit: page 0 is now most recent
  pool.ReadPinned(2, &pin, &stats);  // miss: must evict page 1, not 0
  EXPECT_EQ(stats.pool_evictions, 1);
  pool.ReadPinned(0, &pin, &stats);  // still resident: hit
  EXPECT_EQ(stats.pool_hits, 2);
  pool.ReadPinned(1, &pin, &stats);  // was evicted: miss again
  EXPECT_EQ(stats.pool_misses, 4);
  EXPECT_EQ(stats.pool_evictions, 2);
}

TEST_F(PoolTest, CountersMeasureRealReads) {
  OpenFile(8);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  pool.ReadPinned(0, &pin, &stats);
  pool.ReadPinned(0, &pin, &stats);
  pool.ReadPinned(1, &pin, &stats);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.pool_pread_calls, 2);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(2 * kSeriesBytes));
  const PoolCounters totals = pool.counters();
  EXPECT_EQ(totals.misses, 2);
  EXPECT_EQ(totals.hits, 1);
  EXPECT_EQ(totals.pread_calls, 2);
  EXPECT_EQ(totals.bytes_read, static_cast<int64_t>(2 * kSeriesBytes));
  EXPECT_EQ(totals.evictions, 0);  // two frames, two pages touched
}

TEST_F(PoolTest, SamePagePinnedReadIsAHit) {
  OpenFile(8);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;  // series 0..3 share page 0
  options.budget_bytes = options.page_bytes;
  BufferPool pool(&file_, options);
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  const core::SeriesView a = pool.ReadPinned(1, &pin, &stats);
  const core::SeriesView b = pool.ReadPinned(3, &pin, &stats);
  EXPECT_FLOAT_EQ(a[0], 1.0f);  // still valid: same pin, same page
  EXPECT_FLOAT_EQ(b[0], 3.0f);
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_hits, 1);
}

TEST_F(PoolTest, ReaderBlocksUntilPinReleased) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));  // a single frame
  core::RawSeriesSource::Pin holder;
  pool.ReadPinned(0, &holder, nullptr);  // the only frame is now pinned
  std::atomic<bool> done{false};
  std::thread blocked([&] {
    core::RawSeriesSource::Pin pin;
    const core::SeriesView view = pool.ReadPinned(1, &pin, nullptr);
    EXPECT_FLOAT_EQ(view[0], 1.0f);
    done.store(true);
  });
  // The reader cannot proceed while the frame is pinned; give it a
  // moment to prove it is actually waiting rather than racing past.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  holder.Release();
  blocked.join();
  EXPECT_TRUE(done.load());
}

TEST_F(PoolTest, ReleaseIsIdempotent) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));
  core::RawSeriesSource::Pin pin;
  pool.ReadPinned(2, &pin, nullptr);
  pin.Release();
  pin.Release();  // second release is a no-op, not a double-unpin
  core::RawSeriesSource::Pin other;
  const core::SeriesView view = pool.ReadPinned(3, &other, nullptr);
  EXPECT_FLOAT_EQ(view[0], 3.0f);
}

TEST_F(PoolTest, RepinningReleasesPreviousHold) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));
  core::RawSeriesSource::Pin pin;
  // With one frame, each fetch through the same pin must implicitly
  // release the previous hold — otherwise the second read deadlocks.
  pool.ReadPinned(0, &pin, nullptr);
  pool.ReadPinned(1, &pin, nullptr);
  const core::SeriesView view = pool.ReadPinned(2, &pin, nullptr);
  EXPECT_FLOAT_EQ(view[0], 2.0f);
}

// Prefetch is a ram-only hint: on a pooled dataset it must take no pin,
// do no pread and move no counter. With a single frame, a pin held by
// the hinting reader would block every other reader's next Read.
TEST_F(PoolTest, PrefetchIsANoOpOnAPooledDataset) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));
  core::Dataset data("pool", kLength);
  for (size_t i = 0; i < 4; ++i) {
    data.Append(std::vector<core::Value>(kLength, static_cast<core::Value>(i)));
  }
  data.AttachRawSource(&pool);
  auto hinting = std::make_unique<io::CountedStorage>(&data);
  for (core::SeriesId i = 0; i < 4; ++i) hinting->Prefetch(i);
  const PoolCounters after = pool.counters();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.pread_calls, 0);
  EXPECT_EQ(after.bytes_read, 0);

  std::atomic<bool> done{false};
  std::thread other([&] {
    io::CountedStorage reader(&data);
    core::SearchStats stats;
    EXPECT_FLOAT_EQ(reader.Read(2, &stats)[0], 2.0f);
    EXPECT_EQ(stats.pool_misses, 1);
    done.store(true);
  });
  for (int waited = 0; waited < 200 && !done.load(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load()) << "Read blocked behind the hinting reader";
  hinting.reset();  // releases a pin, were one held, so the join returns
  other.join();
}

TEST_F(PoolTest, ConcurrentReadersSeeConsistentData) {
  constexpr size_t kCount = 64;
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 400;
  OpenFile(kCount);
  BufferPool pool(&file_, TinyPool(3));  // far smaller than the file
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&pool, &wrong, t] {
      core::RawSeriesSource::Pin pin;
      core::SearchStats stats;
      for (int r = 0; r < kReadsPerThread; ++r) {
        const size_t i = (static_cast<size_t>(t) * 31 + r * 7) % kCount;
        const core::SeriesView view = pool.ReadPinned(i, &pin, &stats);
        if (view[0] != static_cast<core::Value>(i) ||
            view[kLength - 1] != static_cast<core::Value>(i)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
  const PoolCounters totals = pool.counters();
  EXPECT_EQ(totals.hits + totals.misses,
            static_cast<int64_t>(kThreads) * kReadsPerThread);
  EXPECT_GT(totals.misses, 0);
}

}  // namespace
}  // namespace hydra::storage
