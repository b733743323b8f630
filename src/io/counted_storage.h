// Instrumented access to the raw data file. Two ledgers meet here:
//   - *modeled* counters (sequential_reads / random_seeks / bytes_read),
//     charged with the paper's sequential/random semantics and converted
//     to seconds by io::DiskModel — these exist for every backend;
//   - *measured* counters (pool_hits / pool_misses / ...), recorded only
//     when the dataset is file-backed (Dataset::raw_source() non-null):
//     the read is then served by the storage layer's buffer pool as a
//     real pread instead of a pointer dereference.
// The two never mix: routing a read through the pool does not change what
// is charged to the model, and the pool's counters are never fed to the
// DiskModel. Answers are bit-identical either way — the backend changes
// where the bytes live, never which bytes are compared.
#ifndef HYDRA_IO_COUNTED_STORAGE_H_
#define HYDRA_IO_COUNTED_STORAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/query_spec.h"
#include "core/raw_source.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "obs/trace.h"
#include "util/check.h"

namespace hydra::io {

/// Cursor-tracking reader over the raw data file (the Dataset).
///
/// A read of series i is sequential when it directly follows a read of
/// series i-1; otherwise it costs one random seek plus the read itself.
/// This reproduces the paper's skip-sequential accounting for ADS+ and
/// VA+file: every skip is one random access.
///
/// The returned view stays valid until this reader's next Read /
/// ReadPrecharged (on a pooled dataset the view points into a buffer-pool
/// frame that the reader keeps pinned only until its next fetch); callers
/// consume the series — compute its distance — before reading the next.
/// One CountedStorage serves one thread; concurrent readers each get
/// their own (they share the pool underneath). Readers are query-scoped:
/// none outlives the query (or leaf) that created it, so an idle reader
/// never sits on a frame — that is what keeps the pool's blocking wait
/// deadlock-free.
class CountedStorage {
 public:
  explicit CountedStorage(const core::Dataset* data);

  /// Reads series `i`, charging the access to `stats` with the
  /// skip-sequential model (and recording measured pool counters when the
  /// dataset is file-backed).
  core::SeriesView Read(core::SeriesId i, core::SearchStats* stats);

  /// Reads series `i` *without* touching the modeled ledger or the
  /// cursor: for leaf loops whose modeled cost was already charged in
  /// bulk (VerifyLeaf) or that the model does not charge at all (the
  /// memory-resident M-tree). Measured pool counters are still recorded —
  /// they track what the storage layer actually did.
  core::SeriesView ReadPrecharged(core::SeriesId i, core::SearchStats* stats);

  /// Hints that series `i` is read next. In ram it prefetches every cache
  /// line of the row, so a loop over scattered rows overlaps the next
  /// row's memory latency with the current distance. On a pooled dataset
  /// it does nothing: it takes no pin (a reader holds at most one, the
  /// rule that keeps the pool's blocking wait deadlock-free) and no pread.
  /// It charges neither ledger and moves no cursor.
  void Prefetch(core::SeriesId i) const {
    if (source_ != nullptr) return;
    HYDRA_DCHECK(i < data_->size());
    constexpr uintptr_t kLine = 64;
    const core::SeriesView row = (*data_)[i];
    const auto begin = reinterpret_cast<uintptr_t>(row.data());
    const auto end = reinterpret_cast<uintptr_t>(row.data() + row.size());
    for (uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  const core::Dataset& data() const { return *data_; }
  size_t series_bytes() const { return data_->length() * sizeof(core::Value); }

 private:
  static constexpr int64_t kNoCursor = -2;

  /// The one place bytes are fetched: through the pool when the dataset
  /// is file-backed, by dereference otherwise.
  core::SeriesView Fetch(core::SeriesId i, core::SearchStats* stats) {
    if (source_ != nullptr) {
      return source_->ReadPinned(base_ + i, &pin_, stats);
    }
    return (*data_)[i];
  }

  const core::Dataset* data_;
  core::RawSeriesSource* source_;  // from data->raw_source(); may be null
  size_t base_;                    // data's offset within the source
  core::RawSeriesSource::Pin pin_;
  int64_t cursor_ = kNoCursor;
};

/// Charges one contiguous read of `series_count` series of `series_bytes`
/// bytes each: one random access (positioning) plus the sequential reads.
/// This is the paper's cost of one tree-index leaf, and of a sequential
/// scan pass over the file.
void ChargeContiguousRead(size_t series_count, size_t series_bytes,
                          core::SearchStats* stats);

namespace internal {

/// The verify loop of VerifyLeaf; `fetch(j)` reads the leaf's j-th series.
template <typename Sink, typename Fetch>
void VerifyRun(std::span<const core::SeriesId> ids, const Fetch& fetch,
               const core::QueryOrder& order, Sink* sink,
               core::SearchStats* stats, int64_t max_raw) {
  for (size_t j = 0; j < ids.size(); ++j) {
    if (stats->raw_series_examined >= max_raw) {
      stats->budget_exhausted = true;
      return;
    }
    const double d = order.Distance(fetch(j), sink->Bound());
    ++stats->distance_computations;
    ++stats->raw_series_examined;
    sink->Offer(ids[j], d);
  }
}

}  // namespace internal

/// Lays out the leaves of a contiguous-leaf index (DSTree, iSAX2+, SFA)
/// for VerifyLeaf. Only on a pool-backed `data` whose pool wants a leaf
/// extent (core::RawSeriesSource::WantsLeafExtent) is `collect_leaves()`
/// called: it returns the leaves (each with `ids` and a `first` to set)
/// in depth-first order. Each leaf gets `first`, the position of its first
/// series in that order, the pool writes the series in that order to a
/// leaf extent, and the extent is returned for the index to own. nullptr
/// means by-id reads: the ram backend, a pool that holds the whole file,
/// or an extent that could not be written. The order is a pure function
/// of the tree, so Build and Open lay out the same extent; nothing of it
/// is saved.
template <typename CollectLeaves>
std::unique_ptr<core::RawSeriesSource> LayOutLeaves(
    const core::Dataset& data, const CollectLeaves& collect_leaves) {
  core::RawSeriesSource* source = data.raw_source();
  if (source == nullptr || !source->WantsLeafExtent()) return nullptr;
  const auto leaves = collect_leaves();
  std::vector<core::SeriesId> order;
  std::vector<size_t> starts;
  starts.reserve(leaves.size());
  for (auto* leaf : leaves) {
    leaf->first = order.size();
    starts.push_back(leaf->first);
    order.insert(order.end(), leaf->ids.begin(), leaf->ids.end());
  }
  return source->MakeLeafExtent(data, order, starts);
}

/// Verifies one index leaf stored contiguously on disk — the read model of
/// DSTree, iSAX2+ and SFA. The whole leaf is charged up front with
/// ChargeContiguousRead (a budget cut mid-leaf still paid for the leaf),
/// then each series is fetched, its early-abandoned distance computed
/// against the sink's bound, and offered to `sink` (a core::KnnHeap or
/// core::RangeCollector). With a leaf extent (LayOutLeaves) the leaf is
/// read as positions leaf.first … leaf.first + n - 1 of the extent;
/// without one, by id through a leaf-scoped reader that prefetches the
/// next id's row while the current one is verified (a no-op when pooled).
/// Stops and sets `budget_exhausted` once `raw_series_examined` reaches
/// `max_raw`.
template <typename Leaf, typename Sink>
void VerifyLeaf(const core::Dataset* data, core::RawSeriesSource* extent,
                const Leaf& leaf, const core::QueryOrder& order, Sink* sink,
                core::SearchStats* stats,
                int64_t max_raw = core::KnnPlan::kUnlimited) {
  const std::span<const core::SeriesId> ids = leaf.ids;
  if (ids.empty()) return;
  HYDRA_OBS_SPAN_ARG("leaf_verify", "series", ids.size());
  ChargeContiguousRead(ids.size(), data->length() * sizeof(core::Value),
                       stats);
  if (extent != nullptr) {
    core::RawSeriesSource::Pin pin;
    internal::VerifyRun(
        ids,
        [&](size_t j) {
          return extent->ReadPinned(leaf.first + j, &pin, stats);
        },
        order, sink, stats, max_raw);
    return;
  }
  CountedStorage raw(data);
  internal::VerifyRun(
      ids,
      [&](size_t j) {
        if (j + 1 < ids.size()) raw.Prefetch(ids[j + 1]);
        return raw.ReadPrecharged(ids[j], stats);
      },
      order, sink, stats, max_raw);
}

}  // namespace hydra::io

#endif  // HYDRA_IO_COUNTED_STORAGE_H_
