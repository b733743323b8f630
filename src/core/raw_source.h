// The raw-series storage seam: an abstract source of individually
// addressed series reads, implemented by the out-of-core storage layer
// (storage::BufferPool over an mmap/pread-backed file). core knows only
// this interface, so the dependency points outward: storage depends on
// core, never the reverse.
//
// A Dataset optionally carries a RawSeriesSource (see Dataset::raw_source).
// When present, the query-time verification reads of the index methods —
// the disk-access pattern the paper's fig04/fig06/fig07 measure — are
// routed through it by io::CountedStorage instead of dereferencing the
// dataset's buffer, and the source records *measured* I/O counters into
// the SearchStats ledger (pool_hits/pool_misses/...), kept strictly apart
// from the modeled DiskModel counters. When absent (the in-RAM backend),
// reads stay plain pointer dereferences and the measured counters stay
// zero. Either way the bytes compared are identical, so answers are
// bit-identical across backends.
//
// A source may also serve *leaf extents* (MakeLeafExtent): a copy of the
// series in an index's depth-first leaf order, so that a leaf verified by
// io::VerifyLeaf is one contiguous run of positions instead of scattered
// ids. The storage layer writes one when its pool cannot hold the file.
#ifndef HYDRA_CORE_RAW_SOURCE_H_
#define HYDRA_CORE_RAW_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "core/search_stats.h"
#include "core/types.h"

namespace hydra::core {

class Dataset;

/// Abstract source of pinned raw-series reads. Implementations hand out
/// views into buffer-managed memory; the Pin guard keeps the underlying
/// page resident while the caller consumes the view.
class RawSeriesSource {
 public:
  /// Holds one page of one source resident. Reusable: passing the same Pin
  /// to a later ReadPinned releases the previous hold first (the
  /// pinned-page rule — a reader holds at most one pin and never fetches
  /// while holding a second, so a pool can never deadlock on pins even
  /// with a single frame). Destruction releases the hold.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    /// Drops the hold (idempotent). Views obtained through this pin are
    /// invalid afterwards.
    void Release() {
      if (source_ != nullptr) {
        RawSeriesSource* source = source_;
        source_ = nullptr;
        source->Unpin(token_);
      }
    }

   private:
    friend class RawSeriesSource;
    RawSeriesSource* source_ = nullptr;
    uint64_t token_ = 0;
  };

  virtual ~RawSeriesSource() = default;

  /// Reads series `index`, recording measured counters into `stats` (may
  /// be null). The returned view stays valid until the next ReadPinned
  /// through the same pin, or until the pin is released — callers must
  /// consume it before the next read (every verification loop computes a
  /// distance immediately, so this costs nothing).
  virtual SeriesView ReadPinned(size_t index, Pin* pin,
                                SearchStats* stats) = 0;

  /// True when MakeLeafExtent would write an extent: the source cannot
  /// hold all its series at once. Lets a caller skip gathering the leaf
  /// order when no extent would be made. The default (no extents) is
  /// false.
  virtual bool WantsLeafExtent() const { return false; }

  /// Writes `data`'s series `ids` (ids local to `data`, a dataset this
  /// source serves), in that order, into a new source whose position j
  /// reads series ids[j]. `ids` is a run of leaves: leaf l starts at
  /// position leaf_starts[l] (ascending, the first 0), so a source may
  /// load a whole leaf at once. Returns nullptr when an extent would gain
  /// nothing or cannot be made; the caller then reads by id, with the same
  /// answers. The extent must not outlive this source. Safe to call
  /// concurrently. The default (no extents) always returns nullptr.
  virtual std::unique_ptr<RawSeriesSource> MakeLeafExtent(
      const Dataset& /*data*/, std::span<const SeriesId> /*ids*/,
      std::span<const size_t> /*leaf_starts*/) {
    return nullptr;
  }

 protected:
  /// Releases the hold `token` identifies (called by Pin::Release).
  virtual void Unpin(uint64_t token) = 0;

  /// Pin plumbing for implementations: transfers the hold without
  /// exposing Pin internals publicly. BindPin assumes the pin is already
  /// released (callers release-then-bind).
  static void BindPin(Pin* pin, RawSeriesSource* source, uint64_t token) {
    pin->source_ = source;
    pin->token_ = token;
  }
  static RawSeriesSource* PinSource(const Pin& pin) { return pin.source_; }
  static uint64_t PinToken(const Pin& pin) { return pin.token_; }
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_RAW_SOURCE_H_
